"""CLI behavior: exit codes, JSON-only stdout, and command wiring."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import re
import warnings
from pathlib import Path

import pytest

from treegen import backends
from treegen.cli import build_parser, main
from treegen.scheduler import CHECKPOINT_FORMAT, CheckpointStore, TreeRunner
from treegen.tree import config_to_dict

from conftest import (BAD_CONFIG_VALUES, CountingBackend, bad_config_dict, node_records,
                      pt_config, record_connections, sft_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, config, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    return path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generate -------------------------------------------------------------------

def test_generate_mock_run_counts(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([4, 2, 2, 2], dedup_threshold=1.01))
    out_dir = tmp_path / "treeout"
    code, out, _ = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(out_dir), "--backend", "mock", "--workers", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes_committed"] == 60  # 4 + 8 + 16 + 32
    assert payload["leaf_count"] == 32
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert payload == {**manifest, "out": str(out_dir)}  # stdout is the manifest
    assert (manifest["status"], manifest["workers"]) == ("complete", 4)


def test_generate_http_without_key_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TG_API_BASE", "http://127.0.0.1:1")
    monkeypatch.delenv("TG_API_KEY", raising=False)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(tmp_path / "o"), "--backend", "http")
    assert code == 1
    assert "TG_API_KEY" in err
    assert out == ""


def test_generate_http_base_url_without_scheme_exits_1_writing_nothing(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.setenv("TG_API_KEY", "k")
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--backend", "http",
                             "--base-url", "localhost:8000/v1", "--model", "m")
    assert code == 1
    assert "'localhost:8000/v1' is not http(s)://host[:port][/path]" in err
    assert out == ""
    assert not out_dir.exists()


def http_generate(capsys, monkeypatch, server, config_path, out_dir):
    monkeypatch.setenv("TG_API_KEY", "k")
    return run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir), "--backend", "http",
                   "--base-url", server.url + "/v1", "--model", "m")


def test_generate_http_non_json_body_exits_2(tmp_path, capsys, monkeypatch, scripted_server):
    # a 2xx reply that is not JSON is a backend failure: a resumable abort
    server = scripted_server([(200, b"<html>upstream proxy error</html>")])
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, server, config_path, out_dir)
    assert code == 2
    assert "non-JSON" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def test_generate_http_malformed_item_exits_2(tmp_path, capsys, monkeypatch, scripted_server):
    # a 2xx reply whose item has the wrong shape is a resumable abort too
    def malformed(path, payload):
        return 200, json.dumps({"choices": [7] * payload["n"]}).encode()

    server = scripted_server(malformed)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, server, config_path, out_dir)
    assert code == 2
    assert "malformed 'choices' item" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def openai_replies(retry_dim: int):
    """Replies like an OpenAI-compatible server. A prompt that quotes no
    sample, the root's, gets distinct samples; any other gets one sample
    repeated, so its expansion retries. Within one embedding call, each
    distinct text gets the next basis vector, at 16 dimensions, or at
    ``retry_dim`` for a call that holds the samples of a retried prompt."""
    prompts: set[str] = set()
    retried: set[str] = set()

    def reply(path, payload):
        if path.endswith("/completions"):
            prompt, seed = payload["prompt"], payload["seed"]
            texts = [f"sample {seed}" + ("" if "sample" in prompt else f" {i}")
                     for i in range(payload["n"])]
            if prompt in prompts:
                retried.update(texts)
            prompts.add(prompt)
            body = {"choices": [{"index": i, "text": text} for i, text in enumerate(texts)]}
        else:
            texts = payload["input"]
            dim = retry_dim if retried.intersection(texts) else 16
            basis: dict[str, int] = {}
            for text in texts:
                basis.setdefault(text, len(basis))
            body = {"data": [{"index": i, "embedding": [float(j == basis[t]) for j in range(dim)]}
                             for i, t in enumerate(texts)]}
        return 200, json.dumps(body).encode()

    return reply


def test_generate_http_text_not_utf8_exits_2(tmp_path, capsys, monkeypatch, scripted_server):
    # "caf\ud83d" is legal JSON, but a lone surrogate cannot be written to
    # nodes.jsonl: the reply is malformed, retried, and a resumable abort
    server_reply = openai_replies(retry_dim=16)

    def lone_surrogate(path, payload):
        status, body = server_reply(path, payload)
        if path.endswith("/completions"):
            body = body.replace(b"sample", b"caf\\ud83d")
        return status, body

    server = scripted_server(lone_surrogate)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, server, config_path, out_dir)
    assert code == 2
    assert "cannot be written as UTF-8" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def test_generate_http_body_nested_too_deeply_exits_2(tmp_path, capsys, monkeypatch,
                                                     scripted_server):
    # json.loads raises RecursionError, not ValueError, on 100,000 nested
    # arrays: the body is still a non-JSON reply, retried, then an abort
    server = scripted_server([(200, b"[" * 100_000)])
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, server, config_path, out_dir)
    assert code == 2
    assert err.splitlines()[-1].startswith("error: ") and "non-JSON" in err
    assert "Traceback" not in err and out == ""
    assert server.calls == backends.DEFAULT_RETRIES
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def test_generate_http_sends_signed_64_bit_seeds(tmp_path, capsys, monkeypatch,
                                                scripted_server):
    # a server that types seed as a signed 64-bit integer, as vLLM does,
    # refuses any other value with a 400, which is not retried
    generator, embedder = backends.MockTextBackend(), backends.MockEmbedder()

    def signed_seeds_only(path, payload):
        if path.endswith("/embeddings"):
            vectors = embedder.embed(payload["input"])
            body = {"data": [{"index": i, "embedding": list(v.values)}
                             for i, v in enumerate(vectors)]}
        elif not -2**63 <= payload["seed"] < 2**63:
            return 400, b'{"error": "seed out of range"}'
        else:
            result = generator.generate(backends.GenerationRequest(
                prompt=payload["prompt"], max_tokens=payload["max_tokens"],
                temperature=payload["temperature"], n_samples=payload["n"], stop=(),
                request_seed=payload["seed"] % 2**64))
            body = {"choices": [{"index": i, "text": c.text}
                                for i, c in enumerate(result.completions)]}
        return 200, json.dumps(body).encode()

    server = scripted_server(signed_seeds_only)
    config = sft_config([4, 2])
    code, out, err = http_generate(capsys, monkeypatch, server,
                                   write_config(tmp_path, config), tmp_path / "o")
    assert code == 0, err
    assert json.loads(out)["leaf_count"] == 8
    sent = [json.loads(seen.body)["seed"] for seen in server.seen
            if seen.target.endswith("/completions")]
    assert min(sent) < 0  # some request seed is 2**63 or more
    mock = CountingBackend()
    TreeRunner(config, mock, backends.MockEmbedder(), CheckpointStore(tmp_path / "m")).run()
    assert sorted(seed % 2**64 for seed in sent) == sorted(c["request_seed"]
                                                           for c in mock.calls)


def run_http_generate(tmp_path, capsys, monkeypatch, server_factory, retry_dim: int):
    server = server_factory(openai_replies(retry_dim))
    config_path = write_config(tmp_path, sft_config([2, 2]))
    return http_generate(capsys, monkeypatch, server, config_path, tmp_path / "o")


def test_generate_http_embedding_dimension_change_exits_2(tmp_path, capsys, monkeypatch,
                                                          scripted_server):
    # each layer-2 parent is embedded with its pool at 16 dimensions, and its
    # retry's samples at 17: selecting them against a 16-dimensional query is
    # a resumable abort
    code, out, err = run_http_generate(tmp_path, capsys, monkeypatch, scripted_server,
                                       retry_dim=17)
    out_dir = tmp_path / "o"
    assert code == 2
    assert "has 16, its pool has [17]" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"
    assert len(node_records((out_dir / "nodes.jsonl").read_text())) == 3  # root + 2


@pytest.mark.parametrize("retry_dim, exit_code", [(16, 0), (17, 2)],
                         ids=["complete", "aborted"])
def test_generate_http_closes_every_session(tmp_path, capsys, monkeypatch, scripted_server,
                                            retry_dim, exit_code):
    opened, closed = record_connections(monkeypatch)
    code = run_http_generate(tmp_path, capsys, monkeypatch, scripted_server, retry_dim)[0]
    assert code == exit_code
    assert opened and {id(c) for c in closed} == {id(c) for c in opened}


def test_generate_resume_on_fresh_directory_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    code, _, err = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(tmp_path / "fresh"), "--resume")
    assert code == 1
    assert "no checkpoint" in err


def test_generate_refuses_to_clobber_without_resume(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    code, _, err = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(out_dir))
    assert code == 1 and "--resume" in err


def test_generate_resume_completes(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    run_cli(capsys, "generate", "--config", str(config_path), "--out", str(out_dir))
    code, out, _ = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(out_dir), "--resume")
    assert code == 0
    assert json.loads(out)["status"] == "complete"


def _without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


DAMAGED_CHECKPOINT_CONFIGS = {
    "truncated": lambda text: text[:len(text) // 2],
    "not-an-object": lambda text: "[1, 2]\n",
    "no-format": _without("format"),
    "format-2": lambda text: json.dumps({**json.loads(text), "format": 2}),
    "no-config": _without("config"),
    "invalid-config": lambda text: json.dumps({**json.loads(text), "config": {"mode": "sft"}}),
    "nested-too-deeply": lambda text: "[" * 100_000,
}


@pytest.mark.parametrize("damage", list(DAMAGED_CHECKPOINT_CONFIGS))
@pytest.mark.parametrize("command", ["export", "resume"])
def test_damaged_checkpoint_config_exits_1(tmp_path, capsys, command, damage):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    stored = out_dir / "config.json"
    stored.write_text(DAMAGED_CHECKPOINT_CONFIGS[damage](stored.read_text()))
    if command == "export":
        argv = ["export", "--tree", str(out_dir), "--format", "sharegpt",
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["generate", "--config", str(config_path), "--out", str(out_dir), "--resume"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and str(stored) in last


def _header(parent_id, children) -> str:
    return json.dumps({"parent_id": parent_id, "children": children})


def _last(lines, **fields) -> str:
    """The last record of ``lines`` with ``fields`` rewritten."""
    return json.dumps({**json.loads(lines[-1]), **fields})


def _recount(lines, children) -> list[str]:
    """``lines`` with the count in the last block's header rewritten."""
    return [*lines[:-3], _header("1", children), *lines[-2:]]


# the lines of a [2, 2] checkpoint, whose last block is parent '1''s header
# and its records '1.0' and '1.1', damaged so that they parse but do not
# continue the tree -> what the error says about the first changed line
DAMAGED_NODE_LINES = {
    "empty-object": (lambda lines: [*lines, "{}"],
                     "is not a block header: KeyError('parent_id')"),
    "array": (lambda lines: [*lines, "[1]"], "is not a JSON object"),
    "unknown-parent": (lambda lines: [*lines, _header("x", 1),
                                      _last(lines, id="x.0", parent_id="x")],
                       "is not a block header: KeyError('x')"),
    "repeated-last-record": (lambda lines: [*lines[:-1], lines[-2]],
                             "has id '1.0' where the next child is '1.1'"),
    "marker-for-expanded-parent": (lambda lines: [*lines, _header("1", 0)],
                                   "adds to parent '1', which is already expanded"),
    "second-block-for-parent": (lambda lines: [*lines, _header("root", 1),
                                               _last(lines, id="2", parent_id="root", layer=1)],
                                "adds to parent 'root', which is already expanded"),
    "child-beyond-branching": (lambda lines: [*_recount(lines, 3), _last(lines, id="1.2")],
                               "gives parent '1' 3 children where layer 2 takes 0 to 2"),
    "child-of-last-layer-node": (lambda lines: [*lines, _header("1.1", 1), _last(
                                     lines, id="1.1.0", parent_id="1.1", layer=3)],
                                 "adds to parent '1.1', which is already expanded"),
    "children-true": (lambda lines: _recount(lines, True), "gives parent '1' True children"),
    "children-float": (lambda lines: _recount(lines, 1.0), "gives parent '1' 1.0 children"),
    "children-string": (lambda lines: _recount(lines, "2"), "gives parent '1' '2' children"),
    "children-list": (lambda lines: _recount(lines, []), "gives parent '1' [] children"),
    "children-negative": (lambda lines: _recount(lines, -1), "gives parent '1' -1 children"),
    "children-above-branching": (lambda lines: _recount(lines, 3),
                                 "gives parent '1' 3 children"),
    "record-of-other-parent": (lambda lines: [*lines[:-1], _last(lines, parent_id="0")],
                               "has parent_id '0' in the block of '1'"),
    "record-where-header-is-due": (lambda lines: [*lines, lines[-1]],
                                   "is not a block header: KeyError('children')"),
}


@pytest.mark.parametrize("damage", list(DAMAGED_NODE_LINES))
@pytest.mark.parametrize("command", ["export", "resume"])
def test_node_line_that_is_no_record_exits_1(tmp_path, capsys, command, damage):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    nodes = out_dir / "nodes.jsonl"
    lines = nodes.read_text().splitlines()
    assert lines[-3] == '{"parent_id":"1","children":2}'
    assert [json.loads(line)["id"] for line in lines[-2:]] == ["1.0", "1.1"]
    damage, says = DAMAGED_NODE_LINES[damage]
    damaged_lines = damage(lines)
    nodes.write_text("\n".join(damaged_lines) + "\n")
    changed = next(number for number, (line, damaged_line)
                   in enumerate(zip([*lines, None], damaged_lines), start=1)
                   if line != damaged_line)
    damaged = nodes.read_bytes()
    if command == "export":
        argv = ["export", "--tree", str(out_dir), "--format", "sharegpt",
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["generate", "--config", str(config_path), "--out", str(out_dir), "--resume"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"error: {nodes} line {changed} {says}")
    assert nodes.read_bytes() == damaged


def _field(key, value):
    return lambda record: {**record, key: value}


def _meta_field(key, value):
    return lambda record: {**record, "gen_meta": {**record["gen_meta"], key: value}}


def _meta_without(key):
    return lambda record: {**record, "gen_meta": {
        k: v for k, v in record["gen_meta"].items() if k != key}}


# a field of the last record of a [2, 2] checkpoint (answer '1.1') rewritten
# -> what the error says about that line
DAMAGED_NODE_FIELDS = {
    "role-of-other-layer": (_field("role", "question"),
                            "has role 'question' where layer 2 holds 'answer'"),
    "layer-of-other-layer": (_field("layer", 3),
                             "has layer 3 where its parent's children are at layer 2"),
    "unknown-role": (_field("role", "oracle"), "is not a node record: ValueError"),
    "token-count-string": (_field("token_count", "many"),
                           "is not a node record: ValueError(\"'token_count'"),
    "token-count-bool": (_field("token_count", True),
                         "is not a node record: ValueError(\"'token_count'"),
    "token-count-float": (_field("token_count", 12.0),
                          "is not a node record: ValueError(\"'token_count'"),
    "text-number": (_field("text", 5), "is not a node record: ValueError(\"'text'"),
    "layer-string": (_field("layer", "2"), "is not a node record: ValueError(\"'layer'"),
    "gen-meta-string": (_field("gen_meta", "mock"),
                        "is not a node record: ValueError(\"'gen_meta'"),
    "gen-meta-array": (_field("gen_meta", []), "is not a node record: ValueError(\"'gen_meta'"),
    "gen-meta-no-backend-id": (_meta_without("backend_id"),
                               "is not a node record: KeyError('backend_id')"),
    "gen-meta-backend-id-number": (_meta_field("backend_id", 1),
                                   "is not a node record: ValueError(\"'backend_id'"),
    "gen-meta-finish-reason-null": (_meta_field("finish_reason", None),
                                    "is not a node record: ValueError(\"'finish_reason'"),
    "gen-meta-sample-index-string": (_meta_field("sample_index", "3"),
                                     "is not a node record: ValueError(\"'sample_index'"),
    "gen-meta-sample-index-bool": (_meta_field("sample_index", False),
                                   "is not a node record: ValueError(\"'sample_index'"),
}


@pytest.mark.parametrize("damage", list(DAMAGED_NODE_FIELDS))
@pytest.mark.parametrize("command", ["export", "resume"])
def test_node_field_of_the_wrong_kind_exits_1(tmp_path, capsys, command, damage):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    nodes = out_dir / "nodes.jsonl"
    lines = nodes.read_text().splitlines()
    rewrite, says = DAMAGED_NODE_FIELDS[damage]
    record = json.loads(lines[-1])
    assert record["id"] == "1.1" and record["role"] == "answer"
    lines[-1] = json.dumps(rewrite(record))
    nodes.write_text("\n".join(lines) + "\n")
    damaged = nodes.read_bytes()
    if command == "export":
        argv = ["export", "--tree", str(out_dir), "--format", "sharegpt",
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["generate", "--config", str(config_path), "--out", str(out_dir), "--resume"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"error: {nodes} line {len(lines)} {says}")
    assert nodes.read_bytes() == damaged


def test_generate_rejects_invalid_config(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2, 2]))  # odd depth
    code, _, err = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "odd depth" in err


# --- export / stats ------------------------------------------------------------------

@pytest.fixture
def completed_run(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([4, 2, 2, 2], dedup_threshold=1.01))
    out_dir = tmp_path / "tree"
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


def test_export_sharegpt_and_stats(completed_run, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(corpus))
    assert code == 0
    assert json.loads(out)["records"] == 32
    payload = json.loads(corpus.read_text())
    assert len(payload) == 32

    code, out, _ = run_cli(capsys, "stats", "--corpus", str(corpus))
    assert code == 0
    stats = json.loads(out)
    assert stats["record_count"] == 32
    assert stats["turn_histogram"] == {"2": 32}


@pytest.mark.parametrize("content, names", [
    ('{"not": "a corpus"}\n', "line 1 is not a ShareGPT record"),
    ("[1", "is not valid JSON"),
    ("[" * 100_000, "is not valid JSON"),
    ('[{"id": "a", "conversations": [{"from": "human", "value": "x"}]}]',
     "element 0 is not a valid record"),
    ('[{"id": "a", "conversations": [{"from": "human", "value": 5}, '
     '{"from": "gpt", "value": "x"}]}]', "element 0 is not a valid record"),
    ('[{"id": "a", "conversations": [{"from": "human", "value": "q"}, '
     '{"from": "gpt", "value": null}]}]', "element 0 is not a valid record"),
    ('{"id": "a", "conversations": [{"from": 1, "value": "q"}, '
     '{"from": "gpt", "value": "x"}]}\n', "line 1 is not a valid record"),
], ids=["object-line", "truncated-array", "nested-too-deeply", "one-human-turn",
        "int-value", "null-value", "int-from"])
def test_stats_on_a_file_that_is_not_a_corpus_exits_1(tmp_path, capsys, content, names):
    path = tmp_path / "notes.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "stats", "--corpus", str(path))
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and str(path) in last and names in last


def test_export_fixed_turn_policy(completed_run, tmp_path, capsys):
    corpus = tmp_path / "k1.jsonl"
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "jsonl", "--out", str(corpus),
                           "--turn-policy", "fixed:1")
    assert code == 0
    assert json.loads(out)["records"] == 8
    assert len(corpus.read_text().splitlines()) == 8


def test_export_gturn_from_a_shipped_depth_4_tree(tmp_path, capsys):
    # the 1-4 turn Gaussian cut to the tree's 2 turns: weights 0.269/0.731
    out_dir = tmp_path / "tree"
    assert run_cli(capsys, "generate", "--config", str(CONFIGS / "balance_8x4x2x2.json"),
                   "--out", str(out_dir), "--workers", "2")[0] == 0
    corpus = tmp_path / "gturn.json"
    code, out, _ = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "sharegpt",
                           "--out", str(corpus), "--turn-policy", "gturn")
    assert code == 0 and json.loads(out)["records"] == 118
    turns = [len(element["conversations"]) // 2 for element in json.loads(corpus.read_text())]
    assert {t: turns.count(t) for t in set(turns)} == {1: 32, 2: 86}


def test_export_gturn_from_a_depth_8_tree_mixes_1_to_4_turns(tmp_path, capsys):
    from treegen.corpus import build_corpus, export_sharegpt, gaussian_turn_policy
    config = sft_config([4, 2, 2, 1, 1, 1, 1, 1], dedup_threshold=1.01)
    out_dir = tmp_path / "tree"
    assert run_cli(capsys, "generate", "--config", str(write_config(tmp_path, config)),
                   "--out", str(out_dir), "--workers", "2")[0] == 0
    corpus = tmp_path / "gturn.json"
    assert run_cli(capsys, "export", "--tree", str(out_dir), "--format", "sharegpt",
                   "--out", str(corpus), "--turn-policy", "gturn",
                   "--policy-seed", "5")[0] == 0
    store = CheckpointStore(out_dir)
    records = build_corpus(store.load(config), gaussian_turn_policy(sample_seed=5))
    assert {r.turn_count for r in records} == {1, 2, 3, 4}
    assert corpus.read_bytes() == export_sharegpt(records, tmp_path / "library.json").read_bytes()


def test_export_with_target_size(completed_run, tmp_path, capsys):
    corpus = tmp_path / "sampled.json"
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(corpus),
                           "--target-size", "10", "--sample-seed", "3")
    assert code == 0
    assert json.loads(out)["records"] == 10


def test_export_negative_target_size_exits_1(completed_run, tmp_path, capsys):
    corpus = tmp_path / "sampled.json"
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "sharegpt", "--out", str(corpus),
                             "--target-size", "-1")
    assert code == 1 and out == "" and not corpus.exists()
    assert err.splitlines() == ["error: target size -1 is not between 0 and the corpus size 32"]


@pytest.mark.parametrize("option", [["--target-size", "1"], ["--inline-system"],
                                    ["--turn-policy", "full"], ["--policy-seed", "3"],
                                    ["--sample-seed", "0"]],
                         ids=["target-size", "inline-system", "turn-policy", "policy-seed",
                              "sample-seed"])
def test_export_pt_with_a_conversation_option_is_usage_error(tmp_path, capsys, option):
    config_path = write_config(tmp_path, pt_config([3, 2], dedup_threshold=1.01))
    out_dir = tmp_path / "pt-tree"
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    corpus = tmp_path / "pt.jsonl"
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "pt",
                             "--out", str(corpus), *option)
    assert code == 64 and out == "" and not corpus.exists()
    assert err.startswith("usage error: ") and option[0] in err


@pytest.mark.parametrize("options, flag", [
    (["--sample-seed", "4"], "--sample-seed"),
    (["--policy-seed", "3"], "--policy-seed"),
    (["--turn-policy", "full", "--policy-seed", "0"], "--policy-seed"),
    (["--turn-policy", "fixed:1", "--policy-seed", "3"], "--policy-seed"),
], ids=["sample-seed-without-target-size", "policy-seed-with-default-policy",
        "policy-seed-with-full", "policy-seed-with-fixed"])
def test_export_option_that_cannot_change_the_output_is_usage_error(completed_run, tmp_path,
                                                                   capsys, options, flag):
    corpus = tmp_path / "c.json"
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "sharegpt", "--out", str(corpus), *options)
    assert code == 64 and out == "" and not corpus.exists()
    assert err.startswith("usage error: ") and flag in err


def test_export_pt_names_every_conversation_option_given(tmp_path, capsys):
    config_path = write_config(tmp_path, pt_config([3, 2], dedup_threshold=1.01))
    out_dir = tmp_path / "pt-tree"
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    corpus = tmp_path / "pt.jsonl"
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "pt",
                             "--out", str(corpus), "--turn-policy", "fixed:9",
                             "--policy-seed", "3", "--sample-seed", "4")
    assert code == 64 and out == "" and not corpus.exists()
    assert err.splitlines() == ["usage error: --turn-policy, --policy-seed, --sample-seed: "
                                "for sharegpt and jsonl exports only, not for --format pt"]


@pytest.mark.parametrize("given, omitted", [
    (["--turn-policy", "full"], []),
    (["--turn-policy", "gturn", "--policy-seed", "0"], ["--turn-policy", "gturn"]),
    (["--target-size", "10", "--sample-seed", "0"], ["--target-size", "10"]),
], ids=["turn-policy", "policy-seed", "sample-seed"])
def test_export_default_given_equals_it_omitted(completed_run, tmp_path, capsys, given,
                                                omitted):
    outputs = []
    for name, options in (("given.json", given), ("omitted.json", omitted)):
        corpus = tmp_path / name
        assert run_cli(capsys, "export", "--tree", str(completed_run), "--format",
                       "sharegpt", "--out", str(corpus), *options)[0] == 0
        outputs.append(corpus.read_bytes())
    assert outputs[0] == outputs[1]


def test_export_pt_from_pt_tree(tmp_path, capsys):
    config_path = write_config(tmp_path, pt_config([3, 2], dedup_threshold=1.01))
    out_dir = tmp_path / "pt-tree"
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    corpus = tmp_path / "pt.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, _ = run_cli(capsys, "export", "--tree", str(out_dir),
                               "--format", "pt", "--out", str(corpus))
        gc.collect()
    assert code == 0
    assert json.loads(out)["lines"] == 6
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_export_pt_joins_with_the_config_template_separator(tmp_path, capsys):
    # the template comes from config.json alone: llama2-chat joins with "\n"
    config = dataclasses.replace(pt_config([3, 2], dedup_threshold=1.01),
                                 template_id="llama2-chat")
    out_dir = tmp_path / "pt-tree"
    assert main(["generate", "--config", str(write_config(tmp_path, config)),
                 "--out", str(out_dir)]) == 0
    corpus = tmp_path / "pt.jsonl"
    assert main(["export", "--tree", str(out_dir), "--format", "pt",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    store = CheckpointStore(out_dir)
    assert store.stored_config().template_id == "llama2-chat"
    paths = store.load(store.stored_config()).leaf_paths()
    lines = corpus.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["text"] for line in lines] == [
        "\n".join(node.text for node in path) for path in paths]


def test_export_pt_rejects_sft_tree(completed_run, tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "pt", "--out", str(tmp_path / "x.jsonl"))
    assert code == 1
    assert "PT-mode" in err or "PT" in err


def test_export_bad_policy_is_usage_error(completed_run, tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(tmp_path / "x.json"),
                           "--turn-policy", "sometimes")
    assert code == 64
    assert "usage error" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "export", "--format", "sharegpt")
    assert code == 64


# --- validate -----------------------------------------------------------------------

def test_validate_clean_config_exits_0(capsys):
    code, out, _ = run_cli(capsys, "validate", "--config",
                           str(CONFIGS / "balance_32x8x8x8.json"))
    assert code == 0
    report = json.loads(out)
    assert report["errors"] == []
    assert report["shape"] == "balance-tree"


def test_validate_all_example_configs(capsys):
    for path in sorted(CONFIGS.glob("*.json")):
        code, out, _ = run_cli(capsys, "validate", "--config", str(path))
        assert code == 0, f"{path.name}: {out}"
        assert json.loads(out)["errors"] == []


@pytest.mark.parametrize("case", list(BAD_CONFIG_VALUES))
@pytest.mark.parametrize("command", ["validate", "generate"])
def test_bad_config_value_exits_1(tmp_path, capsys, command, case):
    raw, names = bad_config_dict(case)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    argv = ["--config", str(config_path)]
    if command == "generate":
        argv += ["--out", str(tmp_path / "o")]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and names in last


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"mode": "sft\xff"}'],
                         ids=["nested-too-deeply", "not-utf8"])
@pytest.mark.parametrize("command", ["validate", "generate"])
def test_config_file_that_cannot_be_read_exits_1(tmp_path, capsys, command, content):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(content)
    argv = ["--config", str(config_path)]
    if command == "generate":
        argv += ["--out", str(tmp_path / "o")]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"error: cannot read config {config_path}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "generate"])
def test_unknown_template_id_exits_1(tmp_path, capsys, command):
    raw = config_to_dict(sft_config([2, 2]))
    raw["template_id"] = "nope"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    out_dir = tmp_path / "o"
    argv = ["--config", str(config_path)]
    if command == "generate":
        argv += ["--out", str(out_dir)]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1
    if command == "validate":
        assert any("'nope'" in e for e in json.loads(out)["errors"])
    else:
        assert out == "" and "'nope'" in err.splitlines()[-1]
    assert not out_dir.exists()


def test_template_flag_is_a_usage_error(tmp_path, capsys):
    # a tree's template is its config's template_id, which config.json records
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--template", "llama2-chat")
    assert code == 64 and out == ""
    assert "usage error" in err
    assert not out_dir.exists()


def test_every_readme_flag_is_accepted():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    accepted = {flag for sub in commands.choices.values()
                for flag in sub._option_string_actions}
    assert named and named <= accepted, sorted(named - accepted)


def test_validate_bad_config_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2, 2]))
    code, out, _ = run_cli(capsys, "validate", "--config", str(config_path))
    assert code == 1
    assert any("odd depth" in e for e in json.loads(out)["errors"])


def test_cli_runs_are_reproducible(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([3, 2], dedup_threshold=1.01))
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["generate", "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
        corpus = tmp_path / f"{name}.json"
        assert main(["export", "--tree", str(out_dir), "--format", "sharegpt",
                     "--out", str(corpus)]) == 0
        outputs.append(((out_dir / "nodes.jsonl").read_bytes(), corpus.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_export_incomplete_tree_needs_permissive(tmp_path, capsys):
    from treegen.backends import MockEmbedder, MockTextBackend
    from treegen.scheduler import TreeRunner
    from test_scheduler import AbortingStore, InjectedCrash
    config = sft_config([4, 2, 2, 2], dedup_threshold=1.01)
    config_path = write_config(tmp_path, config)
    out_dir = tmp_path / "partial"
    store = AbortingStore(out_dir, abort_after_nodes=20)
    with pytest.raises(InjectedCrash):
        TreeRunner(config, MockTextBackend(), MockEmbedder(), store).run()

    code, _, err = run_cli(capsys, "export", "--tree", str(out_dir),
                           "--format", "sharegpt", "--out", str(tmp_path / "x.json"))
    assert code == 1 and "permissive" in err

    code, out, _ = run_cli(capsys, "export", "--tree", str(out_dir),
                           "--format", "sharegpt", "--out", str(tmp_path / "x.json"),
                           "--permissive")
    assert code == 0
    assert json.loads(out)["records"] > 0


def test_export_leaves_a_torn_checkpoint_unchanged(completed_run, tmp_path, capsys, caplog):
    nodes = completed_run / "nodes.jsonl"
    nodes.write_bytes(nodes.read_bytes()[:-17])  # cut into the final line
    torn = nodes.read_bytes()
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(tmp_path / "c.json"),
                           "--permissive")
    assert code == 0 and json.loads(out)["records"] > 0
    assert "torn trailing block" in caplog.text
    assert nodes.read_bytes() == torn


def _tear_resumes_identically(completed_run, tmp_path, capsys, caplog, damage):
    """``damage`` rewrites the line of node 2.0, a whole line in the middle of
    the file: export refuses the torn tree, and resume restores every byte."""
    nodes = completed_run / "nodes.jsonl"
    complete = nodes.read_bytes()
    lines = complete.splitlines(keepends=True)
    number = next(i for i, line in enumerate(lines) if line.startswith(b'{"id":"2.0"'))
    lines[number] = damage(lines[number])
    nodes.write_bytes(b"".join(lines))
    torn = nodes.read_bytes()
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "sharegpt", "--out", str(tmp_path / "c.json"))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and "permissive" in err
    assert "torn trailing block" in caplog.text
    assert nodes.read_bytes() == torn
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(json.loads(
        (completed_run / "config.json").read_text())["config"]))
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(completed_run), "--resume")[0] == 0
    assert nodes.read_bytes() == complete


def test_invalid_utf8_line_is_a_tear_that_resumes_identically(completed_run, tmp_path,
                                                                capsys, caplog):
    def damage(line):  # byte 0xff inside the text of node 2.0
        at = line.index(b'"text":"') + len(b'"text":"')
        return line[:at] + b"\xff" + line[at + 1:]

    _tear_resumes_identically(completed_run, tmp_path, capsys, caplog, damage)


def test_line_nested_too_deeply_is_a_tear_that_resumes_identically(completed_run, tmp_path,
                                                                     capsys, caplog):
    # the parser raises RecursionError, not ValueError, on 100,000 nested arrays
    _tear_resumes_identically(completed_run, tmp_path, capsys, caplog,
                              lambda line: b"[" * 100_000 + b"\n")


def test_records_with_stored_embeddings_export_the_same_bytes(completed_run, tmp_path,
                                                              capsys):
    # a node record that carries a key replay does not read, such as the
    # "embedding" of the former --store-embeddings, exports as one without it
    from treegen.backends import MockEmbedder
    stored = tmp_path / "stored"
    stored.mkdir()
    lines = (completed_run / "nodes.jsonl").read_text().splitlines()
    records = [lines[0]] + [
        line if "children" in record else json.dumps(
            {**record, "embedding": list(MockEmbedder().embed([record["text"]])[0].values)},
            ensure_ascii=False, separators=(",", ":"))
        for line, record in zip(lines[1:], map(json.loads, lines[1:]))]
    (stored / "nodes.jsonl").write_text("\n".join(records) + "\n")
    for name in ("config.json", "manifest.json"):
        (stored / name).write_bytes((completed_run / name).read_bytes())
    exports = []
    for tree in (completed_run, stored):
        for fmt in ("sharegpt", "jsonl"):
            out_path = tmp_path / f"{tree.name}.{fmt}"
            assert run_cli(capsys, "export", "--tree", str(tree), "--format", fmt,
                           "--out", str(out_path))[0] == 0
            exports.append(out_path.read_bytes())
    assert exports[:2] == exports[2:]
    assert b'"embedding"' in (stored / "nodes.jsonl").read_bytes()


@pytest.mark.parametrize("manifest", ["[1, 2]\n", None], ids=["not-an-object", "missing"])
def test_export_never_reads_the_manifest(completed_run, tmp_path, capsys, caplog, manifest):
    exports = []
    for step in ("as-written", "replaced"):
        if step == "replaced":
            manifest_path = completed_run / "manifest.json"
            if manifest is None:
                manifest_path.unlink()
            else:
                manifest_path.write_text(manifest)
        for fmt in ("sharegpt", "jsonl"):
            out_path = tmp_path / f"{step}.{fmt}"
            assert run_cli(capsys, "export", "--tree", str(completed_run), "--format", fmt,
                           "--out", str(out_path))[0] == 0
            exports.append(out_path.read_bytes())
    assert exports[:2] == exports[2:]
    assert "WARNING" not in caplog.text


def test_resume_writes_its_own_session(tmp_path, capsys, monkeypatch):
    # a resumed session reports its own workers, backend and times, and the
    # telemetry it counted, not the first session's
    from treegen import scheduler
    stamps = iter(f"2026-01-01T00:00:0{i}+00:00" for i in range(10))
    monkeypatch.setattr(scheduler, "_utcnow", lambda: next(stamps))
    # long answers look alike to the mock embedder: expansions drop and retry
    config_path = write_config(tmp_path, sft_config([4, 3, 2, 2], a_tokens=200, a_step=100))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path), "--out", str(out_dir),
                   "--workers", "8")[0] == 0
    first = json.loads((out_dir / "manifest.json").read_text())
    nodes = out_dir / "nodes.jsonl"
    lines = nodes.read_text().splitlines(keepends=True)
    cut = next(i for i in range(len(lines) // 2, 0, -1) if "children" in json.loads(lines[i]))
    nodes.write_text("".join(lines[:cut]))  # whole blocks: the resume redoes the rest
    code, out, _ = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(out_dir), "--workers", "2", "--resume")
    assert code == 0
    resumed = json.loads((out_dir / "manifest.json").read_text())
    assert json.loads(out) == {**resumed, "out": str(out_dir)}
    assert (first["workers"], resumed["workers"]) == (8, 2)
    assert (first["started_at"], first["ended_at"]) == ("2026-01-01T00:00:00+00:00",
                                                         "2026-01-01T00:00:01+00:00")
    assert (resumed["started_at"], resumed["ended_at"]) == ("2026-01-01T00:00:02+00:00",
                                                            "2026-01-01T00:00:03+00:00")
    assert resumed["backend_id"] == first["backend_id"]
    for key in ("nodes_committed", "shortfalls", "leaf_count", "config_hash"):
        assert resumed[key] == first[key]
    assert 0 < resumed["dedup_drops"] < first["dedup_drops"]
    assert 0 < resumed["retries"] < first["retries"]


def test_readme_lists_the_manifest_fields(completed_run):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("- `manifest.json`"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    listed = re.findall(r"`(\w+)`", paragraph[paragraph.index("Fields:"):])
    manifest = json.loads((completed_run / "manifest.json").read_text())
    assert listed == list(manifest)


def test_readme_names_the_checkpoint_format():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert re.findall(r'"format": (\d+)', readme) == [str(CHECKPOINT_FORMAT)]


def test_stdout_is_json_only(completed_run, tmp_path, capsys):
    corpus = tmp_path / "c.json"
    for argv in (
        ["export", "--tree", str(completed_run), "--format", "sharegpt",
         "--out", str(corpus)],
        ["stats", "--corpus", str(corpus)],
        ["validate", "--config", str(CONFIGS / "balance_8x4x2x2.json")],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out)  # must parse as a single JSON document
