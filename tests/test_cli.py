"""CLI behavior: exit codes, JSON-only stdout, and command wiring."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from treegen import backends
from treegen.cli import build_parser, main
from treegen.scheduler import CHECKPOINT_FORMAT, CheckpointStore, TreeRunner
from treegen.tree import config_to_dict

from conftest import (BAD_CONFIG_VALUES, CountingBackend, bad_config_dict, mock_reply,
                      node_records, pt_config, record_connections, sft_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


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
    assert (manifest["expected_leaves"], manifest["leaf_yield"]) == (32, 1.0)


def test_manifest_names_the_leaves_a_run_was_meant_to_grow(tmp_path, capsys):
    # 512-token answers look alike to the mock embedder, so most answer
    # expansions fall short and the run completes with a fraction of its leaves
    config_path = write_config(tmp_path, sft_config([4, 4, 2, 2], a_tokens=512, a_step=0))
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(out_dir), "--workers", "2")
    assert code == 0
    manifest = json.loads(out)
    assert manifest["status"] == "complete" and manifest["expected_leaves"] == 64
    assert 0 < manifest["leaf_count"] < 64
    assert manifest["leaf_yield"] == manifest["leaf_count"] / 64


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_generate_workers_below_1_exits_64_writing_nothing(tmp_path, capsys, workers):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config",
                             str(CONFIGS / "balance_8x4x2x2.json"), "--out", str(out_dir),
                             "--workers", workers)
    assert (code, out) == (64, "")
    assert err == f"usage error: --workers must be >= 1 (got {workers})\n"
    assert not out_dir.exists()


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


@pytest.mark.parametrize("flag", ["--model", "--embedding-model", "--base-url"])
def test_generate_flag_utf8_cannot_hold_is_a_usage_error_writing_nothing(tmp_path, capsys,
                                                                         flag):
    # argv bytes that are not UTF-8, as in --model $'m\xff', arrive as lone surrogates
    values = {"--model": "m", "--embedding-model": "e", "--base-url": "http://127.0.0.1:1/v1",
              flag: "m\udcff"}
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(CONFIGS / "balance_8x4x2x2.json"),
                             "--out", str(out_dir), "--backend", "http",
                             *itertools.chain(*values.items()))
    assert (code, out) == (64, "")
    assert err.splitlines() == [f"usage error: {flag} 'm\\udcff' is not text UTF-8 can hold"]
    assert not out_dir.exists()


@pytest.mark.parametrize("env", ["TG_MODEL", "TG_API_BASE"])
def test_generate_environment_utf8_cannot_hold_exits_1_writing_nothing(tmp_path, capsys,
                                                                       monkeypatch, env):
    what = {"TG_MODEL": "model name", "TG_API_BASE": "API base URL"}[env]
    for name, value in {"TG_API_KEY": "k", "TG_MODEL": "m", "TG_API_BASE": "http://127.0.0.1:1",
                        env: "http://m\udcff"}.items():
        monkeypatch.setenv(name, value)  # a surrogate is held as the byte it escapes
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(CONFIGS / "balance_8x4x2x2.json"),
                             "--out", str(out_dir), "--backend", "http")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {what} is not text UTF-8 can hold: check {env} or the "
                                "value given"]
    assert not out_dir.exists()


def http_generate(capsys, monkeypatch, server, config_path, out_dir, *flags):
    monkeypatch.setenv("TG_API_KEY", "k")
    return run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir), "--backend", "http",
                   "--base-url", server.url + "/v1", "--model", "m", *flags)


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


def test_generate_http_finish_reason_not_utf8_exits_2(tmp_path, capsys, monkeypatch,
                                                      scripted_server):
    # a finish_reason goes into nodes.jsonl too: one that UTF-8 cannot hold
    # makes the reply malformed, retried, and a resumable abort
    server_reply = openai_replies(retry_dim=16)

    def lone_surrogate(path, payload):
        status, body = server_reply(path, payload)
        if path.endswith("/completions"):
            reply = json.loads(body)
            for choice in reply["choices"]:
                choice["finish_reason"] = "stop\ud800"
            body = json.dumps(reply).encode()  # ASCII: the surrogate as an escape
        return status, body

    server = scripted_server(lone_surrogate)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, server, config_path, out_dir)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "'finish_reason' cannot be written as UTF-8" in errors[0]
    assert "Traceback" not in err
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"
    assert (out_dir / "nodes.jsonl").read_bytes() == b""
    assert not list(out_dir.glob("*.tmp"))


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
    def signed_seeds_only(path, payload):
        if path.endswith("/completions") and not -2**63 <= payload["seed"] < 2**63:
            return 400, b'{"error": "seed out of range"}'
        return mock_reply(path, payload)

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


# the endpoint a bad body comes from, the body for a call's payload, and
# what the error says
MALFORMED_BODIES = {
    "non-json": ("", lambda payload: b"<html>upstream proxy error</html>", "non-JSON"),
    "choices-one-short": ("/completions", lambda payload: json.dumps(
        {"choices": [{"index": i, "text": "a"} for i in range(payload["n"] - 1)]}).encode(),
        "'choices' items, got"),
    "data-without-embedding": ("/embeddings", lambda payload: json.dumps(
        {"data": [{"index": i} for i in range(len(payload["input"]))]}).encode(),
        "'embedding' is not"),
}
MALFORMED_FROM_CALL = 15  # past the root's 2 calls and the first layer's 8


@pytest.mark.parametrize("case", list(MALFORMED_BODIES))
def test_generate_http_malformed_body_mid_run_aborts_to_a_prefix_and_resumes(
        tmp_path, capsys, monkeypatch, scripted_server, case):
    # from call MALFORMED_FROM_CALL on, the endpoint's every reply is bad: the
    # client's retries fail, the run aborts with the blocks it committed,
    # and a resume against a healthy server ends where an uninterrupted run does
    endpoint, bad_body, message = MALFORMED_BODIES[case]
    calls = itertools.count(1)

    def turns_bad(path, payload):
        if next(calls) >= MALFORMED_FROM_CALL and path.endswith(endpoint):
            return 200, bad_body(payload)
        return mock_reply(path, payload)

    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    config_path = write_config(tmp_path, sft_config([4, 2, 2, 2]))
    assert http_generate(capsys, monkeypatch, scripted_server(mock_reply), config_path,
                         tmp_path / "baseline")[0] == 0
    baseline = (tmp_path / "baseline" / "nodes.jsonl").read_bytes()
    out_dir = tmp_path / "o"
    code, out, err = http_generate(capsys, monkeypatch, scripted_server(turns_bad),
                                   config_path, out_dir)
    assert (code, out) == (2, "") and message in err
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"
    nodes = (out_dir / "nodes.jsonl").read_bytes()
    assert len(node_records(nodes)) > 1 + 4  # a layer-1 block was committed
    assert baseline.startswith(nodes) and len(nodes) < len(baseline)
    assert http_generate(capsys, monkeypatch, scripted_server(mock_reply), config_path,
                         out_dir, "--resume")[0] == 0
    assert (out_dir / "nodes.jsonl").read_bytes() == baseline


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
    assert len(node_records((out_dir / "nodes.jsonl").read_text())) == 2


@pytest.mark.parametrize("retry_dim, exit_code", [(16, 0), (17, 2)],
                         ids=["complete", "aborted"])
def test_generate_http_closes_every_session(tmp_path, capsys, monkeypatch, scripted_server,
                                            retry_dim, exit_code):
    opened, closed = record_connections(monkeypatch)
    code = run_http_generate(tmp_path, capsys, monkeypatch, scripted_server, retry_dim)[0]
    assert code == exit_code
    assert opened and {id(c) for c in closed} == {id(c) for c in opened}


def test_generate_http_one_worker_holds_one_connection(tmp_path, capsys, monkeypatch,
                                                      scripted_server):
    # both endpoints go over the worker thread's one keep-alive connection
    opened, closed = record_connections(monkeypatch)
    server = scripted_server(mock_reply)
    code, _, err = http_generate(capsys, monkeypatch, server,
                                 write_config(tmp_path, sft_config([2, 2])), tmp_path / "o",
                                 "--workers", "1")
    assert code == 0, err
    assert {seen.target for seen in server.seen} == {"/v1/completions", "/v1/embeddings"}
    assert server.connections == 1
    assert opened and {id(c) for c in closed} == {id(c) for c in opened}


@pytest.mark.parametrize("flags, embedding_model", [((), "m"), (("--embedding-model", "e"), "e")],
                         ids=["default", "given"])
def test_generate_http_embedding_model_names_the_embeddings_model(
        tmp_path, capsys, monkeypatch, scripted_server, flags, embedding_model):
    server = scripted_server(mock_reply)
    out_dir = tmp_path / "o"
    code, _, err = http_generate(capsys, monkeypatch, server,
                                 write_config(tmp_path, sft_config([2, 2])), out_dir, *flags)
    assert code == 0, err
    models = {(seen.target, json.loads(seen.body)["model"]) for seen in server.seen}
    assert models == {("/v1/completions", "m"), ("/v1/embeddings", embedding_model)}
    generated = node_records((out_dir / "nodes.jsonl").read_text())
    assert {record["gen_meta"]["backend_id"] for record in generated} == {"http:m"}


@pytest.mark.parametrize("flags", [("--model", "my-model"), ("--embedding-model", "e"),
                                   ("--base-url", "http://localhost:8000/v1")],
                         ids=["model", "embedding-model", "base-url"])
def test_generate_mock_with_an_http_flag_exits_64_writing_nothing(tmp_path, capsys, flags):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--backend", "mock", *flags)
    assert code == 64
    assert f"{flags[0]}: for --backend http only" in err
    assert out == ""
    assert not out_dir.exists()


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


# the line format 3 began nodes.jsonl with, for sft_config's system prompt
ROOT_RECORD_OF_FORMAT_3 = json.dumps(
    {"id": "root", "parent_id": None, "layer": 0, "role": "root",
     "text": "You are a helpful assistant.", "token_count": 5, "gen_meta": None},
    ensure_ascii=False, separators=(",", ":"))


def _older_layout(nodes_jsonl: str, older: int) -> str:
    """A format-5 nodes.jsonl in the layout of format 3 or 4: each block as a
    header that counts its node records, then the records, one a line; format
    3 opens with the root record and gives every node record a token_count."""
    lines = [ROOT_RECORD_OF_FORMAT_3] if older == 3 else []
    for block in map(json.loads, nodes_jsonl.splitlines()):
        lines.append(json.dumps({"parent_id": block["parent_id"],
                                 "children": len(block["children"])}))
        lines += [json.dumps({**record, "token_count": len(record["text"].split())}
                             if older == 3 else record) for record in block["children"]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, older", [("export", 3), ("resume", 3),
                                            ("export", 4), ("resume", 4)],
                         ids=["export", "resume", "export-format-4", "resume-format-4"])
def test_format_3_checkpoint_exits_1_to_regenerate(tmp_path, capsys, command, older):
    # a format-3 or format-4 checkpoint: config.json declares it, and
    # nodes.jsonl holds that format's layout
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    stored = out_dir / "config.json"
    stored.write_text(json.dumps({**json.loads(stored.read_text()), "format": older}))
    nodes = out_dir / "nodes.jsonl"
    nodes.write_text(_older_layout(nodes.read_text(), older))
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    if command == "export":
        argv = ["export", "--tree", str(out_dir), "--format", "sharegpt",
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["generate", "--config", str(config_path), "--out", str(out_dir), "--resume"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        f"error: {stored} declares checkpoint format {older}; this version reads checkpoint "
        "format 5 only, so regenerate the tree")
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
    assert not (tmp_path / "c.json").exists()


def test_export_of_a_checkpoint_whose_hash_was_edited_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    stored = out_dir / "config.json"
    stored.write_text(json.dumps({**json.loads(stored.read_text()), "hash": "0" * 16}))
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "sharegpt",
                             "--out", str(tmp_path / "c.json"))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(
        f"error: {stored} records checkpoint config hash {'0' * 16}, ")
    assert not (tmp_path / "c.json").exists()


def _block(parent_id, children) -> str:
    return json.dumps({"parent_id": parent_id, "children": children})


def _children(lines) -> list[dict]:
    """The node records of the last block of ``lines``."""
    return json.loads(lines[-1])["children"]


def _child(lines, **fields) -> dict:
    """The last node record of ``lines`` with ``fields`` rewritten."""
    return {**_children(lines)[-1], **fields}


def _rechild(lines, children) -> list[str]:
    """``lines`` with the last block's ``children`` replaced."""
    return [*lines[:-1], _block("1", children)]


def _rechild_first(lines, **fields) -> list[str]:
    """``lines`` with the last node record of the first block, the root's,
    rewritten."""
    *children, last = json.loads(lines[0])["children"]
    return [_block("root", [*children, {**last, **fields}]), *lines[1:]]


# the lines of a [2, 2] checkpoint, whose last block is parent '1''s, holding
# its records '1.0' and '1.1', damaged so that they parse but do not continue
# the tree -> what the error says about the first changed line
DAMAGED_NODE_LINES = {
    "empty-object": (lambda lines: [*lines, "{}"], "is not a block: KeyError('parent_id')"),
    "array": (lambda lines: [*lines, "[1]"], "is not a JSON object"),
    "unknown-parent": (lambda lines: [*lines, _block("x", [_child(lines, id="x.0",
                                                                  parent_id="x")])],
                       "is not a block: KeyError('x')"),
    "repeated-last-record": (lambda lines: _rechild(lines, [_children(lines)[0]] * 2),
                             "children[1] has id '1.0' where its place gives '1.1'"),
    "marker-for-expanded-parent": (lambda lines: [*lines, _block("1", [])],
                                   "adds to parent '1', which is already expanded"),
    "second-block-for-parent": (lambda lines: [*lines, _block("root", [_child(
                                    lines, id="2", parent_id="root", layer=1)])],
                                "adds to parent 'root', which is already expanded"),
    "child-beyond-branching": (lambda lines: _rechild(lines, [*_children(lines),
                                                              _child(lines, id="1.2")]),
                               "gives parent '1' 3 children where layer 2 takes 0 to 2"),
    "child-of-last-layer-node": (lambda lines: [*lines, _block("1.1", [_child(
                                     lines, id="1.1.0", parent_id="1.1", layer=3)])],
                                 "adds to parent '1.1', which is already expanded"),
    "children-true": (lambda lines: _rechild(lines, True),
                      "gives parent '1' children True, not a JSON array"),
    "children-float": (lambda lines: _rechild(lines, 1.0),
                       "gives parent '1' children 1.0, not a JSON array"),
    "children-string": (lambda lines: _rechild(lines, "2"),
                        "gives parent '1' children '2', not a JSON array"),
    "children-list": (lambda lines: _rechild(lines, [_children(lines)[0], []]),
                      "children[1] is not a JSON object"),
    "children-negative": (lambda lines: _rechild(lines, -1),
                          "gives parent '1' children -1, not a JSON array"),
    "children-above-branching": (lambda lines: _rechild(lines, [*_children(lines), 3]),
                                 "gives parent '1' 3 children"),
    "record-of-other-parent": (lambda lines: _rechild(lines, [_children(lines)[0],
                                                              _child(lines, parent_id="0")]),
                               "children[1] has parent_id '0' where its place gives '1'"),
    # True == 1, so only the reader's explicit integer test refuses this one
    "layer-1-record-with-layer-true": (lambda lines: _rechild_first(lines, layer=True),
                                       "children[1] has layer True where its place gives 1"),
    "record-where-header-is-due": (lambda lines: [*lines, json.dumps(_child(lines))],
                                  "is not a block: KeyError('children')"),
    "record-on-line-1": (lambda lines: [json.dumps(json.loads(lines[0])["children"][0]),
                                        *lines],
                         "is not a block: KeyError('children')"),
    "root-record-on-line-1": (lambda lines: [ROOT_RECORD_OF_FORMAT_3, *lines],
                              "is not a block: KeyError(None)"),
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
    assert json.loads(lines[-1])["parent_id"] == "1"
    assert [record["id"] for record in _children(lines)] == ["1.0", "1.1"]
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


# a field of the last record of a [2, 2] checkpoint (answer '1.1', the second
# child of the last block) rewritten -> what the error says about that child
DAMAGED_NODE_FIELDS = {
    "role-of-other-layer": (_field("role", "question"),
                            "has role 'question' where its place gives 'answer'"),
    "layer-of-other-layer": (_field("layer", 3), "has layer 3 where its place gives 2"),
    "unknown-role": (_field("role", "oracle"), "has role 'oracle' where its place gives 'answer'"),
    "text-number": (_field("text", 5), "has text 5, not a JSON string"),
    # valid JSON, but no UTF-8 text: the export would fail half written
    "text-lone-surrogate": (_field("text", "caf\u00e9 \ud800"),
                            "has text 'caf\u00e9 \\ud800', which UTF-8 cannot hold"),
    "layer-string": (_field("layer", "2"), "has layer '2' where its place gives 2"),
    "layer-float": (_field("layer", 2.0), "has layer 2.0 where its place gives 2"),
    "no-id": (lambda record: {k: v for k, v in record.items() if k != "id"}, "has no id"),
    "role-unhashable": (_field("role", {}), "has role {} where its place gives 'answer'"),
    "gen-meta-string": (_field("gen_meta", "mock"),
                        "has gen_meta 'mock', not null or a JSON object"),
    "gen-meta-array": (_field("gen_meta", []), "has gen_meta [], not null or a JSON object"),
    "gen-meta-no-backend-id": (_meta_without("backend_id"), "has no gen_meta.backend_id"),
    "gen-meta-backend-id-number": (_meta_field("backend_id", 1),
                                   "has gen_meta.backend_id 1, not a JSON string"),
    "gen-meta-finish-reason-null": (_meta_field("finish_reason", None),
                                    "has gen_meta.finish_reason None, not a JSON string"),
    "gen-meta-sample-index-string": (_meta_field("sample_index", "3"),
                                     "has gen_meta.sample_index '3', not a JSON integer"),
    "gen-meta-sample-index-bool": (_meta_field("sample_index", False),
                                   "has gen_meta.sample_index False, not a JSON integer"),
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
    first, record = _children(lines)
    assert record["id"] == "1.1" and record["role"] == "answer"
    lines[-1] = _block("1", [first, rewrite(record)])
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
    assert last.startswith(f"error: {nodes} line {len(lines)} children[1] {says}")
    assert nodes.read_bytes() == damaged
    assert not (tmp_path / "c.json").exists()


def test_generate_rejects_invalid_config(tmp_path, capsys):
    config_path = write_config(tmp_path, sft_config([2, 2, 2]))  # odd depth
    code, _, err = run_cli(capsys, "generate", "--config", str(config_path),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "odd depth" in err
    assert not (tmp_path / "o").exists()


def test_generate_logs_a_config_warning_once(tmp_path):
    # a process of its own: main's logging.basicConfig writes to stderr only
    # where no handler is installed yet, and pytest installs its own
    config_path = write_config(tmp_path, sft_config([2, 2, 2, 2], a_step=0))
    proc = subprocess.run([sys.executable, "-m", "treegen.cli", "generate", "--config",
                           str(config_path), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("config warning: answer budgets not increasing with depth") == 1


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


def test_stats_stdout_is_pinned(completed_run, tmp_path, capsys):
    corpus = tmp_path / "gturn.jsonl"
    assert main(["export", "--tree", str(completed_run), "--format", "jsonl",
                 "--turn-policy", "gturn", "--out", str(corpus)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "stats", "--corpus", str(corpus))
    assert code == 0
    assert out == """\
{
  "record_count": 29,
  "turn_histogram": {
    "1": 8,
    "2": 21
  },
  "text_length_stats": {
    "min": 44,
    "max": 117,
    "mean": 70.58,
    "p50": 57,
    "p95": 106
  }
}
"""


def test_stats_of_an_empty_corpus_is_all_zero(tmp_path, capsys):
    corpus = tmp_path / "empty.json"
    corpus.write_text("[]\n")
    code, out, _ = run_cli(capsys, "stats", "--corpus", str(corpus))
    assert code == 0
    assert out == """\
{
  "record_count": 0,
  "turn_histogram": {},
  "text_length_stats": {
    "min": 0,
    "max": 0,
    "mean": 0.0,
    "p50": 0,
    "p95": 0
  }
}
"""


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


@pytest.mark.parametrize("option, message", [
    (["--target-size", "33"], "target size 33 is not between 0 and the corpus size 32"),
    (["--turn-policy", "fixed:3"], "turn policy includes turn counts beyond the tree depth "
                                   "([3] vs max 2)"),
], ids=["target-size-above-the-corpus", "fixed-deeper-than-the-tree"])
def test_export_value_the_tree_cannot_meet_exits_1(completed_run, tmp_path, capsys, option,
                                                   message):
    corpus = tmp_path / "sampled.json"
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "sharegpt", "--out", str(corpus), *option)
    assert code == 1 and out == "" and not corpus.exists()
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("option", [["--target-size", "-1"], ["--turn-policy", "fixed:0"],
                                    ["--turn-policy", "fixed:-1"]],
                         ids=["target-size-negative", "fixed-0", "fixed-negative"])
def test_export_bad_flag_value_is_usage_error_before_the_tree_loads(tmp_path, capsys, option):
    # no checkpoint at --tree: loading it would exit 1
    corpus = tmp_path / "c.json"
    code, out, err = run_cli(capsys, "export", "--tree", str(tmp_path / "missing"),
                             "--format", "sharegpt", "--out", str(corpus), *option)
    assert code == 64 and out == "" and not corpus.exists()
    assert err.startswith("usage error: ") and option[0] in err and option[1] in err


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


@pytest.mark.parametrize("abort_after_nodes, leaf_paths", [(0, 0), (3, 3), (3 + 3 * 3 + 2, 9)],
                         ids=["no-block", "root-block", "layer-2-in-part"])
def test_export_pt_of_a_partial_tree_reports_the_lines_it_wrote(tmp_path, capsys,
                                                                abort_after_nodes, leaf_paths):
    # the reported count is the leaf paths written, not a count of the file
    # read back: 0 when the root is unexpanded, else one per node at the
    # export depth (layer 1, then layer 2, of a [3, 3, 2] tree)
    from treegen.backends import MockEmbedder, MockTextBackend
    from treegen.scheduler import TreeRunner
    from test_scheduler import AbortingStore, InjectedCrash
    config = pt_config([3, 3, 2], dedup_threshold=1.01)
    out_dir = tmp_path / "partial"
    with pytest.raises(InjectedCrash):
        TreeRunner(config, MockTextBackend(), MockEmbedder(),
                   AbortingStore(out_dir, abort_after_nodes=abort_after_nodes)).run()
    corpus = tmp_path / "pt.jsonl"
    code, out, _ = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "pt",
                           "--out", str(corpus), "--permissive")
    assert code == 0
    assert json.loads(out)["lines"] == len(corpus.read_text().splitlines()) == leaf_paths


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
    tree = CheckpointStore(out_dir).load()
    assert tree.config.template_id == "llama2-chat"
    paths = tree.leaf_paths()
    lines = corpus.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["text"] for line in lines] == [
        "\n".join(node.text for node in path) for path in paths]


def test_export_pt_rejects_sft_tree(completed_run, tmp_path, capsys):
    out_file = tmp_path / "x.jsonl"
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "pt", "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err == ("error: export_pt needs a PT tree; use --format sharegpt|jsonl "
                   "for SFT trees\n")
    assert not out_file.exists()


@pytest.mark.parametrize("fmt", ["sharegpt", "jsonl"])
def test_conversation_export_rejects_pt_tree(tmp_path, capsys, fmt):
    out_dir = tmp_path / "pt-tree"
    assert main(["generate", "--config", str(write_config(tmp_path, pt_config([3, 2]))),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    out_file = tmp_path / "x.out"
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", fmt,
                             "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err == "error: build_corpus needs an SFT tree; use --format pt for PT trees\n"
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["config.json", "nodes.jsonl", "manifest.json"])
@pytest.mark.parametrize("fmt", ["sharegpt", "jsonl", "pt"])
def test_export_refuses_to_overwrite_its_checkpoint(tmp_path, capsys, fmt, name):
    config = pt_config([2, 2]) if fmt == "pt" else sft_config([2, 2])
    out_dir = tmp_path / "t"
    assert main(["generate", "--config", str(write_config(tmp_path, config)),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    files = {path: path.read_bytes() for path in sorted(out_dir.iterdir())}
    assert [path.name for path in files] == ["config.json", "manifest.json", "nodes.jsonl"]
    # a path that names the file another way resolves to it all the same
    out_file = out_dir / ".." / "t" / name
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", fmt,
                             "--out", str(out_file))
    assert (code, out) == (64, "")
    assert err == (f"usage error: --out {out_file} would overwrite the checkpoint's "
                   f"{out_dir / name}\n")
    assert {path: path.read_bytes() for path in sorted(out_dir.iterdir())} == files


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_export_refuses_a_link_to_its_checkpoint(completed_run, tmp_path, capsys, link):
    nodes = completed_run / "nodes.jsonl"
    kept = nodes.read_bytes()
    out_file = tmp_path / "corpus.jsonl"
    link(nodes, out_file)
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run), "--format",
                             "jsonl", "--out", str(out_file))
    assert (code, out) == (64, "")
    assert err == (f"usage error: --out {out_file} would overwrite the checkpoint's "
                   f"{nodes}\n")
    assert nodes.read_bytes() == kept


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


def test_generate_config_text_utf8_cannot_hold_exits_1_leaving_no_file(tmp_path, capsys):
    raw = config_to_dict(sft_config([2, 2]))
    raw["system_prompt"] = "bad \ud800"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))  # ASCII: the surrogate as an escape
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: 'system_prompt' must be a string UTF-8 can hold "
                                "(got 'bad \\ud800')"]
    assert not out_dir.exists() and not list(tmp_path.rglob("*.tmp"))


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


@pytest.mark.parametrize("fmt", ["sharegpt", "jsonl", "pt"])
def test_export_of_an_unfinished_tree_names_the_flag(tmp_path, capsys, fmt):
    from treegen.backends import MockEmbedder, MockTextBackend
    from treegen.scheduler import TreeRunner
    from test_scheduler import AbortingStore, InjectedCrash
    config = (pt_config if fmt == "pt" else sft_config)([4, 2, 2, 2], dedup_threshold=1.01)
    out_dir = tmp_path / "partial"
    with pytest.raises(InjectedCrash):
        TreeRunner(config, MockTextBackend(), MockEmbedder(),
                   AbortingStore(out_dir, abort_after_nodes=20)).run()
    out_file = tmp_path / "x.out"
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", fmt,
                             "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err == ("error: tree expansion is not finished; pass --permissive "
                   "(permissive=True) to export down to the deepest completed layer\n")
    assert not out_file.exists()


# about half a second of mock work at --workers 2, most of it after the first line
SIGNALLED_CONFIG = sft_config([4, 4, 4, 4, 4, 2])


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The config file of ``SIGNALLED_CONFIG`` and its uninterrupted nodes.jsonl."""
    directory = tmp_path_factory.mktemp("uninterrupted")
    store = CheckpointStore(directory / "tree")
    TreeRunner(SIGNALLED_CONFIG, backends.MockTextBackend(), backends.MockEmbedder(), store,
               workers=2).run()
    return write_config(directory, SIGNALLED_CONFIG), store.nodes_path.read_bytes()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_signal_aborts_generate_resumably(uninterrupted, tmp_path, capsys, signum):
    config_path, whole = uninterrupted
    out_dir = tmp_path / "tree"
    nodes = out_dir / "nodes.jsonl"
    proc = subprocess.Popen([sys.executable, "-m", "treegen.cli", "generate", "--config",
                             str(config_path), "--out", str(out_dir), "--workers", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        deadline = time.monotonic() + 60
        while not (nodes.exists() and nodes.stat().st_size):  # a line is one write
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (2, ""), err
    assert f": interrupted; checkpoint in {out_dir} is resumable" in err
    assert "Traceback" not in err
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"
    cut = nodes.read_bytes()
    assert len(cut) < len(whole) and whole.startswith(cut)
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir),
                 "--resume"]) == 0
    capsys.readouterr()
    assert nodes.read_bytes() == whole


def test_a_checkpoint_without_nodes_jsonl_holds_the_root_alone(tmp_path, capsys):
    """A run that died between writing config.json and creating the empty
    nodes.jsonl: load gives the root, export refuses it as unfinished, and
    resume grows the whole tree."""
    config = sft_config([4, 2, 2, 2])
    config_path = write_config(tmp_path, config)
    assert main(["generate", "--config", str(config_path), "--out", str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "tree"
    store = CheckpointStore(out_dir)
    store.initialize(config)
    store.close()
    (out_dir / "nodes.jsonl").unlink()

    assert list(CheckpointStore(out_dir).load().nodes) == ["root"]
    out_file = tmp_path / "corpus.json"
    code, out, err = run_cli(capsys, "export", "--tree", str(out_dir), "--format", "sharegpt",
                             "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: tree expansion is not finished; pass --permissive "
                                "(permissive=True) to export down to the deepest completed layer"]
    assert not out_file.exists() and not (out_dir / "nodes.jsonl").exists()
    assert main(["generate", "--config", str(config_path), "--out", str(out_dir),
                 "--resume"]) == 0
    capsys.readouterr()
    whole = (tmp_path / "whole" / "nodes.jsonl").read_bytes()
    assert (out_dir / "nodes.jsonl").read_bytes() == whole


def test_export_leaves_a_torn_checkpoint_unchanged(completed_run, tmp_path, capsys, caplog):
    nodes = completed_run / "nodes.jsonl"
    nodes.write_bytes(nodes.read_bytes()[:-17])  # cut into the final line
    torn = nodes.read_bytes()
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(tmp_path / "c.json"),
                           "--permissive")
    assert code == 0 and json.loads(out)["records"] > 0
    assert replay_warning(len(torn.splitlines()), len(torn.splitlines()),
                          len(torn) - torn.rindex(b"\n") - 1) in caplog.text
    assert nodes.read_bytes() == torn


def replay_warning(first: int, last: int, cut: int) -> str:
    """The WARNING of a replay that stops at line ``first`` of a file whose
    last line is ``last``, ``cut`` bytes before the file's end."""
    return (f"replay stops at nodes.jsonl line {first}, which is partial or does not "
            f"parse: the next append cuts lines {first} to {last} ({cut} bytes), and "
            "resume regenerates them")


def _tear_resumes_identically(completed_run, tmp_path, capsys, caplog, damage):
    """``damage`` rewrites the line of node 2's block, a whole line in the
    middle of the file: export refuses the torn tree, the WARNING names that
    line and what the next append cuts, and resume restores every byte."""
    nodes = completed_run / "nodes.jsonl"
    complete = nodes.read_bytes()
    lines = complete.splitlines(keepends=True)
    number = next(i for i, line in enumerate(lines) if line.startswith(b'{"parent_id":"2",'))
    assert 0 < number < len(lines) - 1
    lines[number] = damage(lines[number])
    nodes.write_bytes(b"".join(lines))
    torn = nodes.read_bytes()
    code, out, err = run_cli(capsys, "export", "--tree", str(completed_run),
                             "--format", "sharegpt", "--out", str(tmp_path / "c.json"))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and "permissive" in err
    assert replay_warning(number + 1, len(lines),
                          len(torn) - len(b"".join(lines[:number]))) in caplog.text
    assert nodes.read_bytes() == torn
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(json.loads(
        (completed_run / "config.json").read_text())["config"]))
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(completed_run), "--resume")[0] == 0
    assert nodes.read_bytes() == complete


def test_invalid_utf8_line_is_a_tear_that_resumes_identically(completed_run, tmp_path,
                                                                capsys, caplog):
    def damage(line):  # byte 0xff inside the text of node 2.0, the block's first child
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
    blocks = map(json.loads, (completed_run / "nodes.jsonl").read_text().splitlines())
    lines = [json.dumps({**block, "children": [
        {**record, "embedding": list(MockEmbedder().embed([record["text"]])[0].values)}
        for record in block["children"]]}, ensure_ascii=False, separators=(",", ":"))
        for block in blocks]
    (stored / "nodes.jsonl").write_text("\n".join(lines) + "\n")
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
    nodes.write_text("".join(lines[:len(lines) // 2]))  # whole blocks: the resume redoes the rest
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
