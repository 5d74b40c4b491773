"""CLI behavior: exit codes, JSON-only stdout, and command wiring."""

from __future__ import annotations

import gc
import json
import warnings
from pathlib import Path

import pytest
import requests

from treegen import backends
from treegen.cli import main
from treegen.tree import config_to_dict

from conftest import BAD_CONFIG_VALUES, bad_config_dict, sft_config, pt_config

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
    assert manifest["status"] == "complete"
    assert manifest["nodes_committed"] == 60


def test_generate_http_without_key_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TG_API_BASE", "http://127.0.0.1:1")
    monkeypatch.delenv("TG_API_KEY", raising=False)
    config_path = write_config(tmp_path, sft_config([2, 2]))
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(tmp_path / "o"), "--backend", "http")
    assert code == 1
    assert "TG_API_KEY" in err
    assert out == ""


def test_generate_http_non_json_body_exits_2(tmp_path, capsys, monkeypatch):
    # a 2xx reply that is not JSON is a backend failure: a resumable abort
    def non_json_post(session, url, **kwargs):
        response = requests.Response()
        response.status_code = 200
        response._content = b"<html>upstream proxy error</html>"
        return response

    monkeypatch.setattr(requests.Session, "post", non_json_post)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    monkeypatch.setenv("TG_API_KEY", "k")
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--backend", "http",
                             "--base-url", "http://127.0.0.1:9/v1", "--model", "m")
    assert code == 2
    assert "non-JSON" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def test_generate_http_malformed_item_exits_2(tmp_path, capsys, monkeypatch):
    # a 2xx reply whose item has the wrong shape is a resumable abort too
    def malformed_post(session, url, **kwargs):
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps({"choices": [7] * kwargs["json"]["n"]}).encode()
        return response

    monkeypatch.setattr(requests.Session, "post", malformed_post)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    monkeypatch.setenv("TG_API_KEY", "k")
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--backend", "http",
                             "--base-url", "http://127.0.0.1:9/v1", "--model", "m")
    assert code == 2
    assert "malformed 'choices' item" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"


def fake_server_post(later_dim: int):
    """A ``Session.post`` that answers like an OpenAI-compatible server. The
    first embedding call returns 16 dimensions, every later one ``later_dim``."""
    embed_calls = []

    def post(session, url, **kwargs):
        payload = kwargs["json"]
        if url.endswith("/completions"):
            body = {"choices": [{"index": i, "text": f"sample {payload['seed']} {i}"}
                                for i in range(payload["n"])]}
        else:
            embed_calls.append(url)
            dim = 16 if len(embed_calls) == 1 else later_dim
            body = {"data": [{"index": i, "embedding": [float(j == i % 16) for j in range(dim)]}
                             for i in range(len(payload["input"]))]}
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps(body).encode()
        return response

    return post


def test_generate_http_text_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    # "caf\ud83d" is legal JSON, but a lone surrogate cannot be written to
    # nodes.jsonl: the reply is malformed, retried, and a resumable abort
    server_post = fake_server_post(later_dim=16)

    def lone_surrogate_post(session, url, **kwargs):
        response = server_post(session, url, **kwargs)
        if url.endswith("/completions"):
            response._content = response._content.replace(b"sample", b"caf\\ud83d")
        return response

    monkeypatch.setattr(requests.Session, "post", lone_surrogate_post)
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    monkeypatch.setenv("TG_API_KEY", "k")
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "generate", "--config", str(config_path),
                             "--out", str(out_dir), "--backend", "http",
                             "--base-url", "http://127.0.0.1:9/v1", "--model", "m")
    assert code == 2
    assert "cannot be written as UTF-8" in err
    assert out == ""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_status"]) == ("aborted", 2)


def run_http_generate(tmp_path, capsys, monkeypatch, later_dim: int):
    monkeypatch.setattr(requests.Session, "post", fake_server_post(later_dim))
    monkeypatch.setenv("TG_API_KEY", "k")
    config_path = write_config(tmp_path, sft_config([2, 2]))
    return run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(tmp_path / "o"), "--backend", "http",
                   "--base-url", "http://127.0.0.1:9/v1", "--model", "m")


def test_generate_http_embedding_dimension_change_exits_2(tmp_path, capsys, monkeypatch):
    # the root's children are embedded at 16 dimensions, every later pool at
    # 17: selecting against a 16-dimensional query is a resumable abort
    code, out, err = run_http_generate(tmp_path, capsys, monkeypatch, later_dim=17)
    out_dir = tmp_path / "o"
    assert code == 2
    assert "has 16, its pool has [17]" in err
    assert out == ""
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "aborted"
    assert len((out_dir / "nodes.jsonl").read_text().splitlines()) == 3  # root + 2


@pytest.mark.parametrize("later_dim, exit_code", [(16, 0), (17, 2)],
                         ids=["complete", "aborted"])
def test_generate_http_closes_every_session(tmp_path, capsys, monkeypatch,
                                            later_dim, exit_code):
    opened, closed = [], []
    real_init, real_close = requests.Session.__init__, requests.Session.close

    def init(session):
        real_init(session)
        opened.append(session)

    def close(session):
        closed.append(session)
        real_close(session)

    monkeypatch.setattr(requests.Session, "__init__", init)
    monkeypatch.setattr(requests.Session, "close", close)
    code = run_http_generate(tmp_path, capsys, monkeypatch, later_dim)[0]
    assert code == exit_code
    assert opened and {id(s) for s in closed} == {id(s) for s in opened}


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
    "no-config": _without("config"),
    "invalid-config": lambda text: json.dumps({**json.loads(text), "config": {"mode": "sft"}}),
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


def _orphan(nodes_text):
    record = json.loads(nodes_text.splitlines()[-1])
    return json.dumps({**record, "id": "x.1", "parent_id": "x"})


def _marker_for_last_parent(nodes_text):
    record = json.loads(nodes_text.splitlines()[-1])
    return json.dumps({"parent_id": record["parent_id"], "children": []})


def _late_child_of_root(nodes_text):
    # the id is the root's next child, but the root's block has ended
    record = json.loads(nodes_text.splitlines()[1])
    return json.dumps({**record, "id": "2"})


def _next_child_of_last_parent(nodes_text):
    record = json.loads(nodes_text.splitlines()[-1])
    return json.dumps({**record, "id": "1.2"})


def _child_of_last_record(nodes_text):
    record = json.loads(nodes_text.splitlines()[-1])
    return json.dumps({**record, "id": "1.1.0", "parent_id": "1.1", "layer": 3})


# a whole nodes.jsonl line that parses but does not continue the tree -> what
# the error says
DAMAGED_NODE_LINES = {
    "empty-object": (lambda text: "{}", "is not a node record"),
    "array": (lambda text: "[1]", "is not a JSON object"),
    "unknown-parent": (_orphan, "is not a node record"),
    "repeated-last-record": (lambda text: text.splitlines()[-1],
                             "has id '1.1' where the next child is '1.2'"),
    "marker-for-expanded-parent": (_marker_for_last_parent,
                                   "adds to parent '1', which is already expanded"),
    "second-block-for-parent": (_late_child_of_root,
                                "adds to parent 'root', which is already expanded"),
    "child-beyond-branching": (_next_child_of_last_parent,
                               "adds child 3 to parent '1', beyond layer 2's branching of 2"),
    "child-of-last-layer-node": (_child_of_last_record,
                                 "adds to parent '1.1', which is already expanded"),
}


@pytest.mark.parametrize("damage", list(DAMAGED_NODE_LINES))
@pytest.mark.parametrize("command", ["export", "resume"])
def test_node_line_that_is_no_record_exits_1(tmp_path, capsys, command, damage):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    nodes = out_dir / "nodes.jsonl"
    text = nodes.read_text()
    line, says = DAMAGED_NODE_LINES[damage]
    nodes.write_text(text + line(text) + "\n")
    damaged = nodes.read_bytes()
    if command == "export":
        argv = ["export", "--tree", str(out_dir), "--format", "sharegpt",
                "--out", str(tmp_path / "c.json")]
    else:
        argv = ["generate", "--config", str(config_path), "--out", str(out_dir), "--resume"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"error: {nodes} line {len(text.splitlines()) + 1} {says}")
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
    ('[{"id": "a", "conversations": [{"from": "human", "value": "x"}]}]',
     "element 0 is not a valid record"),
], ids=["object-line", "truncated-array", "one-human-turn"])
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


def test_export_with_target_size(completed_run, tmp_path, capsys):
    corpus = tmp_path / "sampled.json"
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(corpus),
                           "--target-size", "10", "--sample-seed", "3")
    assert code == 0
    assert json.loads(out)["records"] == 10


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


def test_invalid_utf8_line_is_a_tear_that_resumes_identically(completed_run, tmp_path,
                                                                capsys, caplog):
    nodes = completed_run / "nodes.jsonl"
    complete = nodes.read_bytes()
    lines = complete.splitlines(keepends=True)
    # byte 0xff inside the text of line 10, a whole line in the middle of the file
    at = lines[9].index(b'"text":"') + len(b'"text":"')
    lines[9] = lines[9][:at] + b"\xff" + lines[9][at + 1:]
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


def test_records_with_stored_embeddings_export_the_same_bytes(completed_run, tmp_path,
                                                              capsys):
    # format-2 records written with the former --store-embeddings carry an
    # "embedding" key after gen_meta; it is ignored
    from treegen.backends import MockEmbedder
    stored = tmp_path / "stored"
    stored.mkdir()
    lines = (completed_run / "nodes.jsonl").read_text().splitlines()
    records = [lines[0]] + [
        json.dumps({**record, "embedding": list(MockEmbedder().embed([record["text"]])[0].values)},
                   ensure_ascii=False, separators=(",", ":"))
        for record in map(json.loads, lines[1:])]
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


@pytest.mark.parametrize("damaged", ["{\"status\": \"runn", "[1, 2]\n"],
                         ids=["not-json", "not-an-object"])
def test_damaged_manifest_is_ignored(completed_run, tmp_path, capsys, caplog, damaged):
    (completed_run / "manifest.json").write_text(damaged)
    corpus = tmp_path / "c.json"
    code, out, _ = run_cli(capsys, "export", "--tree", str(completed_run),
                           "--format", "sharegpt", "--out", str(corpus))
    assert code == 0 and json.loads(out)["records"] == 32
    assert "ignoring damaged" in caplog.text
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(json.loads(
        (completed_run / "config.json").read_text())["config"]))
    code = run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(completed_run), "--resume")[0]
    assert code == 0
    manifest = json.loads((completed_run / "manifest.json").read_text())
    assert manifest["status"] == "complete" and manifest["nodes_committed"] == 60


@pytest.mark.parametrize("value", ["x", True, -1, None], ids=["string", "bool", "negative", "null"])
@pytest.mark.parametrize("key", ["dedup_drops", "retries"])
def test_bad_manifest_count_starts_afresh(tmp_path, capsys, caplog, key, value):
    config_path = write_config(tmp_path, sft_config([2, 2]))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir))[0] == 0
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), key: value}))
    nodes = out_dir / "nodes.jsonl"
    nodes.write_text("".join(nodes.read_text().splitlines(keepends=True)[:-2]))  # parent 1's block
    code = run_cli(capsys, "generate", "--config", str(config_path),
                   "--out", str(out_dir), "--resume")[0]
    assert code == 0
    assert f"ignoring {key}" in caplog.text
    manifest = json.loads(manifest_path.read_text())
    assert manifest["status"] == "complete" and manifest["nodes_committed"] == 6
    assert type(manifest[key]) is int and manifest[key] >= 0


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
