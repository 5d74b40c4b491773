"""CLI behavior: exit codes, JSON-only stdout, and command wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import requests

from treegen import backends
from treegen.cli import main
from treegen.tree import config_to_dict

from conftest import sft_config, pt_config

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
    code, out, _ = run_cli(capsys, "export", "--tree", str(out_dir),
                           "--format", "pt", "--out", str(corpus))
    assert code == 0
    assert json.loads(out)["lines"] == 6


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
