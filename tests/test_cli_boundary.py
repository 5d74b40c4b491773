"""Every input surface of the CLI ends in a documented exit.

Arbitrary text, often with NUL, U+2028, non-BMP characters or lone
surrogates, goes into a config's string fields, argv flag values and a
scripted server's reply fields; ``cli.main`` runs in process with a strict
UTF-8 stdout, as a UTF-8 terminal has. Each run exits 0, 1, 2 or 64, prints
one ``error:`` or ``usage error:`` line if it fails and no traceback, and
leaves no ``*.tmp`` file; a run that exits 2 resumes. ``--workers`` and the
other integer flags are not drawn.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treegen import backends
from treegen.cli import main
from treegen.tree import config_to_dict

from conftest import ScriptedServer, mock_reply, sft_config

# NUL and other control characters, the characters JSON escapes, line
# separators, a non-BMP character and lone surrogates, \udcff the kind that
# argv bytes which are not UTF-8 decode to
SPECIAL = "\x00\n\x1f\"\\\x7f\u2028\u2029\U0001f600\ud800\udcff\udfff"
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL),
                         st.characters(codec=None, exclude_categories=())), max_size=12)
BOUNDARY = settings(database=None, derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
CONFIG = config_to_dict(sft_config([2, 2], q_tokens=4, a_tokens=6, a_step=0))  # a few ms


def run(work: Path, *argv: str) -> int:
    """``main(argv)``'s exit, with the exit contract checked."""
    err = io.BytesIO()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace",
                              write_through=True)
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(list(argv))
    text = err.getvalue().decode("utf-8")
    errors = [line for line in text.split("\n") if line.startswith(("error: ", "usage error: "))]
    assert code in (0, 1, 2, 64), text
    assert len(errors) == (code != 0) and "Traceback" not in text, text
    assert not list(work.rglob("*.tmp"))
    return code


def workdir(parent: Path, config: dict = CONFIG) -> Path:
    work = Path(tempfile.mkdtemp(dir=parent))
    (work / "config.json").write_text(json.dumps(config))  # ASCII: a surrogate as an escape
    return work


def generate(work: Path, *flags: str) -> list[str]:
    return ["generate", "--workers", "2", "--config", str(work / "config.json"),
            "--out", str(work / "tree"), *flags]


def export_and_stats(work: Path, tree: Path) -> None:
    """The tree exports, and its export reads back as a corpus."""
    corpus = str(work / "corpus.json")
    assert run(work, "export", "--tree", str(tree), "--format", "sharegpt", "--out", corpus) == 0
    assert run(work, "stats", "--corpus", corpus) == 0


@BOUNDARY
@given(field=st.sampled_from(["mode", "system_prompt", "template_id", "role", "stop_markers"]),
       text=TEXT)
def test_config_string_fields(tmp_path, field, text):
    raw = json.loads(json.dumps(CONFIG))
    if field == "role":
        raw["layers"][1]["role"] = text
    elif field == "stop_markers":
        raw["layers"][0]["stop_markers"] = [text, "</s>"]
    else:
        raw[field] = text
    work = workdir(tmp_path, raw)
    code = run(work, *generate(work))
    assert code in (0, 1)
    if code == 0:
        export_and_stats(work, work / "tree")
    else:
        assert not (work / "tree").exists()


@pytest.fixture(scope="module")
def server():
    """One scripted server for every example; a test sets its ``replies``."""
    server = ScriptedServer(mock_reply)
    yield server
    server.stop()


@pytest.fixture(scope="module")
def grown_tree(tmp_path_factory) -> Path:
    work = workdir(tmp_path_factory.mktemp("grown"))
    assert run(work, *generate(work)) == 0
    return work / "tree"


# (command, flag): each flag that takes text, in one command
ARGV_FLAGS = [("generate", "--config"), ("generate", "--out"), ("http", "--model"),
              ("http", "--embedding-model"), ("http", "--base-url"), ("export", "--tree"),
              ("export", "--out"), ("export", "--turn-policy"), ("stats", "--corpus"),
              ("validate", "--config")]


@BOUNDARY
@given(command_flag=st.sampled_from(ARGV_FLAGS), text=TEXT)
def test_argv_flag_values(tmp_path, monkeypatch, server, grown_tree, command_flag, text):
    monkeypatch.setenv("TG_API_KEY", "k")
    server.replies = mock_reply
    work = workdir(tmp_path)
    corpus = str(work / "corpus.json")
    command, flag = command_flag
    argv = {"generate": generate(work),
            "http": generate(work, "--backend", "http", "--base-url", server.url + "/v1",
                             "--model", "m", "--embedding-model", "m"),
            "export": ["export", "--tree", str(grown_tree), "--format", "sharegpt",
                       "--out", corpus, "--turn-policy", "full"],
            "stats": ["stats", "--corpus", corpus],
            "validate": ["validate", "--config", str(work / "config.json")]}[command]
    at = argv.index(flag) + 1
    if flag == "--base-url":
        argv[at] += text  # a path on the server
    elif flag in ("--model", "--embedding-model", "--turn-policy"):
        argv[at] = text
    else:  # a path: one name inside the work directory
        argv[at] = str(work / "x") + text.replace("/", "_")
    if run(work, *argv) == 0 and argv[0] == "generate":
        export_and_stats(work, Path(argv[argv.index("--out") + 1]))


@BOUNDARY
@given(text=TEXT, reason=st.none() | TEXT, bad_from=st.integers(1, 4))
def test_server_reply_fields(tmp_path, monkeypatch, server, text, reason, bad_from):
    # from completion call bad_from on, each reply's first text and, if one
    # is drawn, every finish_reason are the drawn ones
    monkeypatch.setenv("TG_API_KEY", "k")
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: None)
    state = {"calls": 0, "healthy": False}

    def reply(path, payload):
        status, body = mock_reply(path, payload)
        if path.endswith("/completions") and not state["healthy"]:
            state["calls"] += 1
            if state["calls"] >= bad_from:
                choices = json.loads(body)["choices"]
                choices[0]["text"] = text
                for choice in choices:
                    if reason is not None:
                        choice["finish_reason"] = reason
                body = json.dumps({"choices": choices}).encode()  # ASCII escapes
        return status, body

    server.replies = reply
    work = workdir(tmp_path)
    argv = generate(work, "--backend", "http", "--base-url", server.url + "/v1", "--model", "m")
    code = run(work, *argv)
    assert code in (0, 2)
    if code == 2:
        state["healthy"] = True
        assert run(work, *argv, "--resume") == 0
    export_and_stats(work, work / "tree")
