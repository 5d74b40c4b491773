"""A tree grown over HTTP equals the same tree grown in-process with the mocks.

``treebench/stub_server.py`` serves completions and embeddings from
``MockTextBackend`` and ``MockEmbedder``, and the benchmark's wide-http
correctness gate rests on that equality: its digests are the in-process
tree's. This grows one small tree through ``treegen generate --backend http``
against the stub, run as a script in a subprocess, and compares the bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from treegen.backends import MockEmbedder, MockTextBackend
from treegen.cli import main
from treegen.scheduler import NODES_FILE, CheckpointStore, TreeRunner
from treegen.tree import config_to_dict

from conftest import node_records, sft_config

STUB = Path(__file__).resolve().parent.parent / "treebench" / "stub_server.py"
MODEL = "stub"


@pytest.fixture
def stub_url():
    stub = subprocess.Popen([sys.executable, str(STUB)], stdout=subprocess.PIPE, text=True)
    try:
        port = int(stub.stdout.readline())
        yield f"http://127.0.0.1:{port}/v1"
    finally:
        stub.terminate()
        stub.wait(timeout=10)
        stub.stdout.close()


def test_http_tree_equals_the_mock_tree(tmp_path, capsys, monkeypatch, stub_url):
    config = sft_config([4, 2], template_id="llama2-chat")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    monkeypatch.setenv("TG_API_KEY", "k")
    assert main(["generate", "--config", str(config_path), "--out", str(tmp_path / "http"),
                 "--backend", "http", "--base-url", stub_url, "--model", MODEL,
                 "--workers", "2"]) == 0
    capsys.readouterr()

    generator = MockTextBackend()
    generator.backend_id = f"http:{MODEL}"  # what HttpBackend records
    TreeRunner(config, generator, MockEmbedder(), CheckpointStore(tmp_path / "mock"),
               workers=2).run()
    http_nodes = (tmp_path / "http" / NODES_FILE).read_bytes()
    assert len(node_records(http_nodes)) == 4 + 8
    assert http_nodes == (tmp_path / "mock" / NODES_FILE).read_bytes()
