"""Workload definitions and helpers shared by the harness and the job process.

Every workload grows a tree whose config seed is the benchmark's ``--seed``;
everything else about the input is fixed here, so the same seed gives the
same inputs. The configs mirror the shipped ``configs/`` files named beside
them, but live here so that editing ``configs/`` cannot change the benchmark.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKERS = 2
HTTP_MODEL = "stub"
STUB_LATENCY_MS = 20.0
STUB_LATENCY_JITTER = 0.5
STUB_EMBED_LATENCY_MS = 5.0

_SYSTEM = "You are a helpful, knowledgeable assistant with broad world knowledge."


def _layer(branching: int, max_tokens: int, role: str) -> dict:
    return {"branching": branching, "max_tokens": max_tokens, "role": role,
            "temperature": 1.0 if role == "question" else 0.7, "stop_markers": []}


def _sft(layers: list[dict]) -> dict:
    return {"mode": "sft", "system_prompt": _SYSTEM, "layers": layers,
            "oversample_factor": 2.0, "mmr_lambda": 0.5,
            "dedup_threshold": 0.95, "seed": 0,
            "template_id": "llama2-chat"}


# configs/balance_32x8x8x8.json
_BALANCE_32X8X8X8 = [_layer(32, 64, "question"), _layer(8, 256, "answer"),
                     _layer(8, 64, "question"), _layer(8, 512, "answer")]

CONFIGS = {
    # layer-1 branching 8; d=16 bag-of-words makes long answers near-duplicates
    "balance-shortfall": _sft([_layer(8, 64, "question")] + _BALANCE_32X8X8X8[1:]),
    # first two layers of configs/balance_32x16x8x8.json
    "select-d1024": _sft([_layer(32, 64, "question"), _layer(16, 256, "answer")]),
    # configs/wide_64x1x1x1.json
    "wide-http": _sft([_layer(64, 24, "question"), _layer(1, 128, "answer"),
                       _layer(1, 24, "question"), _layer(1, 256, "answer")]),
}
WORKLOADS = tuple(CONFIGS)


def config_dict(workload: str, seed: int) -> dict:
    raw = copy.deepcopy(CONFIGS[workload])
    raw["seed"] = seed
    return raw


def use_checkout_src() -> None:
    """Import treegen from this checkout's ``src``, never from elsewhere."""
    init = SRC / "treegen" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"treegen sources not found at {init}")
    sys.path.insert(0, str(SRC))


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digest(tree) -> str:
    """SHA-256 over every node record, child list and shortfall, in id order."""
    from treegen.tree import node_to_record, structural_key

    digest = hashlib.sha256()
    for node_id in sorted(tree.nodes, key=structural_key):
        node = tree.nodes[node_id]
        record = node_to_record(node)
        record["children"] = node.children
        digest.update(json.dumps(record, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    digest.update(json.dumps(sorted(tree.shortfalls.items())).encode("utf-8"))
    return digest.hexdigest()
