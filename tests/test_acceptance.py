"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything runs against the deterministic mock backends at desk scale.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from pathlib import Path

import pytest

from treegen.backends import EmbeddingVector, MockEmbedder, MockTextBackend
from treegen.corpus import (build_corpus, export_sharegpt, gaussian_turn_policy,
                            validate_sharegpt_file)
from treegen.dedup import mmr_select, near_duplicate_filter
from treegen.scheduler import NODES_FILE, CheckpointStore, TreeRunner
from treegen.templates import (LLAMA2_CHAT, get_template, render_continuation_prompt,
                               render_dialogue_prompt)
from treegen.tree import expected_leaf_count

from conftest import CountingBackend, OptionMock, reference_cosine, sft_config
from test_dedup import oracle_mmr
from test_scheduler import AbortingStore, InjectedCrash, expected_seed_layer_map

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, name: str):
    """Decorator printing the one-line verdict for a criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
        return inner
    return wrap


def mock_run(config, directory, workers=4, backend=None):
    store = CheckpointStore(directory)
    tree = TreeRunner(config, backend or MockTextBackend(), MockEmbedder(),
                      store, workers=workers).run()
    return tree, store


# -- 1: leaf-count law ---------------------------------------------------------

@report(1, "leaf-count law")
def test_criterion_1_leaf_count_law(tmp_path):
    start = time.monotonic()
    for branching in ([2, 2], [3, 2, 2, 2], [8, 4, 2, 2]):
        config = sft_config(branching, dedup_threshold=1.01)
        tree, _ = mock_run(config, tmp_path / "x".join(map(str, branching)))
        want = expected_leaf_count(config)
        got = len(tree.leaf_paths())
        assert got == want == math.prod(branching)
    assert time.monotonic() - start < 30.0


# -- 2: prompt fidelity -----------------------------------------------------------

@report(2, "prompt fidelity")
def test_criterion_2_prompt_fidelity():
    system = "You are helpful."
    p1 = render_dialogue_prompt([], LLAMA2_CHAT, system)
    p2 = render_dialogue_prompt(["q"], LLAMA2_CHAT, system)
    p3 = render_dialogue_prompt(["q", "r"], LLAMA2_CHAT, system)
    p4 = render_dialogue_prompt(["q", "r", "q2"], LLAMA2_CHAT, system)
    assert p1 == (GOLDEN / "llama2_p1.txt").read_text(encoding="utf-8")
    assert p2 == (GOLDEN / "llama2_p2.txt").read_text(encoding="utf-8")
    assert p3 == (GOLDEN / "llama2_p3.txt").read_text(encoding="utf-8")
    assert p4 == (GOLDEN / "llama2_p4.txt").read_text(encoding="utf-8")
    # marker structure: system prompt enclosed in <<SYS>> inside the first
    # instruction; generation of answers starts after [/INST]
    assert p1.startswith("[INST] <<SYS>>\n" + system)
    assert "\n<</SYS>>\n\n" in p1
    assert p2.endswith("q [/INST]")
    assert p3.count("[INST]") == 2 and p3.count("[/INST]") == 1
    assert p4.startswith(p3) and p4.endswith("q2 [/INST]")

    base = "Here are some useful world knowledge:"
    assert render_continuation_prompt([], base, "\n") == base
    joined = render_continuation_prompt(["fact A", "fact B"], base, separator="\n")
    assert joined == base + "\nfact A\nfact B"
    assert joined == (GOLDEN / "pt_prompt.txt").read_text(encoding="utf-8")


# -- 3: MMR oracle equivalence -------------------------------------------------------

@report(3, "MMR oracle equivalence")
def test_criterion_3_mmr_oracle_equivalence():
    rng = random.Random(20240819)
    lambdas = (0.0, 0.3, 0.5, 0.7, 1.0)
    for trial in range(1000):
        n = rng.randint(1, 8)
        dim = rng.randint(1, 8)
        k = rng.randint(1, min(4, n))
        lam = lambdas[trial % len(lambdas)]
        raw = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        got = mmr_select([EmbeddingVector(values=tuple(r)) for r in raw],
                         EmbeddingVector(values=tuple(query)), k, lam)
        assert list(got.selected) == oracle_mmr(raw, query, k, lam), f"trial {trial}"

    cands = [EmbeddingVector(values=v) for v in ((1.0, 0.0), (0.8, 0.6), (1.0, 0.0))]
    query = EmbeddingVector(values=(1.0, 0.0))
    selection = mmr_select(cands, query, 2, 0.7)
    assert selection.selected == (0, 2)
    filtered = near_duplicate_filter(cands, selection, 0.95)
    assert filtered.selected == (0, 1)


# -- 4: determinism under concurrency ----------------------------------------------------

@report(4, "determinism under concurrency")
def test_criterion_4_determinism_under_concurrency(tmp_path):
    config = sft_config([8, 4, 2, 2], dedup_threshold=1.01)
    nodes, exports = [], []
    for workers in (1, 4, 16):
        start = time.monotonic()
        directory = tmp_path / f"w{workers}"
        tree, _ = mock_run(config, directory, workers=workers)
        assert time.monotonic() - start < 60.0
        nodes.append((directory / NODES_FILE).read_bytes())
        out = directory / "corpus.json"
        export_sharegpt(build_corpus(tree), out)
        exports.append(out.read_bytes())
    assert nodes[0] == nodes[1] == nodes[2]
    assert exports[0] == exports[1] == exports[2]


# -- 5: crash/resume equivalence -----------------------------------------------------------

@report(5, "crash/resume equivalence")
def test_criterion_5_crash_resume_equivalence(tmp_path):
    for label, branching in (("balance", [8, 4, 2, 2]), ("wide", [8, 1, 1, 1])):
        config = sft_config(branching, dedup_threshold=1.01)
        base_dir = tmp_path / f"{label}-base"
        tree, _ = mock_run(config, base_dir)
        baseline_nodes = (base_dir / NODES_FILE).read_bytes()
        baseline_export = base_dir / "corpus.json"
        export_sharegpt(build_corpus(tree), baseline_export)
        total = len(tree.nodes) - 1

        for fraction in (0.25, 0.5, 0.75):
            directory = tmp_path / f"{label}-{fraction}"
            store = AbortingStore(directory, abort_after_nodes=int(total * fraction))
            with pytest.raises(InjectedCrash):
                TreeRunner(config, MockTextBackend(), MockEmbedder(), store,
                           workers=4).run()
            assert baseline_nodes.startswith((directory / NODES_FILE).read_bytes())
            resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                                 CheckpointStore(directory), workers=4).run()
            assert (directory / NODES_FILE).read_bytes() == baseline_nodes
            out = directory / "corpus.json"
            export_sharegpt(build_corpus(resumed), out)
            assert out.read_bytes() == baseline_export.read_bytes()


# -- 6: scheduling semantics ------------------------------------------------------------------

@report(6, "scheduling semantics")
def test_criterion_6_scheduling_semantics(tmp_path):
    # (a) balance layers are barriers
    config = sft_config([4, 2, 2, 2], dedup_threshold=1.01)
    backend = CountingBackend(latency_ms=3,
                              seed_to_layer=expected_seed_layer_map(config))
    TreeRunner(config, backend, MockEmbedder(),
               CheckpointStore(tmp_path / "barrier"), workers=8).run()
    by_layer: dict[int, list] = {}
    for call in backend.calls:
        by_layer.setdefault(call["layer"], []).append(call)
    for layer in range(1, config.depth):
        assert max(c["end"] for c in by_layer[layer]) <= \
            min(c["start"] for c in by_layer[layer + 1])

    # (b) in-flight calls never exceed the worker budget
    config_b = sft_config([8, 2, 2, 1], dedup_threshold=1.01)
    counting = CountingBackend(latency_ms=4)
    TreeRunner(config_b, counting, MockEmbedder(),
               CheckpointStore(tmp_path / "bound"), workers=4).run()
    assert counting.max_in_flight <= 4
    assert counting.max_in_flight >= 2

    # (c) wide beats an equal-leaf-count balance tree at workers=8, ~50 ms/call
    wide = sft_config([8, 1, 1, 1, 1, 1, 1, 1], dedup_threshold=1.01)
    balance = sft_config([2, 2, 2, 1, 1, 1, 1, 1], dedup_threshold=1.01)
    assert expected_leaf_count(wide) == expected_leaf_count(balance)

    def timed(config, directory):
        start = time.monotonic()
        mock_run(config, directory, workers=8,
                 backend=OptionMock(latency_ms=50, latency_jitter=0.8))
        return time.monotonic() - start

    wide_elapsed = timed(wide, tmp_path / "wide")
    balance_elapsed = timed(balance, tmp_path / "balance")
    assert wide_elapsed < balance_elapsed


# -- 7: G-turn distribution --------------------------------------------------------------------

@report(7, "G-turn distribution")
def test_criterion_7_gturn_distribution(tmp_path):
    config = sft_config([64, 24, 1, 3, 1, 1, 1, 1], q_tokens=10, a_tokens=12,
                        a_step=2, dedup_threshold=1.01)
    tree, _ = mock_run(config, tmp_path / "gturn", workers=8)
    policy = gaussian_turn_policy(sample_seed=17)
    records = build_corpus(tree, policy)
    assert len(records) >= 10_000
    histogram: dict[int, int] = {}
    for record in records:
        histogram[record.turn_count] = histogram.get(record.turn_count, 0) + 1
    weights = dict(policy.weights)
    for t, weight in weights.items():
        observed = histogram.get(t, 0) / len(records)
        assert abs(observed - weight) <= 0.02, (t, observed, weight)
    # the preset itself matches the hand computation
    assert weights[1] == pytest.approx(0.1345, abs=5e-5)
    assert weights[2] == pytest.approx(0.3655, abs=5e-5)


# -- 8: dedup efficacy --------------------------------------------------------------------------

@report(8, "dedup efficacy")
def test_criterion_8_dedup_efficacy(tmp_path):
    def run_with_tau(tau, directory):
        # tiny vocabulary + short texts force exact duplicate candidates
        config = sft_config([6, 4], q_tokens=2, a_tokens=2, seed=13,
                            dedup_threshold=tau)
        backend = OptionMock(vocab_size=3)
        tree, _ = mock_run(config, directory, backend=backend)
        return tree

    deduped = run_with_tau(0.95, tmp_path / "dedup")
    undeduped = run_with_tau(1.01, tmp_path / "raw")
    embedder = MockEmbedder()

    def mean_pairwise(tree):
        texts = ["\n".join(n.text for n in path) for path in tree.leaf_paths()]
        vectors = embedder.embed(texts)
        sims = [reference_cosine(a, b) for i, a in enumerate(vectors)
                for b in vectors[i + 1:]]
        return sum(sims) / len(sims)

    assert mean_pairwise(deduped) <= mean_pairwise(undeduped)

    # no sibling pair in the deduped tree reaches the threshold
    for node in deduped.nodes.values():
        siblings = [deduped.nodes[cid].text for cid in node.children]
        vectors = embedder.embed(siblings) if siblings else []
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert reference_cosine(vectors[i], vectors[j]) < 0.95

    # and the filter actually did something in this construction
    assert len(deduped.leaf_paths()) < len(undeduped.leaf_paths())


# -- 9: format conformance -------------------------------------------------------------------------

@report(9, "format conformance")
def test_criterion_9_format_conformance(tmp_path):
    config = sft_config([4, 2, 2, 2], dedup_threshold=1.01)
    tree, _ = mock_run(config, tmp_path / "fmt")
    out = tmp_path / "corpus.json"
    export_sharegpt(build_corpus(tree), out)

    records = validate_sharegpt_file(out)  # re-parses and re-checks alternation
    assert len(records) == 32

    payload = json.loads(out.read_text(encoding="utf-8"))
    for element in payload:
        assert set(element.keys()) == {"id", "conversations"}
        for turn in element["conversations"]:
            assert set(turn.keys()) == {"from", "value"}
            assert turn["from"] in ("human", "gpt")
