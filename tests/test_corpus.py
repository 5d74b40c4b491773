"""Corpus building, turn policies, and export formats."""

from __future__ import annotations

import json
import math
import random

import pytest

from treegen.corpus import (ConversationRecord, TurnPolicy, _mixture_quotas, build_corpus,
                            export_jsonl, export_pt, export_sharegpt,
                            gaussian_turn_policy, sample_to_size, validate_sharegpt_file)
from treegen.errors import ConfigError
from treegen.templates import LLAMA2_CHAT
from treegen.tree import Tree, TreeNode, child_id

from conftest import build_full_tree, pt_config, sft_config


# --- gaussian preset -----------------------------------------------------------

def test_gaussian_weights_match_hand_computation():
    weights = dict(gaussian_turn_policy().weights)
    raw = {t: math.exp(-((t - 2.5) ** 2) / 2) for t in (1, 2, 3, 4)}
    total = sum(raw.values())
    for t in (1, 2, 3, 4):
        assert weights[t] == pytest.approx(raw[t] / total)
    assert weights[1] == pytest.approx(0.1345, abs=5e-5)
    assert weights[2] == pytest.approx(0.3655, abs=5e-5)
    assert sum(weights.values()) == pytest.approx(1.0)


# --- fixed-k corpora ---------------------------------------------------------------

def test_full_depth_records_one_per_leaf():
    tree = build_full_tree(sft_config([4, 2, 2, 2]))
    records = build_corpus(tree)
    assert len(records) == 32
    assert all(r.turn_count == 2 for r in records)
    assert all(len(r.turns) == 4 for r in records)


def test_truncated_prefixes_deduplicated():
    tree = build_full_tree(sft_config([4, 2, 2, 2]))
    records = build_corpus(tree, TurnPolicy.fixed(1))
    assert len(records) == 8  # distinct depth-2 ancestors: 4 * 2
    assert all(r.turn_count == 1 for r in records)
    assert len({r.id for r in records}) == len(records)


def test_fixed_k_beyond_depth_rejected():
    tree = build_full_tree(sft_config([2, 2]))
    with pytest.raises(ConfigError):
        build_corpus(tree, TurnPolicy.fixed(2 + 1))


def test_pt_tree_rejected():
    tree = build_full_tree(pt_config([2, 2]))
    with pytest.raises(ConfigError, match="build_corpus needs an SFT tree"):
        build_corpus(tree)


def test_incomplete_tree_needs_permissive():
    config = sft_config([2, 2])
    tree = Tree(config)
    with pytest.raises(ConfigError, match="expansion is not finished"):
        build_corpus(tree)
    assert build_corpus(tree, permissive=True) == []


def test_turns_alternate_human_gpt(tmp_path):
    tree = build_full_tree(sft_config([2, 2, 2, 2]))
    out = export_sharegpt(build_corpus(tree), tmp_path / "corpus.json")
    for element in json.loads(out.read_text(encoding="utf-8")):
        roles = [turn["from"] for turn in element["conversations"]]
        assert roles == ["human", "gpt", "human", "gpt"]


@pytest.mark.parametrize("turns", [(), ("q",), ("q", "a", "q2")])
def test_record_of_zero_or_odd_turns_cannot_be_constructed(turns):
    with pytest.raises(ConfigError, match="complete pairs"):
        ConversationRecord(id="x:1", system="", turns=turns)


# --- fixed:K is the one-stratum mixture {K: 1.0} ---------------------------------------

def reference_fixed(tree: Tree, k: int) -> list[ConversationRecord]:
    """The fixed-K corpus as its own code path built it: the nodes of layer 2K
    in structural order, each with its path texts."""
    return [ConversationRecord(f"{node}:{k}", tree.config.system_prompt,
                               tuple(n.text for n in tree.path_nodes(node)))
            for node in tree.layer_ids(2 * k)]


def partial_tree_with_shortfalls(seed: int) -> Tree:
    """A [4, 3, 2, 2, 2, 2] tree whose parents below the root keep a random
    number of children (zero included), with a third of layer 4 unexpanded,
    so its permissive export ends at layer 4."""
    config = sft_config([4, 3, 2, 2, 2, 2])
    rng = random.Random(seed)
    tree = Tree(config)
    frontier = ["root"]
    for layer_index, layer in enumerate(config.layers[:4], start=1):
        next_frontier = []
        for pid in frontier:
            kept = layer.branching if pid == "root" else rng.randint(0, layer.branching)
            children = [TreeNode(id=child_id(pid, rank), parent_id=pid, layer=layer_index,
                                 role=layer.role, text=f"{layer.role.value}-{pid}-{rank}",
                                 token_count=2)
                        for rank in range(kept)]
            tree.add_children(pid, children)
            next_frontier.extend(c.id for c in children)
        frontier = next_frontier
    for pid in frontier[::3]:  # layer 4: the rest stay unexpanded
        tree.add_children(pid, [])
    assert sum(tree.shortfalls.values()) > 0 and tree.export_depth(permissive=True) == 4
    return tree


FIXED_TREES = {
    "full-4x2x2x2": lambda: build_full_tree(sft_config([4, 2, 2, 2])),
    "full-3x1x2x2x1x3": lambda: build_full_tree(sft_config([3, 1, 2, 2, 1, 3])),
    "partial-seed-0": lambda: partial_tree_with_shortfalls(0),
    "partial-seed-5": lambda: partial_tree_with_shortfalls(5),
}


@pytest.mark.parametrize("shape", list(FIXED_TREES))
def test_fixed_k_equals_the_reference_for_every_k_and_seed(shape):
    tree = FIXED_TREES[shape]()
    max_turns = tree.export_depth(permissive=True) // 2
    assert max_turns >= 2
    for k in range(1, max_turns + 1):
        expected = reference_fixed(tree, k)
        assert expected
        assert build_corpus(tree, TurnPolicy.fixed(k), permissive=True) == expected
        for seed in (0, 1, 7, 2024):
            policy = TurnPolicy.mixture({k: 1.0}, sample_seed=seed)
            assert build_corpus(tree, policy, permissive=True) == expected
    assert build_corpus(tree, permissive=True) == reference_fixed(tree, max_turns)


# --- mixture corpora -----------------------------------------------------------------

def test_mixture_targets_weights_exactly_when_feasible():
    tree = build_full_tree(sft_config([6, 4, 1, 2, 1, 1, 1, 1]))
    policy = gaussian_turn_policy(sample_seed=5)
    records = build_corpus(tree, policy)
    weights = dict(policy.weights)
    histogram = {}
    for r in records:
        histogram[r.turn_count] = histogram.get(r.turn_count, 0) + 1
    n = len(records)
    assert n > 100
    for t, w in weights.items():
        assert histogram.get(t, 0) / n == pytest.approx(w, abs=0.02)


def test_mixture_is_deterministic_and_without_replacement():
    tree = build_full_tree(sft_config([6, 4, 1, 2, 1, 1, 1, 1]))
    a = build_corpus(tree, gaussian_turn_policy(sample_seed=9))
    b = build_corpus(tree, gaussian_turn_policy(sample_seed=9))
    c = build_corpus(tree, gaussian_turn_policy(sample_seed=10))
    assert [r.id for r in a] == [r.id for r in b]
    assert [r.id for r in a] != [r.id for r in c]
    assert len({r.id for r in a}) == len(a)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        TurnPolicy.mixture({1: 0.5, 2: 0.4})


def test_mixture_weights_must_not_be_negative():
    with pytest.raises(ConfigError, match=">= 0"):
        TurnPolicy.mixture({1: 1.5, 2: -0.5})


def test_mixture_rejects_turns_beyond_depth():
    tree = build_full_tree(sft_config([2, 2]))
    with pytest.raises(ConfigError):
        build_corpus(tree, TurnPolicy.mixture({1: 0.5, 2: 0.5}))


@pytest.mark.parametrize("weights, available, quotas", [
    # 0.1 * 30 is 3.0000000000000004: stratum 1 is full with a positive remainder
    ({1: 0.1, 2: 0.45, 3: 0.45}, {1: 3, 2: 100, 3: 100}, {1: 3, 2: 14, 3: 13}),
    ({1: 0.25, 2: 0.75}, {1: 0, 2: 9}, {1: 0, 2: 0}),
    ({1: 0.0, 2: 1.0}, {1: 0, 2: 5}, {2: 5}),
])
def test_mixture_quotas_by_hand(weights, available, quotas):
    assert _mixture_quotas(weights, available) == quotas


def test_mixture_quotas_never_exceed_availability():
    rng = random.Random(20240617)
    for _ in range(3000):
        strata = rng.randint(1, 6)
        raw = [rng.choice([0.0, 0.1, rng.random()]) for _ in range(strata)]
        if not sum(raw):
            raw[0] = 1.0
        weights = {t: w / sum(raw) for t, w in enumerate(raw, start=1)}
        assert abs(sum(weights.values()) - 1.0) <= 1e-9
        available = {t: rng.choice([0, 1, 3, rng.randint(0, 500)]) for t in weights}
        quotas = _mixture_quotas(weights, available)
        n = max(0, min(int(available[t] / w) for t, w in weights.items() if w > 0))
        assert sum(quotas.values()) == n
        assert all(0 <= quotas[t] <= available[t] for t in quotas)


# --- sharegpt export --------------------------------------------------------------------

def sample_records():
    tree = build_full_tree(sft_config([3, 2]))
    return build_corpus(tree)


def test_sharegpt_shape_and_field_names(tmp_path):
    records = sample_records()
    out = tmp_path / "corpus.json"
    export_sharegpt(records, out)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(payload, list) and len(payload) == 6
    element = payload[0]
    assert set(element) == {"id", "conversations"}
    assert [set(c) for c in element["conversations"]] == [{"from", "value"}] * 2
    assert [c["from"] for c in element["conversations"]] == ["human", "gpt"]


def test_sharegpt_single_record_shape(tmp_path):
    record = ConversationRecord(
        id="x:1", system="S", turns=("q", "a"))
    out = tmp_path / "one.json"
    export_sharegpt([record], out)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload) == 1
    assert len(payload[0]["conversations"]) == 2


def test_sharegpt_round_trip(tmp_path):
    records = sample_records()
    out = tmp_path / "corpus.json"
    export_sharegpt(records, out)
    reloaded = validate_sharegpt_file(out)
    by_id = {r.id: r for r in records}
    assert len(reloaded) == len(records)
    for clone in reloaded:
        original = by_id[clone.id]
        assert clone.turns == original.turns
        assert clone.turn_count == original.turn_count
    # exporting the re-parsed records reproduces the file byte for byte
    again = tmp_path / "again.json"
    export_sharegpt(reloaded, again)
    assert again.read_bytes() == out.read_bytes()


def test_sharegpt_deterministic_ordering(tmp_path):
    records = sample_records()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    export_sharegpt(records, a)
    export_sharegpt(list(reversed(records)), b)
    assert a.read_bytes() == b.read_bytes()


def test_sharegpt_inline_system_flag(tmp_path):
    records = sample_records()
    out = tmp_path / "inline.json"
    export_sharegpt(records, out, inline_system=True)
    payload = json.loads(out.read_text(encoding="utf-8"))
    first_turn = payload[0]["conversations"][0]["value"]
    assert first_turn.startswith("You are a helpful assistant.\n\n")


def test_jsonl_export_line_count(tmp_path):
    records = sample_records()
    out = tmp_path / "corpus.jsonl"
    export_jsonl(records, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(records)
    assert all(set(json.loads(l)) == {"id", "conversations"} for l in lines)
    assert validate_sharegpt_file(out)[0].turns == sorted(records, key=lambda r: r.id)[0].turns


# --- PT export ---------------------------------------------------------------------------

def test_pt_export_line_per_leaf(tmp_path):
    tree = build_full_tree(pt_config([3, 2]))
    out = tmp_path / "pt.jsonl"
    export_pt(tree, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    for line in lines:
        payload = json.loads(line)
        assert set(payload) == {"text"}
        for marker in LLAMA2_CHAT.markers:
            assert marker not in payload["text"]


def test_pt_export_rejects_sft_tree(tmp_path):
    tree = build_full_tree(sft_config([2, 2]))
    with pytest.raises(ConfigError, match="export_pt needs a PT tree"):
        export_pt(tree, tmp_path / "x.jsonl")


def test_pt_export_excludes_system_prompt(tmp_path):
    tree = build_full_tree(pt_config([2, 1]))
    out = tmp_path / "pt.jsonl"
    export_pt(tree, out)
    for line in out.read_text(encoding="utf-8").splitlines():
        assert "world knowledge" not in json.loads(line)["text"]


# --- sample_to_size ------------------------------------------------------------------------

def test_sample_identity_at_full_size():
    records = sample_records()
    assert sample_to_size(records, len(records), seed=1) == list(records)


def test_sample_deterministic_subset():
    records = sample_records()
    a = sample_to_size(records, 3, seed=42)
    b = sample_to_size(records, 3, seed=42)
    assert a == b
    assert len(a) == 3
    ids = [r.id for r in records]
    assert [ids.index(r.id) for r in a] == sorted(ids.index(r.id) for r in a)
    assert all(r in records for r in a)


def test_sample_rejects_oversized_target():
    records = sample_records()
    with pytest.raises(ConfigError, match="6"):
        sample_to_size(records, 7, seed=1)


def test_sample_rejects_negative_target():
    with pytest.raises(ConfigError, match="target size -1"):
        sample_to_size(sample_records(), -1, seed=1)
