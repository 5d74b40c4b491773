"""MMR selection against an independent brute-force oracle and, bit for bit,
against the exact per-pair reference algorithm."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treegen import dedup, scheduler
from treegen.backends import (EmbeddingVector, GenerationRequest, MockEmbedder,
                              MockTextBackend)
from treegen.dedup import PoolSimilarity, mmr_select, near_duplicate_filter
from treegen.errors import ConfigError
from treegen.scheduler import CheckpointStore, TreeRunner, expand_parent
from treegen.templates import get_template
from treegen.tree import Tree

from conftest import OptionMock, reference_cosine, sft_config

REPO = Path(__file__).resolve().parent.parent


def vec(*values: float) -> EmbeddingVector:
    return EmbeddingVector(values=tuple(float(v) for v in values))


# --- independent oracle (no shared helpers with the implementation) -----------

def _oracle_cos(u, v):
    du = math.sqrt(sum(x * x for x in u))
    dv = math.sqrt(sum(x * x for x in v))
    if du == 0.0 or dv == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(u, v)) / (du * dv)


def oracle_mmr(cands: list[list[float]], query: list[float], k: int, lam: float):
    """Naive greedy MMR, recomputing everything each step; ties -> lowest index."""
    chosen: list[int] = []
    while len(chosen) < k:
        best, best_score = None, None
        for i in range(len(cands)):
            if i in chosen:
                continue
            rel = _oracle_cos(cands[i], query)
            if not chosen:
                score = rel
            else:
                score = lam * rel - (1 - lam) * max(
                    _oracle_cos(cands[i], cands[j]) for j in chosen)
            if best is None or score > best_score:
                best, best_score = i, score
        chosen.append(best)
    return chosen


# --- cosine ---------------------------------------------------------------------

def pair_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """``a``'s cosine to ``b`` through both of ``PoolSimilarity``'s paths, the
    relevance to a query and the row between candidates, which must agree
    bit for bit."""
    similarity = PoolSimilarity(b)
    similarity.extend([a, b])
    [sim] = similarity.row(0, [1])
    assert sim.hex() == similarity.relevance[0].hex()
    return sim


def test_cosine_identity():
    assert pair_similarity(vec(1, 0), vec(1, 0)) == 1.0


def test_cosine_orthogonal():
    assert pair_similarity(vec(1, 0), vec(0, 1)) == 0.0


def test_cosine_unit_pair():
    assert pair_similarity(vec(1, 0), vec(0.8, 0.6)) == pytest.approx(0.8)


def test_cosine_zero_vector_defined_as_zero():
    assert pair_similarity(vec(0, 0), vec(1, 1)) == 0.0
    assert pair_similarity(vec(1, 1), vec(0, 0)) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError, match=r"the query has 2, its pool has \[3\]"):
        PoolSimilarity(vec(1, 0)).extend([vec(1, 0, 0)])


def test_cosine_symmetry_and_range():
    rng = random.Random(11)
    for _ in range(200):
        a = vec(*(rng.uniform(-1, 1) for _ in range(4)))
        b = vec(*(rng.uniform(-1, 1) for _ in range(4)))
        s = pair_similarity(a, b)
        assert s == pair_similarity(b, a)
        assert s.hex() == reference_cosine(a, b).hex()
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


# --- mmr_select: hand example and basic rules ----------------------------------------

HAND_QUERY = vec(1, 0)
HAND_CANDS = [vec(1, 0), vec(0.8, 0.6), vec(1, 0)]


def test_k1_returns_argmax_relevance():
    for lam in (0.0, 0.3, 1.0):
        sel = mmr_select(HAND_CANDS, HAND_QUERY, 1, lam)
        assert sel.selected == (0,)  # tie with index 2 breaks low


def test_hand_example_selection_and_scores():
    sel = mmr_select(HAND_CANDS, HAND_QUERY, 2, 0.7)
    assert sel.selected == (0, 2)
    assert sel.scores[0] == pytest.approx(1.0)
    assert sel.scores[1] == pytest.approx(0.40)  # 0.7*1 - 0.3*1
    # the unselected candidate's standing score: 0.7*0.8 - 0.3*0.8 = 0.32
    assert sel.pool_scores[1] == pytest.approx(0.32)


def test_hand_example_filter_backfills():
    sel = mmr_select(HAND_CANDS, HAND_QUERY, 2, 0.7)
    filtered = near_duplicate_filter(HAND_CANDS, sel, 0.95)
    assert filtered.selected == (0, 1)
    assert 2 in filtered.dropped_as_duplicates


def test_k_larger_than_pool_rejected():
    with pytest.raises(ConfigError):
        mmr_select(HAND_CANDS, HAND_QUERY, 4, 0.5)


def test_lambda_one_is_topk_by_relevance():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 8)
        dim = rng.randint(2, 6)
        cands = [vec(*(rng.uniform(-1, 1) for _ in range(dim))) for _ in range(n)]
        query = vec(*(rng.uniform(-1, 1) for _ in range(dim)))
        k = rng.randint(1, n)
        rel = [reference_cosine(c, query) for c in cands]
        expect = sorted(range(n), key=lambda i: (-rel[i], i))[:k]
        assert list(mmr_select(cands, query, k, 1.0).selected) == expect


# --- oracle equivalence harness ----------------------------------------------------------

def test_oracle_equivalence_1000_instances():
    rng = random.Random(1234)
    lambdas = (0.0, 0.3, 0.5, 0.7, 1.0)
    for trial in range(1000):
        n = rng.randint(1, 8)
        dim = rng.randint(1, 8)
        k = rng.randint(1, min(4, n))
        lam = lambdas[trial % len(lambdas)]
        raw = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        got = mmr_select([vec(*r) for r in raw], vec(*query), k, lam)
        want = oracle_mmr(raw, query, k, lam)
        assert list(got.selected) == want, f"trial {trial}: {got.selected} != {want}"


def test_padding_invariance():
    # appending candidates that are never picked must not change the selection
    rng = random.Random(99)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        dim = 4
        cands = [vec(*(rng.uniform(0, 1) for _ in range(dim))) for _ in range(n)]
        query = vec(*(rng.uniform(0, 1) for _ in range(dim)))
        k = rng.randint(1, n)
        lam = rng.choice((0.3, 0.5, 0.7))
        base = mmr_select(cands, query, k, lam)
        padded_pool = cands + [cands[base.selected[0]]] * 3  # clones of the first pick
        padded = mmr_select(padded_pool, query, k, lam)
        if any(i >= n for i in padded.selected):
            continue  # padding got picked; instance not usable for this property
        assert padded.selected == base.selected
        checked += 1
    assert checked >= 250


# --- near_duplicate_filter -----------------------------------------------------------------

def test_threshold_above_one_disables_filter():
    sel = mmr_select(HAND_CANDS, HAND_QUERY, 2, 0.7)
    assert near_duplicate_filter(HAND_CANDS, sel, 1.01) is sel


def test_identical_pool_keeps_one():
    cands = [vec(1, 1), vec(1, 1), vec(1, 1)]
    sel = mmr_select(cands, vec(1, 0), 3, 0.5)
    filtered = near_duplicate_filter(cands, sel, 0.95)
    assert len(filtered.selected) == 1
    assert len(filtered.dropped_as_duplicates) == 2


def test_filtered_output_has_no_near_duplicate_pair():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10)
        base = [rng.uniform(0, 1) for _ in range(3)]
        cands = []
        for _ in range(n):
            if rng.random() < 0.4:  # inject near-duplicates of the base point
                cands.append(vec(*(b + rng.uniform(-1e-4, 1e-4) for b in base)))
            else:
                cands.append(vec(*(rng.uniform(0, 1) for _ in range(3))))
        query = vec(*(rng.uniform(0, 1) for _ in range(3)))
        k = rng.randint(1, n)
        threshold = rng.choice((0.9, 0.95, 0.99))
        filtered = near_duplicate_filter(cands, mmr_select(cands, query, k, 0.5), threshold)
        kept = list(filtered.selected)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert reference_cosine(cands[kept[i]], cands[kept[j]]) < threshold


def test_filter_backfill_respects_score_order():
    # three far-apart candidates plus a duplicate of the top pick; after the
    # duplicate is dropped, the better-scoring leftover must backfill first
    cands = [vec(1, 0), vec(1, 0), vec(0.9, 0.4359), vec(0.2, 0.98)]
    sel = mmr_select(cands, vec(1, 0), 2, 0.9)
    assert sel.selected == (0, 1)  # the duplicate wins step 2 on relevance
    filtered = near_duplicate_filter(cands, sel, 0.95)
    assert filtered.selected[0] == 0
    assert filtered.selected[1] == 2  # higher pool score than index 3


# --- exact reference: the per-pair algorithm, one cosine call per pair use ----------------

def reference_mmr_select(candidates, query, k, lam):
    """Returns (selected, scores, pool_scores), recomputing every cosine it uses."""
    relevance = [reference_cosine(c, query) for c in candidates]
    n = len(candidates)
    selected: list[int] = []
    scores: list[float] = []
    max_sim = [float("-inf")] * n
    for step in range(k):
        best_idx, best_score = -1, 0.0
        for i in range(n):
            if i in selected:
                continue
            if step == 0:
                score = relevance[i]
            else:
                score = lam * relevance[i] - (1.0 - lam) * max_sim[i]
            if best_idx == -1 or score > best_score:
                best_idx, best_score = i, score
        selected.append(best_idx)
        scores.append(best_score)
        for i in range(n):
            if i not in selected:
                sim = reference_cosine(candidates[i], candidates[best_idx])
                if sim > max_sim[i]:
                    max_sim[i] = sim
    pool_scores = [scores[selected.index(i)] if i in selected
                   else lam * relevance[i] - (1.0 - lam) * max_sim[i] for i in range(n)]
    return tuple(selected), tuple(scores), tuple(pool_scores)


def reference_near_duplicate_filter(candidates, selected, scores, pool_scores, threshold):
    """Returns (kept, kept_scores, dropped) of the pick-order scan plus backfill;
    ``dropped`` lists the scan's drops in pick order, then the backfill's in
    index order."""
    kept: list[int] = []
    kept_scores: list[float] = []
    dropped: list[int] = []
    backfill_dropped: list[int] = []

    def is_duplicate(idx):
        return any(reference_cosine(candidates[idx], candidates[j]) >= threshold
                   for j in kept)

    for idx, score in zip(selected, scores):
        if is_duplicate(idx):
            dropped.append(idx)
        else:
            kept.append(idx)
            kept_scores.append(score)
    if len(kept) < len(selected):
        backfill = sorted((i for i in range(len(candidates)) if i not in selected),
                          key=lambda i: (-pool_scores[i], i))
        for idx in backfill:
            if len(kept) >= len(selected):
                break
            if is_duplicate(idx):
                backfill_dropped.append(idx)
            else:
                kept.append(idx)
                kept_scores.append(pool_scores[idx])
    return tuple(kept), tuple(kept_scores), tuple(dropped + sorted(backfill_dropped))


def bits(values):
    """Floats as hex strings: equal only if bitwise equal (0.0 vs -0.0 too)."""
    return [float(v).hex() for v in values]


def _gaussian_pool(rng, n):
    dim = rng.randint(1, 12)
    return [[rng.gauss(0, 1) * 10 ** rng.uniform(-4, 4) for _ in range(dim)]
            for _ in range(n + 1)]


def _zero_pool(rng, n):
    dim = rng.randint(1, 6)
    return [[0.0] * dim if rng.random() < 0.3 else
            [rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n + 1)]


def _duplicate_pool(rng, n):
    dim = rng.randint(2, 6)
    distinct = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
    return [list(rng.choice(distinct)) for _ in range(n + 1)]


_MOCK_EMBEDDER = MockEmbedder(dim=16)


def _mock_pool(rng, n):
    seed = rng.randrange(2**32)
    tokens = rng.randint(1, 24)
    request = GenerationRequest(prompt="p", max_tokens=tokens, temperature=1.0,
                                n_samples=n + 1, stop=(), request_seed=seed)
    completions = MockTextBackend().generate(request).completions
    return [list(_MOCK_EMBEDDER.embed_one(c.text).values) for c in completions]


def _sign_pool(rng, n):
    return [[rng.choice((-1 / 32, 1 / 32)) for _ in range(1024)] for _ in range(n + 1)]


POOL_KINDS = {"gaussian": (_gaussian_pool, 12), "zero": (_zero_pool, 10),
              "duplicate": (_duplicate_pool, 10), "mock-d16": (_mock_pool, 12),
              "sign-d1024": (_sign_pool, 8)}


@pytest.mark.parametrize("kind", sorted(POOL_KINDS))
def test_selection_equals_per_pair_reference_bitwise(kind):
    make_pool, max_n = POOL_KINDS[kind]
    rng = random.Random(f"selection-{kind}")
    drops = backfills = ties = 0
    for trial in range(110):
        n = rng.randint(1, max_n)
        raw = make_pool(rng, n)
        pool = [EmbeddingVector(values=tuple(r)) for r in raw[:n]]
        query = EmbeddingVector(values=tuple(raw[n]))
        k = rng.randint(1, n)
        lam = rng.choice((0.0, 0.25, 0.5, 0.7, 1.0))
        cutoffs = [c for a in range(n) for b in range(a + 1, n)
                   if 0.0 < (c := reference_cosine(pool[a], pool[b])) <= 1.0]
        if trial % 3 == 0 and cutoffs:
            threshold = rng.choice(cutoffs)  # a pair exactly at the cutoff
            ties += 1
        else:
            threshold = rng.choice((0.3, 0.9, 0.95, 0.99, 1.0, 1.01))

        got = mmr_select(pool, query, k, lam)
        want = reference_mmr_select(pool, query, k, lam)
        assert got.selected == want[0], f"trial {trial}"
        assert bits(got.scores) == bits(want[1]), f"trial {trial}"
        assert bits(got.pool_scores) == bits(want[2]), f"trial {trial}"

        filtered = near_duplicate_filter(pool, got, threshold)
        if threshold > 1.0:
            assert filtered is got
        else:
            kept, kept_scores, dropped = reference_near_duplicate_filter(
                pool, *want, threshold)
            assert filtered.selected == kept, f"trial {trial}"
            assert bits(filtered.scores) == bits(kept_scores), f"trial {trial}"
            assert filtered.dropped_as_duplicates == dropped, f"trial {trial}"
            assert bits(filtered.pool_scores) == bits(want[2]), f"trial {trial}"
            drops += bool(dropped)
            backfills += bool(set(kept) - set(want[0]))

        similarity = got.similarity
        for a in range(n):
            want_row = [reference_cosine(pool[a], pool[b]) for b in range(n)]
            assert bits(similarity.row(a, range(n))) == bits(want_row), f"trial {trial}"
            want_relevance = reference_cosine(pool[a], query)
            assert similarity.relevance[a].hex() == want_relevance.hex(), f"trial {trial}"
    if kind in ("duplicate", "mock-d16"):
        assert drops >= 10 and backfills >= 3, (drops, backfills)
    assert ties > 10


def test_filtering_a_filtered_selection_equals_reference():
    # the second filter backfills from every candidate outside the filtered
    # selection, MMR picks it dropped included, by their pool scores; a
    # candidate both filters drop is listed once
    rng = random.Random("filter-twice")
    backfills = relisted = 0
    for trial in range(200):
        n = rng.randint(2, 10)
        pool = [vec(*(rng.uniform(0, 1) for _ in range(3))) for _ in range(n)]
        query = vec(*(rng.uniform(0, 1) for _ in range(3)))
        k = rng.randint(1, n)
        want = reference_mmr_select(pool, query, k, 0.5)
        first = near_duplicate_filter(pool, mmr_select(pool, query, k, 0.5), 0.99)
        kept, kept_scores, _ = reference_near_duplicate_filter(pool, *want, 0.99)
        second = near_duplicate_filter(pool, first, 0.9)
        again = reference_near_duplicate_filter(pool, kept, kept_scores, want[2], 0.9)
        assert (second.selected, bits(second.scores)) == (again[0], bits(again[1])), trial
        listed = first.dropped_as_duplicates
        assert second.dropped_as_duplicates == listed + tuple(
            i for i in again[2] if i not in listed), trial
        backfills += bool(set(again[0]) - set(kept))
        relisted += bool(set(again[2]) & set(listed))
    assert backfills >= 10 and relisted >= 10, (backfills, relisted)


def test_scheduler_filter_equals_reference_on_a_shortfall_tree(monkeypatch, tmp_path):
    # long answers embedded at d=16 are near-duplicates, so most expansions
    # drop, backfill and fall short; every filter the scheduler runs must
    # match the reference walk over all candidates
    real_filter = scheduler.near_duplicate_filter
    calls = backfills = drops = 0

    def checked_filter(candidates, selection, threshold):
        nonlocal calls, backfills, drops
        filtered = real_filter(candidates, selection, threshold)
        kept, kept_scores, dropped = reference_near_duplicate_filter(
            candidates, selection.selected, selection.scores, selection.pool_scores, threshold)
        assert filtered.selected == kept
        assert bits(filtered.scores) == bits(kept_scores)
        assert filtered.dropped_as_duplicates == dropped
        calls += 1
        backfills += bool(set(kept) - set(selection.selected))
        drops += len(dropped)
        return filtered

    monkeypatch.setattr(scheduler, "near_duplicate_filter", checked_filter)
    config = sft_config([4, 4, 3, 3], q_tokens=32, a_tokens=256, a_step=256,
                        template_id="llama2-chat")
    tree = TreeRunner(config, MockTextBackend(), MockEmbedder(dim=16),
                      CheckpointStore(tmp_path), workers=2).run()
    assert tree.non_root_count() < 4 + 16 + 48 + 144  # shortfalls
    assert calls > 20 and backfills > 5 and drops > 100, (calls, backfills, drops)


def test_mixed_dimension_pool_or_query_raises():
    with pytest.raises(ValueError):
        mmr_select([vec(1, 0), vec(1, 0, 0)], vec(1, 0), 1, 0.5)
    with pytest.raises(ValueError):
        mmr_select([vec(1, 0), vec(0, 1)], vec(1, 0, 0), 1, 0.5)
    mixed = [vec(1, 0), vec(1, 0, 0)]
    other_pool = mmr_select([vec(1, 0), vec(0, 1)], vec(1, 0), 1, 0.5)
    with pytest.raises(ValueError):
        near_duplicate_filter(mixed, other_pool, 0.95)


def test_overflowing_squared_norm_raises():
    # 1e200 is finite, its square is not; such a cosine would be nan
    with pytest.raises(ValueError, match="not finite"):
        mmr_select([vec(1e200, 0), vec(0, 1)], vec(1, 0), 1, 0.5)
    with pytest.raises(ValueError, match="not finite"):
        mmr_select([vec(1, 0), vec(0, 1)], vec(0, -1e200), 1, 0.5)


def test_filter_rejects_a_selection_over_another_pool():
    # the filter reads the selection's own similarities and never computes
    # them afresh for other vectors, even equal ones
    orthogonal = [vec(1, 0), vec(0, 1)]
    selection = mmr_select(orthogonal, vec(1, 1), 2, 0.5)
    for other in ([vec(1, 1), vec(1, 1)], [vec(1, 0), vec(0, 1)], orthogonal[:1],
                  orthogonal + [vec(1, 1)]):
        with pytest.raises(ValueError):
            near_duplicate_filter(other, selection, 0.95)
    assert near_duplicate_filter(list(orthogonal), selection, 0.95).selected == (0, 1)


def sequential_dot(a, b) -> float:
    """A dot product as one sequential sum, independently of ``dedup``."""
    dot = 0.0
    for x, y in zip(a, b):
        dot += x * y
    return dot


def count_pairs(monkeypatch) -> list[frozenset]:
    """Record the pair of value tuples behind every dot product, each of
    which is checked bit for bit against ``sequential_dot``."""
    pairs: list[frozenset] = []
    real_dots = dedup._dots

    def counting_dots(a, rows):
        pairs.extend(frozenset((id(a), id(b))) for b in rows)
        dots = real_dots(a, rows)
        assert bits(dots) == bits(sequential_dot(a, b) for b in rows)
        return dots

    monkeypatch.setattr(dedup, "_dots", counting_dots)
    return pairs


@pytest.mark.parametrize("n, k", [(1, 1), (6, 3), (9, 9), (16, 5)])
def test_each_pair_computed_at_most_once(monkeypatch, n, k):
    pairs = count_pairs(monkeypatch)
    rng = random.Random(n * 100 + k)
    pool = [vec(*(rng.gauss(0, 1) for _ in range(5))) for _ in range(n)]
    query = vec(*(rng.gauss(0, 1) for _ in range(5)))
    selection = mmr_select(pool, query, k, 0.5)
    filtered = near_duplicate_filter(pool, selection, 1.0)
    assert filtered.selected == selection.selected  # no drops, so no backfill
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= n + n * k - k * (k - 1) // 2

    # with drops and backfill, pairs stay unique across both calls
    pairs.clear()
    dup_pool = [vec(1, 1), vec(1, 1.0000001), vec(0, 1), vec(1, 0), vec(1, 1e-9)]
    selection = mmr_select(dup_pool, vec(1, 1), 3, 0.9)
    filtered = near_duplicate_filter(dup_pool, selection, 0.95)
    assert set(filtered.selected) - set(selection.selected)  # backfilled
    assert len(pairs) == len(set(pairs))

    # and across both attempts of one retried expansion: the retry's grown
    # pool reuses every pair of the first attempt
    pairs.clear()
    config = sft_config([4, 2], dedup_threshold=0.95)
    result = expand_parent(Tree(config).root, [], 1, config, get_template("plain"),
                           OptionMock(fixed_text="always the same words"),
                           MockEmbedder())
    assert result.retried and result.dedup_drops > 0
    assert len(pairs) == len(set(pairs)) > 0


def test_backfill_computes_no_pair_for_candidates_the_first_pick_blocks(monkeypatch):
    # every unselected candidate near-duplicates the first pick, whose row
    # the greedy computed: the backfill drops them all without a pair
    # against another pick, which scoring them would take
    pool = [vec(1, 0.9, 0), vec(0.2, 1, 0), *(vec(1, 0.9, e) for e in (0.01, 0.02, 0.03, 0.04))]
    selection = mmr_select(pool, vec(1, 1, 0), 3, 0.5)
    assert selection.selected == (0, 1, 5)
    pairs = count_pairs(monkeypatch)
    filtered = near_duplicate_filter(pool, selection, 0.99)
    assert filtered.selected == (0, 1)
    assert filtered.dropped_as_duplicates == (5, 2, 3, 4)  # the scan's, then by index
    later_picks = {id(pool[i].values) for i in selection.selected[1:]}
    assert not [pair for pair in pairs if pair & later_picks]


@pytest.mark.parametrize("dim", [0, 1, 5, 16])
def test_dots_equals_dot_bitwise(dim):
    rng = random.Random(f"dots-{dim}")
    for count in range(10):  # every remainder of 4, twice
        a = [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3) for _ in range(dim)]
        rows = [[0.0] * dim if rng.random() < 0.25 else
                [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3) for _ in range(dim)]
                for _ in range(count)]
        want = [sequential_dot(a, b) for b in rows]
        assert bits(dedup._dots(a, rows)) == bits(want)
        assert bits(dedup._dots([0.0] * dim, rows)) == bits([0.0] * count)


def test_lazy_selection_computes_fewer_pairs_than_eager(monkeypatch):
    # the eager greedy computes n relevance pairs and n pairs per pick
    pairs = count_pairs(monkeypatch)
    rng = random.Random("lazy-sign-d1024")
    computed = eager = 0
    for _ in range(6):
        n = 32
        raw = _sign_pool(rng, n)
        pool = [EmbeddingVector(values=tuple(r)) for r in raw[:n]]
        query = EmbeddingVector(values=tuple(raw[n]))
        pairs.clear()
        selection = mmr_select(pool, query, 16, 0.5)
        near_duplicate_filter(pool, selection, 0.95)
        computed += len(pairs)
        eager += n + n * 16
    assert computed < 0.6 * eager, (computed, eager)


def test_import_does_not_load_numpy():
    """The package and its CLI stay on the standard library alone.

    numpy was measured as the alternative for the selection path: importing
    numpy 2.4 alone costs 13.7 MB of RSS and 0.15 s of start-up on Python 3.11,
    and a BLAS Gram matrix differs from sequential sums in the last bit, which
    would change ``nodes.jsonl``. The HTTP backends speak ``http.client``:
    ``requests`` with urllib3, idna, charset_normalizer and certifi cost 145 ms
    and 7.6 MB of every start-up, and 2.1 ms of client CPU per call against
    0.52 ms.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, treegen, treegen.cli; "
             "print([m for m in ('numpy', 'requests', 'urllib3') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []
