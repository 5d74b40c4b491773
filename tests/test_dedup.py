"""MMR selection against an independent brute-force oracle and, bit for bit,
with the near-duplicate filter, against ``reference.py``'s eager greedy and
walk over all candidates: picks, scores, kept candidates, drops, similarities."""

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
from treegen.tree import ROOT_ID, Tree

import reference
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
    assert sel.pool_score(0) == pytest.approx(1.0)
    assert sel.pool_score(2) == pytest.approx(0.40)  # 0.7*1 - 0.3*1
    # the unselected candidate's standing score: 0.7*0.8 - 0.3*0.8 = 0.32
    assert sel.pool_score(1) == pytest.approx(0.32)


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
    filtered = near_duplicate_filter(HAND_CANDS, sel, 1.01)
    assert filtered.selected == sel.selected == (0, 2)  # the k picks, duplicate included
    assert filtered.dropped_as_duplicates == ()


def test_rounding_lifts_a_cosine_past_one_by_under_1e_14():
    # the bound the docs give for dedup_threshold: a near-identical pair's
    # cosine may read above 1, so a threshold just above 1 can drop an exact
    # duplicate, but 1.01 drops nothing
    for dim in (16, 1024):
        rng = random.Random(f"above-one-{dim}")
        pairs = []
        for t in range(300):  # every other pair an exact duplicate
            v = [rng.gauss(0, 1) for _ in range(dim)]
            pairs.append((v, v if t % 2 else [x * (1 + rng.uniform(-1e-9, 1e-9)) for x in v]))
        sims = [pair_similarity(vec(*w), vec(*v)) for v, w in pairs]
        assert 1.0 < max(sims) < 1.0 + 1e-14 and sum(s > 1.0 for s in sims) >= 50, dim
        duplicate = next(vec(*v) for (v, w), s in zip(pairs, sims) if w is v and s > 1.0)
        for threshold, dropped in ((math.nextafter(1.0, 2.0), (1,)), (1.01, ())):
            selection = mmr_select([duplicate] * 2, duplicate, 2, 0.5)
            filtered = near_duplicate_filter([duplicate] * 2, selection, threshold)
            assert filtered.dropped_as_duplicates == dropped, (dim, threshold)


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


# --- bitwise: the lazy selection and the filter against reference.py --------------------

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
    drops = backfills = ties = stops = 0
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

        want = reference.mmr(raw[:n], raw[n], k, lam)
        if threshold <= 1.0:
            kept, dropped = reference.dedup_filter(raw[:n], want[0], want[2], threshold)
            kept_scores = [want[2][i] for i in kept]
            # filter first: the filter draws only the picks it reads, and
            # the rest are drawn when asked for
            fresh = mmr_select(pool, query, k, lam)
            filtered = near_duplicate_filter(pool, fresh, threshold)
            stops += len(fresh._picks) < k
            assert filtered.selected == kept, f"trial {trial}"
            assert bits(map(fresh.pool_score, filtered.selected)) == bits(kept_scores), \
                f"trial {trial}"
            assert filtered.dropped_as_duplicates == dropped, f"trial {trial}"
            assert fresh.selected == want[0], f"trial {trial}"
            assert bits(map(fresh.pool_score, fresh.selected)) == bits(want[1]), f"trial {trial}"
            assert bits(map(fresh.pool_score, range(n))) == bits(want[2]), f"trial {trial}"

        got = mmr_select(pool, query, k, lam)
        assert got.selected == want[0], f"trial {trial}"
        assert bits(map(got.pool_score, got.selected)) == bits(want[1]), f"trial {trial}"
        assert bits(map(got.pool_score, range(n))) == bits(want[2]), f"trial {trial}"

        filtered = near_duplicate_filter(pool, got, threshold)
        if threshold > 1.0:
            assert (filtered.selected, filtered.dropped_as_duplicates) == (want[0], ())
        else:
            assert filtered.selected == kept, f"trial {trial}"
            assert bits(map(got.pool_score, filtered.selected)) == bits(kept_scores), \
                f"trial {trial}"
            assert filtered.dropped_as_duplicates == dropped, f"trial {trial}"
            assert bits(map(got.pool_score, range(n))) == bits(want[2]), f"trial {trial}"
            drops += bool(dropped)
            backfills += bool(set(kept) - set(want[0]))

        similarity = got.similarity
        for a in range(n):
            want_row = [reference_cosine(pool[a], pool[b]) for b in range(n)]
            assert bits(similarity.row(a, range(n))) == bits(want_row), f"trial {trial}"
            want_relevance = reference_cosine(pool[a], query)
            assert similarity.relevance[a].hex() == want_relevance.hex(), f"trial {trial}"
    if kind in ("duplicate", "mock-d16"):
        assert drops >= 10 and backfills >= 3 and stops >= 10, (drops, backfills, stops)
    assert ties > 10


def test_scheduler_filter_equals_reference_on_a_shortfall_tree(monkeypatch, tmp_path):
    # long answers embedded at d=16 are near-duplicates, so most expansions
    # drop, backfill and fall short; every filter the scheduler runs must
    # match the reference walk over all candidates
    real_filter = scheduler.near_duplicate_filter
    calls = backfills = drops = 0

    def checked_filter(candidates, selection, threshold):
        nonlocal calls, backfills, drops
        filtered = real_filter(candidates, selection, threshold)
        pool_scores = tuple(map(selection.pool_score, range(len(candidates))))
        kept, dropped = reference.dedup_filter([c.values for c in candidates],
                                               selection.selected, pool_scores, threshold)
        assert filtered.selected == kept
        kept_scores = [pool_scores[i] for i in kept]
        assert bits(map(selection.pool_score, filtered.selected)) == bits(kept_scores)
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


def count_pairs(monkeypatch) -> list[frozenset]:
    """Record the pair of value tuples behind every dot product, each of
    which is checked bit for bit against ``reference.dot``."""
    pairs: list[frozenset] = []
    real_dots = dedup._dots

    def counting_dots(a, rows):
        pairs.extend(frozenset((id(a), id(b))) for b in rows)
        dots = real_dots(a, rows)
        assert bits(dots) == bits(reference.dot(a, b) for b in rows)
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
    result = expand_parent(Tree(config).nodes[ROOT_ID], [], config,
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
    assert filtered.dropped_as_duplicates == (2, 3, 4, 5)  # in index order
    later_picks = {id(pool[i].values) for i in selection.selected[1:]}
    assert not [pair for pair in pairs if pair & later_picks]


@pytest.mark.parametrize("k", [1, 4])
def test_filtering_a_saturated_pool_draws_one_pick(monkeypatch, k):
    # every pair clears the cutoff, so once the first pick's row is known no
    # candidate left can be kept: the filter computes the relevance pairs and,
    # when there is a second pick to read it, that row, and draws no second
    # pick (which would refresh a candidate against the first)
    pairs = count_pairs(monkeypatch)
    pool = [vec(1, 0.9, e) for e in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)]
    query = vec(1, 1, 0)
    selection = mmr_select(pool, query, k, 0.5)
    filtered = near_duplicate_filter(pool, selection, 0.99)
    first = selection._picks[0]
    assert selection._picks == [first] and filtered.selected == (first,)
    others = [i for i in range(len(pool)) if i != first]
    want = {frozenset((id(query.values), id(c.values))) for c in pool}
    if k > 1:
        assert filtered.dropped_as_duplicates == tuple(others)
        want |= {frozenset((id(pool[first].values), id(pool[i].values))) for i in others}
    else:
        assert filtered.dropped_as_duplicates == ()
    assert len(pairs) == len(want) and set(pairs) == want


@pytest.mark.parametrize("dim", [0, 1, 5, 16])
def test_dots_equals_dot_bitwise(dim):
    rng = random.Random(f"dots-{dim}")
    for count in range(10):  # every remainder of 4, twice
        a = [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3) for _ in range(dim)]
        rows = [[0.0] * dim if rng.random() < 0.25 else
                [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3) for _ in range(dim)]
                for _ in range(count)]
        want = [reference.dot(a, b) for b in rows]
        assert bits(dedup._dots(a, rows)) == bits(want)
        assert bits(dedup._dots([0.0] * dim, rows)) == bits([0.0] * count)


def test_lazy_selection_computes_fewer_pairs_than_eager(monkeypatch):
    # the eager greedy computes n relevance pairs and n pairs per pick; the
    # lazy one refreshing a candidate against every pick since its last
    # refresh computes 0.499 of that here, four picks at a time 0.446
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
    assert computed <= 0.47 * eager, (computed, eager)


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
