"""Sibling-candidate selection: greedy MMR plus a near-duplicate cutoff.

Candidate pools are small (a few hundred at most), so everything here is the
plain O(n*k) greedy algorithm with exact arithmetic-order determinism: ties
always resolve to the lowest candidate index.

Every similarity is ``cosine()``'s arithmetic, bit for bit: squared norms and
dot products are sequential per-dimension sums (``+=`` in index order, never
``sum()``, whose float summation is compensated from Python 3.12 on), roots are
taken with ``** 0.5``, and a zero vector has similarity 0. ``PoolSimilarity``
takes each norm once per pool and each pair's dot product at most once; as its
results equal ``cosine()``'s, the saving changes no byte of ``nodes.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .backends import EmbeddingVector
from .errors import ConfigError


def _sq_norm(values: Sequence[float]) -> float:
    sq = 0.0
    for x in values:
        sq += x * x
    return sq


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    dot = 0.0
    for x, y in zip(a, b):
        dot += x * y
    return dot


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity in [-1, 1]; a zero vector has similarity 0 by definition."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sq_a = _sq_norm(a.values)
    sq_b = _sq_norm(b.values)
    if sq_a == 0.0 or sq_b == 0.0:
        return 0.0
    return _dot(a.values, b.values) / (sq_a**0.5 * sq_b**0.5)


class PoolSimilarity:
    """``cosine()`` between any two vectors of one pool, each pair computed once.

    Index ``i < len(candidates)`` is a candidate; the query, when given, is
    index ``len(candidates)``. Raises ``ValueError`` unless every vector has
    the same dimension.
    """

    def __init__(self, candidates: Sequence[EmbeddingVector],
                 query: EmbeddingVector | None = None):
        vectors = [c.values for c in candidates]
        if query is not None:
            vectors.append(query.values)
        dims = sorted({len(v) for v in vectors})
        if len(dims) > 1:
            raise ValueError(f"dimension mismatch in pool: {dims}")
        self._candidates = len(candidates)
        self._size = size = len(vectors)
        self._vectors = vectors
        self._roots = [_sq_norm(v) ** 0.5 for v in vectors]
        # pair (i, j) at i * size + j and at j * size + i once computed
        self._sims: list[float | None] = [None] * (size * size)

    def covers(self, candidates: Sequence[EmbeddingVector]) -> bool:
        """True if built from exactly these candidate vectors."""
        return (len(candidates) == self._candidates
                and all(c.values is v for c, v in zip(candidates, self._vectors)))

    def __call__(self, i: int, j: int) -> float:
        sim = self._sims[i * self._size + j]
        if sim is None:
            root_i, root_j = self._roots[i], self._roots[j]
            if root_i == 0.0 or root_j == 0.0:
                sim = 0.0
            else:
                sim = _dot(self._vectors[i], self._vectors[j]) / (root_i * root_j)
            self._sims[i * self._size + j] = self._sims[j * self._size + i] = sim
        return sim


@dataclass(frozen=True)
class MmrSelection:
    """Result of one selection pass over a candidate pool.

    ``pool_scores`` holds, for every candidate, its MMR score against the
    final selected set (the pick-step score for selected candidates); the
    duplicate filter uses it as the backfill order. ``similarity`` carries the
    pool's computed similarities from ``mmr_select`` to the filter.
    """

    selected: tuple[int, ...]
    scores: tuple[float, ...]
    dropped_as_duplicates: tuple[int, ...]
    pool_scores: tuple[float, ...] = ()
    similarity: PoolSimilarity | None = field(default=None, compare=False, repr=False)


def mmr_select(candidates: Sequence[EmbeddingVector], query: EmbeddingVector,
               k: int, lambda_: float) -> MmrSelection:
    """Greedy maximal-marginal-relevance selection of ``k`` candidates.

    The first pick maximizes relevance to the query; each later pick maximizes
    lambda*relevance - (1-lambda)*max-similarity-to-selected. Ties break to
    the lowest index.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1 (got {k})")
    if k > len(candidates):
        raise ConfigError(f"k={k} exceeds candidate pool size {len(candidates)}")
    if not 0.0 <= lambda_ <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1] (got {lambda_})")

    similarity = PoolSimilarity(candidates, query)
    n = len(candidates)
    relevance = [similarity(i, n) for i in range(n)]
    picked: dict[int, float] = {}  # index -> its pick-step score, in pick order
    # max similarity of each candidate to the selected set so far; similarities
    # may be negative, so the empty-set sentinel must be -inf, not 0
    max_sim = [float("-inf")] * n

    for step in range(k):
        best_idx = -1
        best_score = 0.0
        # scan in index order with strict >, so ties resolve to the lowest index
        for i in range(n):
            if i in picked:
                continue
            if step == 0:
                score = relevance[i]
            else:
                score = lambda_ * relevance[i] - (1.0 - lambda_) * max_sim[i]
            if best_idx == -1 or score > best_score:
                best_idx = i
                best_score = score
        picked[best_idx] = best_score
        for i in range(n):
            if i not in picked:
                sim = similarity(i, best_idx)
                if sim > max_sim[i]:
                    max_sim[i] = sim

    pool_scores = tuple(picked[i] if i in picked
                        else lambda_ * relevance[i] - (1.0 - lambda_) * max_sim[i]
                        for i in range(n))
    return MmrSelection(selected=tuple(picked), scores=tuple(picked.values()),
                        dropped_as_duplicates=(), pool_scores=pool_scores,
                        similarity=similarity)


def near_duplicate_filter(candidates: Sequence[EmbeddingVector],
                          selection: MmrSelection, threshold: float) -> MmrSelection:
    """Drop selected candidates that near-duplicate an earlier kept one.

    Scans the selection in pick order, dropping any candidate whose cosine to
    an already kept candidate reaches ``threshold``, then backfills from the
    unselected pool in MMR-score order under the same rule. Thresholds above
    1 disable the filter entirely. Reuses ``selection.similarity`` when it was
    built from ``candidates``.
    """
    if not 0.0 < threshold <= 1.01:
        raise ConfigError(f"threshold must be in (0, 1.01] (got {threshold})")
    if threshold > 1.0:
        return selection

    similarity = selection.similarity
    if similarity is None or not similarity.covers(candidates):
        similarity = PoolSimilarity(candidates)
    target = len(selection.selected)
    kept: list[int] = []
    kept_scores: list[float] = []
    dropped = list(selection.dropped_as_duplicates)

    def is_duplicate(idx: int) -> bool:
        return any(similarity(idx, j) >= threshold for j in kept)

    for idx, score in zip(selection.selected, selection.scores):
        if is_duplicate(idx):
            dropped.append(idx)
        else:
            kept.append(idx)
            kept_scores.append(score)

    if len(kept) < target:
        in_selection = set(selection.selected)
        backfill = [i for i in range(len(candidates)) if i not in in_selection]
        backfill.sort(key=lambda i: (-selection.pool_scores[i], i) if selection.pool_scores
                      else (0, i))
        for idx in backfill:
            if len(kept) >= target:
                break
            if is_duplicate(idx):
                dropped.append(idx)
            else:
                kept.append(idx)
                kept_scores.append(selection.pool_scores[idx]
                                   if selection.pool_scores else 0.0)

    return MmrSelection(selected=tuple(kept), scores=tuple(kept_scores),
                        dropped_as_duplicates=tuple(dropped),
                        pool_scores=selection.pool_scores, similarity=similarity)
