"""Sibling selection's arithmetic contract, bit for bit, written apart from treegen.

A dot product is one sequential sum in index order (never ``sum()``, which is
compensated from Python 3.12 on), roots are taken with ``** 0.5`` and a zero
vector has cosine 0. ``mmr`` is the eager greedy and ``dedup_filter`` the
near-duplicate filter's walk over all candidates, which ``treegen.dedup``
must equal bit for bit. Vectors are sequences of floats. Standard library
only, so ``crossver_check.py`` runs it under every Python >= 3.10.
"""

from __future__ import annotations


def dot(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def cosine(a, b) -> float:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    root_a, root_b = dot(a, a) ** 0.5, dot(b, b) ** 0.5
    return 0.0 if root_a == 0.0 or root_b == 0.0 else dot(a, b) / (root_a * root_b)


def mmr(pool, query, k: int, lambda_: float) -> tuple[tuple, tuple, tuple]:
    """Greedy MMR that rescores every candidate after every pick, ties to the
    lowest index. Returns the picks, the score each was picked with, and each
    candidate's pool score: its pick score, else its score against all picks."""
    relevance = [cosine(v, query) for v in pool]
    max_sim = [float("-inf")] * len(pool)
    picks: list[int] = []
    scores: list[float] = []

    def score(i: int) -> float:
        return lambda_ * relevance[i] - (1.0 - lambda_) * max_sim[i] if picks else relevance[i]

    for _ in range(k):
        best = max((i for i in range(len(pool)) if i not in picks), key=lambda i: (score(i), -i))
        scores.append(score(best))
        picks.append(best)
        max_sim = [max(m, cosine(v, pool[best])) for m, v in zip(max_sim, pool)]
    return tuple(picks), tuple(scores), tuple(scores[picks.index(i)] if i in picks else score(i)
                                              for i in range(len(pool)))


def dedup_filter(pool, picks, pool_scores, threshold: float) -> tuple[tuple, tuple]:
    """The picks in pick order, then the other candidates in pool-score order
    (lowest index on ties) until ``len(picks)`` are kept, each kept unless its
    cosine to a kept one reaches ``threshold``. Returns the kept candidates in
    keep order and the drops in index order."""
    rest = sorted((i for i in range(len(pool)) if i not in picks),
                  key=lambda i: (-pool_scores[i], i))
    kept: list[int] = []
    drops: list[int] = []
    for n, i in enumerate([*picks, *rest]):
        if n >= len(picks) and len(kept) == len(picks):
            break
        (drops if any(cosine(pool[i], pool[j]) >= threshold for j in kept) else kept).append(i)
    return tuple(kept), tuple(sorted(drops))
