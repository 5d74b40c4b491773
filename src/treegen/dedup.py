"""Sibling-candidate selection: greedy MMR plus a near-duplicate cutoff.

Selection is greedy maximal marginal relevance (Carbonell & Goldstein, SIGIR
1998) over pools of a few hundred candidates at most, with exact
arithmetic-order determinism: ties always resolve to the lowest candidate
index.

Every similarity is a cosine with one fixed arithmetic, bit for bit: squared
norms and dot products are sequential per-dimension sums (``+=`` in index
order, never ``sum()``, whose float summation is compensated from Python 3.12
on), roots are taken with ``** 0.5``, a cosine is ``dot / (root_a * root_b)``,
and a zero vector has similarity 0. ``PoolSimilarity`` is the one place a
similarity is computed. It takes each norm once and each pair's dot product at
most once, through ``_dots``, which takes one vector against four others per
pass, and against the one to three left over in one more, each pair in its own
sequential accumulator. The scheduler keeps one per expansion, so a retry's
grown pool reuses every pair of the first attempt. As the arithmetic never
changes, none of this changes a byte of ``nodes.jsonl``.
A vector whose squared norm is not finite is rejected, so every similarity,
and every score, is a number.

The greedy is lazy (Minoux's accelerated greedy, 1978). A candidate's maximum
similarity to the picks only grows as picks are folded into it, and IEEE
rounding is monotone, so its score against any prefix of the picks is an upper
bound on its score against all of them. The unpicked candidates wait in a heap
keyed (-score, index); only the top one is refreshed, by folding in at most
the next four picks it has not seen, in pick order (one ``_dots`` pass), and
it goes back into the heap. It is picked once it has seen every pick and is
still on top, so every candidate below it has a key no better than its fresh
one. A maximum does not depend on how it is split, and each pair is still
computed once, by the same sum, so picks, scores and the lowest-index tie rule
are those of the eager loop that rescores every candidate at every step, but
most pairs of a pool are never computed, and a candidate that falls below the
top after a few picks never meets the rest. ``MmrSelection.pool_score``
scores an unpicked candidate against every pick only when asked for it.

``MmrSelection`` is the greedy and its result in one class, and it draws its
picks on demand: construction makes only the first, the argmax of relevance,
and the heap is built when the second is drawn.

The filter draws the picks one at a time as its pick-order scan reaches
them. It keeps the set of candidates not yet scanned and not known to
near-duplicate a kept one: after each kept candidate it removes those whose
similarity to it is computed already and reaches the cutoff, computing no
pair for this but the first kept pick's row, the one the second pick's heap
is built from, and that only when there is a second pick. Once the set is
empty, the scan stops and draws no more picks: in a pool where every pair
reaches the cutoff, as long answers embedded at d=16 do, it stops after its
first pick. A pick not drawn is drawn, with the same value, when the
selection's ``selected`` or ``pool_score`` is read, and as the pick order of
the undrawn picks is not known, the filter lists its drops in index order.
It returns a ``FilteredSelection``: the kept candidates, the drops and the
selection's ``similarity``, nothing more; a kept candidate's score is the
selection's ``pool_score`` of it. Rounding can lift the cosine of two
near-identical vectors, an exact duplicate's included, past 1 (by under
1e-14 over seeded pairs at d=16 and d=1024), so a threshold of 1, or one
just above it, may drop or keep such a pair by rounding. A threshold of 1.01
drops nothing: the scan keeps the ``k`` picks, never backfills, and computes
no pair that drawing the picks did not.

The filter's backfill walks the candidates outside the selection in
``pool_score`` order, but scores only those it could keep. Kept candidates only
accumulate, so one that near-duplicates a candidate the pick-order scan kept
is dropped wherever the walk meets it; it is set aside unscored, and the
others are walked alone, which keeps what the walk over all keeps. The
candidates the scan removed from its set are set aside without a look, as
their pair with a kept pick is computed and reaches the cutoff; after an
early stop that is every candidate left, so the walk is empty. A set-aside
candidate is listed as a drop if the walk over all would have met it: all of
them if the walk falls short, else those ranked before the candidate that
completed the selection, the one case in which they are scored.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .backends import EmbeddingVector
from .errors import ConfigError


def _dots(a: Sequence[float], rows: Sequence[Sequence[float]]) -> list[float]:
    """The dot product of ``a`` with each row, each a sequential sum, with one
    pass over ``a`` per four rows and one for the one to three left over."""
    dots: list[float] = []
    full = len(rows) - len(rows) % 4
    for start in range(0, full, 4):
        s1 = s2 = s3 = s4 = 0.0
        for x, y1, y2, y3, y4 in zip(a, *rows[start:start + 4]):
            s1 += x * y1
            s2 += x * y2
            s3 += x * y3
            s4 += x * y4
        dots += (s1, s2, s3, s4)
    rest = rows[full:]
    if len(rest) == 3:
        s1 = s2 = s3 = 0.0
        for x, y1, y2, y3 in zip(a, *rest):
            s1 += x * y1
            s2 += x * y2
            s3 += x * y3
        dots += (s1, s2, s3)
    elif len(rest) == 2:
        s1 = s2 = 0.0
        for x, y1, y2 in zip(a, *rest):
            s1 += x * y1
            s2 += x * y2
        dots += (s1, s2)
    elif rest:
        s1 = 0.0
        for x, y1 in zip(a, rest[0]):
            s1 += x * y1
        dots.append(s1)
    return dots


def _finite_roots(vectors: Sequence[Sequence[float]]) -> list[float]:
    """The norm of each vector; ``ValueError`` if a squared norm overflows."""
    roots: list[float] = []
    for v in vectors:
        sq = 0.0
        for x in v:
            sq += x * x
        roots.append(sq ** 0.5)
    if not all(map(math.isfinite, roots)):
        raise ValueError("a vector's squared norm is not finite")
    return roots


class PoolSimilarity:
    """The cosines within one pool of candidates and against its query, each
    computed at most once.

    ``relevance`` holds each candidate's similarity to the query, and ``row``
    reads similarities between candidates. ``extend`` appends candidates and
    keeps every similarity computed so far. Raises ``ValueError`` unless every
    vector has the query's dimension and a finite squared norm.
    """

    def __init__(self, query: EmbeddingVector):
        self._query = query.values
        self._query_root = _finite_roots([query.values])[0]
        self._vectors: list[Sequence[float]] = []
        self._roots: list[float] = []
        self._sims: list[list[float | None]] = []  # [i][j] and [j][i] once computed
        self.relevance: list[float] = []

    def extend(self, candidates: Sequence[EmbeddingVector]) -> None:
        """Add ``candidates`` past those already held, which must be its prefix."""
        held = len(self._vectors)
        if (len(candidates) < held
                or any(c.values is not v for c, v in zip(candidates, self._vectors))):
            raise ValueError("a pool grows only by appending candidates")
        new = [c.values for c in candidates[held:]]
        dim = len(self._query)
        dims = sorted({len(v) for v in new} - {dim})
        if dims:
            raise ValueError(f"dimension mismatch: the query has {dim}, its pool has {dims}")
        roots = _finite_roots(new)
        query_root = self._query_root
        self.relevance += [0.0 if root == 0.0 or query_root == 0.0
                           else dot / (root * query_root)
                           for root, dot in zip(roots, _dots(self._query, new))]
        for row in self._sims:
            row += [None] * len(new)
        size = held + len(new)
        self._sims += [[None] * size for _ in new]
        self._vectors += new
        self._roots += roots

    def row(self, i: int, js: Sequence[int]) -> list[float]:
        """The similarities of candidate ``i`` to candidates ``js``; the pairs
        not yet computed are computed in one ``_dots`` call."""
        sims = self._sims[i]
        missing = [j for j in js if sims[j] is None]
        if missing:
            vectors, roots, root_i = self._vectors, self._roots, self._roots[i]
            for j, dot in zip(missing, _dots(vectors[i], [vectors[j] for j in missing])):
                root_j = roots[j]
                sim = 0.0 if root_i == 0.0 or root_j == 0.0 else dot / (root_i * root_j)
                sims[j] = self._sims[j][i] = sim
        return [sims[j] for j in js]

    def reaches(self, i: int, js: Sequence[int], threshold: float) -> bool:
        """Whether any similarity of candidate ``i`` to candidates ``js``
        reaches ``threshold``. The pairs already computed are read first; the
        rest are computed, in one ``row`` call, only if none of those does."""
        sims = self._sims[i]
        missing = False
        for j in js:
            sim = sims[j]
            if sim is None:
                missing = True
            elif sim >= threshold:
                return True
        return missing and any(sim >= threshold for sim in self.row(i, js))

    def known_to_reach(self, i: int, js: Iterable[int], threshold: float) -> set[int]:
        """The candidates among ``js`` whose similarity to candidate ``i`` is
        computed already and reaches ``threshold``; computes none."""
        sims = self._sims[i]
        return {j for j in js if (sim := sims[j]) is not None and sim >= threshold}


class MmrSelection:
    """Greedy MMR over one pool, in the lazy order the module docstring gives,
    and the result of that selection pass.

    The picks are drawn on demand: construction makes only the first, the
    argmax of relevance, and the heap waits for the second. ``selected`` is
    the ``k`` picks, and ``pool_score(i)`` is candidate ``i``'s MMR score
    against all the picks (its pick score for a pick), computed when asked
    for; each draws any pick still missing first. The duplicate filter draws
    the picks one at a time and backfills in pool-score order, and returns
    its own result, a ``FilteredSelection``.
    """

    # a selection has dropped nothing; only treebench/tracing.py reads this,
    # as the drops the filter's input already lists
    dropped_as_duplicates: tuple[int, ...] = ()

    def __init__(self, similarity: PoolSimilarity, k: int, lambda_: float):
        self.similarity = similarity
        self._k = k
        self._lambda = lambda_
        relevance = similarity.relevance
        # the first pick maximizes relevance; max keeps the first, lowest, index on ties
        first = max(range(len(relevance)), key=relevance.__getitem__)
        self._picks = [first]
        self._picked = {first: relevance[first]}  # pick -> pick score
        # max similarity of each candidate to the first _seen[i] picks;
        # similarities may be negative, so the empty-set sentinel is -inf
        self._max_sim = [float("-inf")] * len(relevance)
        self._seen = [0] * len(relevance)
        self._heap: list[tuple[float, int]] = []  # built when the second pick is drawn

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(self._members())

    def _members(self) -> Iterator[int]:
        """The ``k`` picks in order, each drawn when the iteration reaches it."""
        for n in range(self._k):
            if n == len(self._picks):
                self._draw()
            yield self._picks[n]

    def _draw(self) -> None:
        """Make the next pick; the second first scores and heaps the others."""
        if len(self._picks) == 1:
            self._start()
        i, score = self._pop()
        self._picks.append(i)
        self._picked[i] = score

    def _score(self, i: int) -> float:
        return (self._lambda * self.similarity.relevance[i]
                - (1.0 - self._lambda) * self._max_sim[i])

    def _refresh(self, i: int, limit: int = 4) -> None:
        """Fold into ``i``'s maximum similarity the next ``limit`` picks it has
        not seen, in pick order. The default four are one ``_dots`` pass; its
        score after any refresh is an upper bound, fresh once it has seen
        every pick."""
        seen = self._seen[i]
        unseen = self._picks[seen:seen + limit]
        best = self._max_sim[i]
        for sim in self.similarity.row(i, unseen):
            if sim > best:
                best = sim
        self._max_sim[i] = best
        self._seen[i] = seen + len(unseen)

    def _start(self) -> None:
        """Score every other candidate against the first pick, one row, and heap them."""
        first = self._picks[0]
        others = [i for i in range(len(self._max_sim)) if i != first]
        for i, sim in zip(others, self.similarity.row(first, others)):
            if sim > self._max_sim[i]:
                self._max_sim[i] = sim
            self._seen[i] = 1
        self._heap = [(-self._score(i), i) for i in others]
        heapq.heapify(self._heap)

    def _pop(self) -> tuple[int, float]:
        """Take the unpicked candidate that scores best against every pick,
        lowest index on ties, with its score. Until the top candidate has
        seen every pick, it is refreshed by up to four and put back."""
        heap = self._heap
        while True:
            key, i = heap[0]
            if self._seen[i] == len(self._picks):
                heapq.heappop(heap)
                return i, -key
            self._refresh(i)
            heapq.heapreplace(heap, (-self._score(i), i))

    def pool_score(self, i: int) -> float:
        """Candidate ``i``'s score against all picks (its pick score if picked)."""
        while len(self._picks) < self._k:
            self._draw()
        if i in self._picked:
            return self._picked[i]
        self._refresh(i, len(self._picks))
        return self._score(i)


@dataclass(frozen=True)
class FilteredSelection:
    """What the near-duplicate filter kept and dropped.

    ``selected`` holds the kept candidates in keep order: the picks the scan
    kept, in pick order, then the backfill's. ``dropped_as_duplicates`` holds
    the drops in index order, and ``similarity`` is the filtered selection's
    own, for a retry's grown pool to reuse.
    """

    selected: tuple[int, ...]
    dropped_as_duplicates: tuple[int, ...]
    similarity: PoolSimilarity


def mmr_select(candidates: Sequence[EmbeddingVector], query: EmbeddingVector,
               k: int, lambda_: float,
               similarity: PoolSimilarity | None = None) -> MmrSelection:
    """Greedy maximal-marginal-relevance selection of ``k`` candidates.

    The first pick maximizes relevance to the query; each later pick maximizes
    lambda*relevance - (1-lambda)*max-similarity-to-selected. Ties break to
    the lowest index.

    ``similarity``, when given, is a ``PoolSimilarity`` for the same query
    over a prefix of ``candidates``, such as an earlier selection's; it is
    extended to them, and no pair it holds is computed again. Raises
    ``ValueError`` as ``PoolSimilarity`` does.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1 (got {k})")
    if k > len(candidates):
        raise ConfigError(f"k={k} exceeds candidate pool size {len(candidates)}")
    if not 0.0 <= lambda_ <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1] (got {lambda_})")

    if similarity is None:
        similarity = PoolSimilarity(query)
    similarity.extend(candidates)
    return MmrSelection(similarity, k, lambda_)


def near_duplicate_filter(candidates: Sequence[EmbeddingVector],
                          selection: MmrSelection, threshold: float) -> FilteredSelection:
    """Drop selected candidates that near-duplicate an earlier kept one.

    Scans the selection in pick order, drawing each pick when it reaches it
    and dropping any candidate whose cosine to an already kept candidate
    reaches ``threshold``, then backfills from the unselected pool in
    MMR-score order under the same rule, scoring only the candidates it
    could keep. It stops drawing picks, and drops every candidate it has not
    scanned, once each of those is known to near-duplicate a kept one (see
    the module docstring). Returns the kept candidates, the drops in index
    order and the selection's similarities; ``selection`` is left as it was,
    but for the picks drawn. Rounding can lift a cosine past 1 by under
    1e-14, so a threshold of 1, or just above it, may drop an exact
    duplicate; 1.01 drops nothing: the scan keeps the ``k`` picks and reads
    only pairs that drawing them computed. The similarities are the
    selection's own, so ``selection`` must have been made over
    ``candidates``; a ``ValueError`` otherwise.
    """
    if not 0.0 < threshold <= 1.01:
        raise ConfigError(f"threshold must be in (0, 1.01] (got {threshold})")
    similarity = selection.similarity
    if (len(candidates) != len(similarity.relevance)
            or any(c.values is not v for c, v in zip(candidates, similarity._vectors))):
        raise ValueError("the selection was made over another pool")
    k = selection._k
    kept: list[int] = []
    drops: list[int] = []
    scanned: set[int] = set()
    # the unscanned candidates not known, from the pairs computed so far, to
    # near-duplicate a kept one
    unblocked = set(range(len(candidates)))

    for idx in selection._members():  # draws each pick when it reaches it
        scanned.add(idx)
        unblocked.discard(idx)
        # computes no pair for a pick: when drawn, it met every earlier pick
        if similarity.reaches(idx, kept, threshold):
            drops.append(idx)
        else:
            if not kept and k > 1:  # the row the second pick's heap is built from
                similarity.row(idx, [i for i in range(len(candidates)) if i != idx])
            kept.append(idx)
            unblocked -= similarity.known_to_reach(idx, unblocked, threshold)
        if not unblocked:  # neither the scan nor the backfill can keep another
            break

    if len(kept) < k:
        # as the module docstring says: a candidate that near-duplicates one
        # the scan kept is blocked, never kept, and walks unscored
        scan_kept = tuple(kept)
        blocked: list[int] = []
        walk: list[tuple[float, int]] = []
        for i in range(len(candidates)):
            if i in scanned:
                continue
            if i not in unblocked or similarity.reaches(i, scan_kept, threshold):
                blocked.append(i)
            else:
                walk.append((-selection.pool_score(i), i))
        walk.sort()
        stop = None
        for key in walk:
            idx = key[1]
            if similarity.reaches(idx, kept, threshold):
                drops.append(idx)
            else:
                kept.append(idx)
                if len(kept) == k:
                    stop = key
                    break
        # a blocked candidate is a drop if the walk over all would reach it
        if stop is not None:
            blocked = [i for i in blocked if (-selection.pool_score(i), i) < stop]
        drops += blocked

    return FilteredSelection(tuple(kept), tuple(sorted(drops)), similarity)
