"""Corpus statistics: turn histogram and text-length percentiles."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import ConversationRecord


@dataclass(frozen=True)
class LengthStats:
    min: int
    max: int
    mean: float
    p50: int
    p95: int


@dataclass(frozen=True)
class CorpusStats:
    record_count: int
    turn_histogram: dict[int, int]
    text_length_stats: LengthStats

    def to_dict(self) -> dict:
        return {**asdict(self),
                "turn_histogram": {str(k): v for k, v in sorted(self.turn_histogram.items())}}


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile; callers guarantee a non-empty input."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def compute_stats(records: Sequence[ConversationRecord]) -> CorpusStats:
    histogram: dict[int, int] = {}
    lengths: list[int] = []
    for record in records:
        histogram[record.turn_count] = histogram.get(record.turn_count, 0) + 1
        lengths.extend(len(turn.value) for turn in record.turns)
    if lengths:
        lengths.sort()
        length_stats = LengthStats(
            min=lengths[0], max=lengths[-1],
            mean=sum(lengths) / len(lengths),
            p50=_percentile(lengths, 0.50),
            p95=_percentile(lengths, 0.95),
        )
    else:
        length_stats = LengthStats(min=0, max=0, mean=0.0, p50=0, p95=0)
    return CorpusStats(
        record_count=len(records),
        turn_histogram=histogram,
        text_length_stats=length_stats,
    )
