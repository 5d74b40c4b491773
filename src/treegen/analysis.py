"""Corpus statistics: turn histogram and text-length percentiles."""

from __future__ import annotations

import math
from typing import Sequence

from .corpus import ConversationRecord


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile; callers guarantee a non-empty input."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def compute_stats(records: Sequence[ConversationRecord]) -> dict:
    """The statistics ``treegen stats`` prints: the record count, the records
    per turn count (string keys, in turn order) and the min, max, mean, p50
    and p95 of the turn texts' lengths (all 0 without turns)."""
    histogram: dict[int, int] = {}
    lengths: list[int] = []
    for record in records:
        histogram[record.turn_count] = histogram.get(record.turn_count, 0) + 1
        lengths.extend(map(len, record.turns))
    lengths.sort()
    return {
        "record_count": len(records),
        "turn_histogram": {str(turns): count for turns, count in sorted(histogram.items())},
        "text_length_stats": {
            "min": lengths[0], "max": lengths[-1], "mean": sum(lengths) / len(lengths),
            "p50": _percentile(lengths, 0.50), "p95": _percentile(lengths, 0.95),
        } if lengths else {"min": 0, "max": 0, "mean": 0.0, "p50": 0, "p95": 0},
    }
