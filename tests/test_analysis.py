"""Corpus statistics."""

from __future__ import annotations

from treegen.corpus import ConversationRecord, build_corpus, compute_stats

from conftest import build_full_tree, sft_config


def make_record(rid: str, *turn_texts: str) -> ConversationRecord:
    return ConversationRecord(id=rid, system="s", turns=turn_texts)


# --- compute_stats ------------------------------------------------------------

def test_histogram_counts_two_turn_corpus():
    tree = build_full_tree(sft_config([8, 2, 2, 2]))
    records = build_corpus(tree)
    stats = compute_stats(records)
    assert stats["record_count"] == 64
    assert stats["turn_histogram"] == {"2": 64}


def test_empty_corpus_all_zero():
    stats = compute_stats([])
    assert stats["record_count"] == 0
    assert stats["turn_histogram"] == {}
    assert stats["text_length_stats"]["min"] == 0
    assert stats["text_length_stats"]["mean"] == 0.0


def test_histogram_sums_to_record_count():
    records = [make_record("a", "q", "r"), make_record("b", "q", "r", "q2", "r2"),
               make_record("c", "q", "r")]
    stats = compute_stats(records)
    assert sum(stats["turn_histogram"].values()) == stats["record_count"] == 3
    assert stats["turn_histogram"] == {"1": 2, "2": 1}


def test_length_stats_are_exact():
    records = [make_record("a", "xx", "yyyy")]  # lengths 2 and 4
    stats = compute_stats(records)
    assert stats["text_length_stats"]["min"] == 2
    assert stats["text_length_stats"]["max"] == 4
    assert stats["text_length_stats"]["mean"] == 3.0
    assert stats["text_length_stats"]["p50"] == 2
    assert stats["text_length_stats"]["p95"] == 4
