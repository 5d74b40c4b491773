"""The exporters write the bytes the json module writes.

The reference writers below are the exporters as they were written with the
json module: ``json.dump(..., indent=2)`` for the ShareGPT array and
``json.dumps`` for each JSONL and PT line, all with ``ensure_ascii=False``.
The exporters write from templates and reuse the escaped form of a text that
is the same object as the previous record's text at that position, so the
texts below mix shared objects with equal strings that are distinct objects.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re

import pytest

from treegen import corpus
from treegen.corpus import ConversationRecord, export_jsonl, export_pt, export_sharegpt
from treegen.errors import ConfigError
from treegen.tree import Tree, TreeNode, child_id, json_escape

from conftest import pt_config

TEXTS = [
    "plain ascii text",
    "caf\u00e9 au lait",
    "\u6f22\u5b57\u3068\u304b\u306a",
    "an emoji \U0001f600 in text",
    "\x7f",
    "ascii with a DEL \x7f inside",
    "a line\u2028separator",
    'a "quoted" word and a \\ backslash',
    "".join(map(chr, range(0x20))),
    "two\nlines\tand a tab",
    "",
]


def distinct_copy(text: str) -> str:
    """An equal string that is a different object (or the empty string)."""
    copy = "".join(list(text))
    assert copy == text and (copy is not text or len(text) <= 1)
    return copy


def reference_element(record: ConversationRecord, inline_system: bool) -> dict:
    conversations = []
    for i, value in enumerate(record.turns):
        if inline_system and i == 0 and record.system:
            value = f"{record.system}\n\n{value}"
        conversations.append({"from": "human" if i % 2 == 0 else "gpt", "value": value})
    return {"id": record.id, "conversations": conversations}


def reference_sharegpt(records, inline_system: bool) -> bytes:
    elements = [reference_element(r, inline_system)
                for r in sorted(records, key=lambda r: r.id)]
    out = io.StringIO()
    json.dump(elements, out, ensure_ascii=False, indent=2)
    out.write("\n")
    return out.getvalue().encode("utf-8")


def reference_jsonl(records, inline_system: bool) -> bytes:
    return "".join(json.dumps(reference_element(r, inline_system), ensure_ascii=False) + "\n"
                   for r in sorted(records, key=lambda r: r.id)).encode("utf-8")


def reference_pt(tree: Tree, separator: str) -> bytes:
    return "".join(json.dumps({"text": separator.join(node.text for node in path)},
                              ensure_ascii=False) + "\n"
                   for path in tree.leaf_paths()).encode("utf-8")


def record(record_id: str, *values: str, system: str = "Sys \u2603 \"q\"\n") -> ConversationRecord:
    return ConversationRecord(id=record_id, system=system, turns=values)


def special_records() -> list[ConversationRecord]:
    """Records over TEXTS, given out of id order. In id order, neighbours
    share some turn objects, hold equal but distinct strings at others, and
    change their turn count."""
    records = []
    for n, question in enumerate(TEXTS):
        follow_up = TEXTS[(n + 3) % len(TEXTS)]
        for rank, answer in enumerate((TEXTS[(n + 1) % len(TEXTS)],
                                       distinct_copy(TEXTS[(n + 1) % len(TEXTS)]),
                                       TEXTS[(n + 2) % len(TEXTS)])):
            records.append(record(f"{n:02d}.{rank}:1", question, answer))
            records.append(record(f"{n:02d}.{rank}.0.0:2", question, answer,
                                  follow_up, answer))
        records.append(record(f"{n:02d}.9:1", distinct_copy(question), question))
    records.append(record("x\x7f\u2028\u00e9:1", "q", "a", system=""))
    records.append(record("y:1", "q", "a", system=TEXTS[8]))
    return records[::-1]


@pytest.mark.parametrize("inline_system", [False, True])
def test_conversation_exports_match_the_json_module(tmp_path, inline_system):
    records = special_records()
    array, lines = tmp_path / "corpus.json", tmp_path / "corpus.jsonl"
    assert export_sharegpt(records, array, inline_system=inline_system) == array
    assert export_jsonl(records, lines, inline_system=inline_system) == lines
    assert array.read_bytes() == reference_sharegpt(records, inline_system)
    assert lines.read_bytes() == reference_jsonl(records, inline_system)


@pytest.mark.parametrize("inline_system", [False, True])
def test_empty_record_list_matches_the_json_module(tmp_path, inline_system):
    export_sharegpt([], tmp_path / "corpus.json", inline_system=inline_system)
    export_jsonl([], tmp_path / "corpus.jsonl", inline_system=inline_system)
    assert (tmp_path / "corpus.json").read_bytes() == reference_sharegpt([], False) == b"[]\n"
    assert (tmp_path / "corpus.jsonl").read_bytes() == reference_jsonl([], False) == b""


@pytest.mark.parametrize("template_id", ["plain", "llama2-chat"])
def test_pt_export_matches_the_json_module(tmp_path, template_id):
    """Leaf paths share their ancestors' text objects; some siblings hold
    equal but distinct strings."""
    config = dataclasses.replace(pt_config([3, 2, 2]), template_id=template_id)
    tree = Tree(config)
    frontier, n = ["root"], 0
    for layer_index, layer in enumerate(config.layers, start=1):
        next_frontier = []
        for pid in frontier:
            children = []
            for rank in range(layer.branching):
                text = TEXTS[n % len(TEXTS)]
                children.append(TreeNode(id=child_id(pid, rank), parent_id=pid,
                                         layer=layer_index, role=layer.role,
                                         text=distinct_copy(text) if rank else text))
                n += 1
            tree.add_children(pid, children)
            next_frontier.extend(c.id for c in children)
        frontier = next_frontier
    out = tmp_path / "pt.jsonl"
    assert export_pt(tree, out) == out
    separator = "\n" if template_id == "llama2-chat" else " "
    assert out.read_bytes() == reference_pt(tree, separator)


def test_escaper_matches_the_json_module_on_every_code_point():
    """``json_escape`` writes the body of the string json.dumps writes."""
    for code in range(128):  # the ASCII branch, one character at a time
        assert '"' + json_escape(chr(code)) + '"' == json.dumps(chr(code), ensure_ascii=False)
    every = "".join(map(chr, range(0x110000)))
    assert '"' + json_escape(every) + '"' == json.dumps(every, ensure_ascii=False)


def test_a_shared_text_is_escaped_once(tmp_path, monkeypatch):
    question = "shared question"
    records = [record(f"0.{rank}:1", question, f"answer {rank}") for rank in range(4)]
    escaped = []
    monkeypatch.setattr(corpus, "json_escape", lambda s: escaped.append(s) or json_escape(s))
    export_jsonl(records, tmp_path / "corpus.jsonl")
    assert escaped.count(question) == 1
    assert (tmp_path / "corpus.jsonl").read_bytes() == reference_jsonl(records, False)


@pytest.mark.parametrize("export", [export_sharegpt, export_jsonl])
def test_text_utf8_cannot_hold_is_a_config_error_leaving_no_file(tmp_path, export):
    # more than the 64 KiB write buffer comes before the text UTF-8 cannot hold
    records = [*(record(f"{n}:1", "q", "a") for n in range(3000)), record("z:1", "q", "\ud800")]
    out = tmp_path / "corpus"
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(str(out))}: .*surrogates"):
        export(records, out)
    assert not out.exists()
