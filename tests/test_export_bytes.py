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
from treegen.backends import MockEmbedder, MockTextBackend
from treegen.corpus import (ConversationRecord, TurnPolicy, build_corpus, export_jsonl,
                            export_pt, export_sharegpt)
from treegen.errors import ConfigError
from treegen.scheduler import CheckpointStore, TreeRunner
from treegen.tree import Tree, TreeNode, child_id, json_escape

from conftest import pt_config, sft_config

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


# --- texts a backslash-free nodes.jsonl line proves need no escape -------------------

def hand_made_line(parent_id: str, layer: int, role: str, texts: list[str],
                   backend_id: str = '"mock"') -> str:
    """A nodes.jsonl line as another JSON writer could spell it: ``texts``
    and ``backend_id`` are JSON string literals, written into the line as
    they are."""
    records = ",".join(
        '{"id":"%s","parent_id":"%s","layer":%d,"role":"%s","text":%s,"gen_meta":'
        '{"backend_id":%s,"finish_reason":"stop","sample_index":%d}}'
        % (child_id(parent_id, rank), parent_id, layer, role, text, backend_id, rank)
        for rank, text in enumerate(texts))
    return '{"parent_id":"%s","children":[%s]}\n' % (parent_id, records)


# (line, whether it holds no backslash); the raw literals hold JSON escapes
SFT_LINES = [
    (hand_made_line("root", 1, "question", ['"caf\u00e9 \x7f?"', '"plain question"',
                                            '"\u6f22\u5b57?"', '"q3"', '"q4 \U0001f600"']), True),
    (hand_made_line("0", 2, "answer", [r'"a \"quoted\" answer"', r'"two\nlines"']), False),
    (hand_made_line("1", 2, "answer", [r'"a\ttab"', r'"either\/or"']), False),
    (hand_made_line("2", 2, "answer", [r'"caf\u00e9"', r'"\ud83d\ude00 grin"']), False),
    (hand_made_line("3", 2, "answer", ['"clean answer"', '"clean too"'], r'"mock\\x"'), False),
    (hand_made_line("4", 2, "answer", ['"caf\u00e9 \x7f answer"', '"a\u2028separator"']), True),
]
PT_LINES = [
    (hand_made_line("root", 1, "continuation", ['"caf\u00e9 \x7f"', '"plain root"']), True),
    (hand_made_line("0", 2, "continuation", ['"clean \u6f22"', '"\x7f"']), True),
    (hand_made_line("1", 2, "continuation", [r'"a \"quote\""', r'"caf\u00e9"']), False),
]


def hand_made_checkpoint(directory, config, lines) -> Tree:
    """A format-5 checkpoint of ``config`` whose nodes.jsonl holds ``lines``, loaded."""
    assert [b"\\" not in line.encode() for line, _ in lines] == [clean for _, clean in lines]
    store = CheckpointStore(directory)
    store.initialize(config)
    store.close()
    (directory / "nodes.jsonl").write_text("".join(line for line, _ in lines), encoding="utf-8")
    return CheckpointStore(directory).load()


@pytest.mark.parametrize("inline_system", [False, True])
def test_exports_of_a_loaded_checkpoint_match_the_json_module(tmp_path, inline_system):
    """One line holding a backslash sends every path of its tree through the
    escapes, the paths of its clean lines too, and so does a record rebuilt
    by hand, here with an id that needs one."""
    tree = hand_made_checkpoint(tmp_path / "tree", sft_config([5, 2], system_prompt='S "q"\n'),
                                SFT_LINES)
    records = build_corpus(tree)
    renamed = [dataclasses.replace(r, id=f'{r.id}"\\') for r in records]
    for name, chosen in (("built", records), ("renamed", renamed)):
        array, lines = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        export_sharegpt(chosen, array, inline_system=inline_system)
        export_jsonl(chosen, lines, inline_system=inline_system)
        assert array.read_bytes() == reference_sharegpt(chosen, inline_system)
        assert lines.read_bytes() == reference_jsonl(chosen, inline_system)

    pt = hand_made_checkpoint(tmp_path / "pt", pt_config([2, 2]), PT_LINES)
    assert export_pt(pt, tmp_path / "pt.jsonl").read_bytes() == reference_pt(pt, " ")
    assert tree.escape_free is pt.escape_free is False


class QuotingBackend(MockTextBackend):
    """The mock, but the completions of a last-layer request (16 tokens in
    ``sft_config``'s four layers) with an odd seed end in a quote."""

    def generate(self, request):
        result = super().generate(request)
        if request.max_tokens == 16 and request.request_seed % 2:
            result = dataclasses.replace(result, completions=tuple(
                dataclasses.replace(c, text=c.text + ' "q"') for c in result.completions))
        return result


def test_a_grown_tree_knows_what_its_reload_knows(tmp_path):
    store = CheckpointStore(tmp_path / "tree")
    grown = TreeRunner(sft_config([3, 2, 2, 2]), QuotingBackend(), MockEmbedder(), store,
                       workers=2).run()
    loaded = CheckpointStore(store.directory).load()
    assert grown.escape_free is loaded.escape_free is False
    for name, tree in (("grown", grown), ("loaded", loaded)):
        records = build_corpus(tree)
        out = export_jsonl(records, tmp_path / f"{name}.jsonl", inline_system=True)
        assert out.read_bytes() == reference_jsonl(records, True)


@pytest.mark.parametrize("source", ["loaded", "grown"])
def test_a_backslash_free_tree_exports_without_escaping_a_turn_or_an_id(tmp_path, monkeypatch,
                                                                      source):
    """From a loaded checkpoint whose lines hold no backslash, or the tree
    that wrote them, the exports escape only the inlined system prompt, once
    per export."""
    store = CheckpointStore(tmp_path / "tree")
    tree = TreeRunner(sft_config([3, 2, 2, 2]), MockTextBackend(), MockEmbedder(), store,
                      workers=2).run()
    assert b"\\" not in store.nodes_path.read_bytes()
    if source == "loaded":
        tree = CheckpointStore(store.directory).load()
    escaped = []
    monkeypatch.setattr(corpus, "json_escape", lambda s: escaped.append(s) or json_escape(s))
    for inline_system in (False, True):
        full, turn1 = build_corpus(tree), build_corpus(tree, TurnPolicy.fixed(1))
        export_sharegpt(full, tmp_path / "corpus.json", inline_system=inline_system)
        export_jsonl(turn1, tmp_path / "turn1.jsonl", inline_system=inline_system)
        assert (tmp_path / "corpus.json").read_bytes() == reference_sharegpt(full, inline_system)
        assert (tmp_path / "turn1.jsonl").read_bytes() == reference_jsonl(turn1, inline_system)
    assert escaped == [tree.config.system_prompt] * 2
    escaped.clear()
    export_jsonl([ConversationRecord(r.id, r.system, r.turns) for r in turn1],
                 tmp_path / "rebuilt.jsonl")
    # a record rebuilt by hand carries no mark: its id and turns are escaped
    assert set(escaped) == {text for r in turn1 for text in (r.id, *r.turns)}
