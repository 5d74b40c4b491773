"""The JSON text treegen writes without the json module: ``json_escape``, the
one string escaper, and ``block_line``, the nodes.jsonl line writer, write
the bytes the json module writes, and a shipped run's nodes.jsonl keeps the
bytes recorded for it."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegen.backends import MockEmbedder, MockTextBackend
from treegen.scheduler import NODES_FILE, CheckpointStore, TreeRunner
from treegen.tree import (GenMeta, Role, TreeNode, block_line, json_escape, load_config,
                          node_to_record)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# json.dumps(s, ensure_ascii=False) with one encoder for every call
dumps = json.JSONEncoder(ensure_ascii=False).encode

# every character class the escaper treats apart: control characters, the
# quote and backslash, U+007F (escaped by the ASCII escaper only), line
# separators JSON leaves alone, non-BMP characters and lone surrogates
SPECIAL = "\x00\x08\t\n\x0c\r\x1f\"\\\x7f\x80\u00e9\u2028\u2029\u6f22\ud800\udfff\U0001f600"
# any code point, lone surrogates included, with the special ones often
ANY_CHAR = st.one_of(st.sampled_from(SPECIAL), st.characters(codec=None, exclude_categories=()))
# text that needs no escape, so it takes the clean check
CLEAN_CHAR = st.characters(codec=None, exclude_categories=(), min_codepoint=0x20,
                           exclude_characters='"\\')
TEXTS = st.one_of(st.text(ANY_CHAR), st.text(CLEAN_CHAR))
PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=200)


@PROPERTY
@given(TEXTS)
@example("a DEL \x7f and a\nnewline")  # ASCII text the ASCII escaper would write apart
@example("\x7f\"")
def test_escaper_writes_the_json_modules_string_body(s):
    assert '"' + json_escape(s) + '"' == json.dumps(s, ensure_ascii=False)


def test_escaper_matches_the_json_module_on_every_code_point_in_clean_text():
    """Each code point alone inside clean ASCII text (the ASCII code points:
    any other makes the text non-ASCII) and inside clean non-ASCII text, so
    every one meets the clean check: a text it passes is its own body."""
    for (before, after), codes in ((("clean ascii ", " text"), range(0x80)),
                                   (("caf\u00e9 ", " \u6f22\U0001f600"), range(0x110000))):
        texts = [before + chr(code) + after for code in codes]
        bodies = list(map(json_escape, texts))
        assert ['"%s"' % body for body in bodies] == list(map(dumps, texts))
        # every text is its own body but those holding a control character,
        # the quote or the backslash
        assert sum(body is text for body, text in zip(bodies, texts)) == len(codes) - 34


NODES = st.builds(
    TreeNode, id=st.text(ANY_CHAR), parent_id=st.text(ANY_CHAR), layer=st.integers(),
    role=st.sampled_from(Role), text=TEXTS, children=st.just([]),
    gen_meta=st.none() | st.builds(GenMeta, backend_id=st.text(ANY_CHAR),
                                   finish_reason=st.text(ANY_CHAR),
                                   sample_index=st.integers()))


@settings(PROPERTY, max_examples=60)
@given(st.text(ANY_CHAR), st.lists(NODES, max_size=3))
@example("0", [])
@example("0", [TreeNode("0.0", "0", 2, Role.ANSWER, SPECIAL),
               TreeNode("0.1", "0", 2, Role.ANSWER, "", gen_meta=GenMeta(SPECIAL, SPECIAL, -1))])
def test_block_line_writes_what_the_json_module_writes(parent_id, children):
    record = {"parent_id": parent_id, "children": [node_to_record(node) for node in children]}
    assert block_line(parent_id, children) == json.dumps(
        record, ensure_ascii=False, separators=(",", ":")) + "\n"


# sha256 of the mock's balance_8x4x2x2 nodes.jsonl, at any worker count
BALANCE_8X4X2X2_NODES = "8b081f7d666cee9f7514444b26eda7d42d74d2105bf672e92114bf3e7ba1807f"


@pytest.mark.parametrize("workers", [1, 8])
def test_a_shipped_runs_nodes_jsonl_keeps_its_recorded_bytes(tmp_path, workers):
    store = CheckpointStore(tmp_path / "tree")
    TreeRunner(load_config(CONFIGS / "balance_8x4x2x2.json"), MockTextBackend(), MockEmbedder(),
               store, workers=workers).run()
    nodes = (store.directory / NODES_FILE).read_bytes()
    assert hashlib.sha256(nodes).hexdigest() == BALANCE_8X4X2X2_NODES
