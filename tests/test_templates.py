"""Prompt rendering: formula structure, golden bytes, and completion stripping."""

from __future__ import annotations

from pathlib import Path

import pytest

from treegen.errors import EmptyCompletionError, StructuralError, TemplateError
from treegen.templates import (LLAMA2_CHAT, PLAIN, ChatTemplate, get_template,
                               load_template, render_answer_prompt,
                               render_continuation_prompt, render_question_prompt,
                               strip_completion)

GOLDEN = Path(__file__).parent / "golden"

# distinct non-empty markers so occurrences are countable
TAGGED = ChatTemplate(id="tagged", system_open="<s>", system_close="</s>",
                      user_open="<u>", user_close="</u>",
                      assistant_open="<a>", assistant_close="</a>",
                      turn_separator="|")


# --- degenerate plain-template renders -----------------------------------------

def test_empty_path_plain_is_just_the_system_prompt():
    assert render_question_prompt([], PLAIN, "S") == "S"


def test_plain_concatenation_of_turns():
    assert render_question_prompt(["q", "r"], PLAIN, "S") == "Sqr"
    assert render_answer_prompt(["q"], PLAIN, "S") == "Sq"


def test_question_prompt_rejects_dangling_question():
    with pytest.raises(StructuralError):
        render_question_prompt(["q"], PLAIN, "S")


def test_answer_prompt_rejects_complete_turns():
    with pytest.raises(StructuralError):
        render_answer_prompt(["q", "r"], PLAIN, "S")


# --- marker counting (formula structure) ------------------------------------------

@pytest.mark.parametrize("turns", [0, 1, 2, 3])
def test_question_prompt_marker_counts(turns):
    path = [t for i in range(turns) for t in (f"q{i}", f"r{i}")]
    out = render_question_prompt(path, TAGGED, "S")
    assert out.count("<u>") == turns + 1
    assert out.count("<a>") == turns


@pytest.mark.parametrize("turns", [1, 2, 3])
def test_answer_prompt_marker_counts(turns):
    path = [t for i in range(turns - 1) for t in (f"q{i}", f"r{i}")] + [f"q{turns - 1}"]
    out = render_answer_prompt(path, TAGGED, "S")
    assert out.count("<u>") == turns
    assert out.count("<a>") == turns


def test_question_prompt_is_prefix_of_extended_answer_prompt():
    for turns in range(4):
        path = [t for i in range(turns) for t in (f"q{i}", f"r{i}")]
        q_prompt = render_question_prompt(path, TAGGED, "S")
        a_prompt = render_answer_prompt(path + ["next question"], TAGGED, "S")
        assert a_prompt.startswith(q_prompt)


def test_rendering_is_pure():
    path = ["q1", "r1", "q2", "r2"]
    a = render_question_prompt(path, LLAMA2_CHAT, "sys")
    b = render_question_prompt(path, LLAMA2_CHAT, "sys")
    assert a == b and a is not b


# --- llama2 golden fixtures ---------------------------------------------------------

def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_llama2_first_question_prompt_matches_golden():
    out = render_question_prompt([], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p1.txt")
    assert out.startswith("[INST] <<SYS>>\n")
    assert "\n<</SYS>>\n\n" in out


def test_llama2_first_answer_prompt_matches_golden():
    out = render_answer_prompt(["q"], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p2.txt")
    assert out == "[INST] <<SYS>>\nYou are helpful.\n<</SYS>>\n\nq [/INST]"


def test_llama2_second_question_prompt_matches_golden():
    out = render_question_prompt(["q", "r"], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p3.txt")
    assert out.endswith("[INST] ")
    assert out.count("[INST]") == 2 and out.count("[/INST]") == 1


# --- PT continuation prompts -----------------------------------------------------------

def test_continuation_prompt_empty_path_is_exact():
    prompt = "Here are some useful world knowledge:"
    assert render_continuation_prompt([], prompt) == prompt


def test_continuation_prompt_joins_with_separator():
    out = render_continuation_prompt(["fact A"], "P0", separator="\n")
    assert out == "P0\nfact A"


def test_continuation_prompt_has_no_role_markers():
    out = render_continuation_prompt(["fact A", "fact B"], "P0", separator=" ")
    for marker in LLAMA2_CHAT.markers() + TAGGED.markers():
        assert marker not in out


# --- strip_completion -------------------------------------------------------------------

def test_strip_at_stop_marker():
    assert strip_completion("What is X? [INST] more", ["[INST]"], PLAIN) == "What is X?"


def test_strip_trims_whitespace():
    assert strip_completion("  answer  ", [], PLAIN) == "answer"


def test_strip_empty_result_raises():
    with pytest.raises(EmptyCompletionError):
        strip_completion("[INST]", ["[INST]"], PLAIN)


def test_strip_cuts_at_template_markers_too():
    raw = "an answer </s><s>[INST] next question"
    assert strip_completion(raw, [], LLAMA2_CHAT) == "an answer"


def test_strip_uses_earliest_marker():
    raw = "abc STOP def [/INST] ghi"
    assert strip_completion(raw, ["STOP"], LLAMA2_CHAT) == "abc"


# --- template loading ---------------------------------------------------------------------

def test_builtin_lookup():
    assert get_template("plain") is PLAIN
    assert get_template("llama2-chat") is LLAMA2_CHAT
    with pytest.raises(TemplateError):
        get_template("nope")


def test_template_file_round_trip(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(
        '{"id": "custom", "user_open": "<|u|>", "assistant_open": "<|a|>", '
        '"turn_separator": "\\n"}', encoding="utf-8")
    template = load_template(path)
    assert template.user_open == "<|u|>"
    assert template.system_open == ""


def test_template_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"id": "x", "bogus": 1}', encoding="utf-8")
    with pytest.raises(TemplateError, match="unknown template keys"):
        load_template(path)
