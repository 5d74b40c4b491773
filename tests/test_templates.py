"""Prompt rendering: formula structure, golden bytes, and completion stripping."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from treegen.errors import EmptyCompletionError, TemplateError
from treegen.scheduler import prompt_for_layer
from treegen.templates import (LLAMA2_CHAT, PLAIN, ChatTemplate, get_template,
                               render_continuation_prompt, render_dialogue_prompt,
                               strip_completion)

from conftest import pt_config

GOLDEN = Path(__file__).parent / "golden"

# distinct non-empty markers so occurrences are countable
TAGGED = ChatTemplate(id="tagged", system_open="<s>", system_close="</s>",
                      user_open="<u>", user_close="</u>",
                      assistant_open="<a>", assistant_close="</a>",
                      turn_separator="|")


# --- degenerate plain-template renders -----------------------------------------

def test_empty_path_plain_is_just_the_system_prompt():
    assert render_dialogue_prompt([], PLAIN, "S") == "S"


def test_plain_concatenation_of_turns():
    assert render_dialogue_prompt(["q", "r"], PLAIN, "S") == "Sqr"
    assert render_dialogue_prompt(["q"], PLAIN, "S") == "Sq"


# --- marker counting (formula structure) ------------------------------------------

@pytest.mark.parametrize("turns", [0, 1, 2, 3])
def test_question_prompt_marker_counts(turns):
    path = [t for i in range(turns) for t in (f"q{i}", f"r{i}")]
    out = render_dialogue_prompt(path, TAGGED, "S")
    assert out.count("<u>") == turns + 1
    assert out.count("<a>") == turns
    assert out.endswith("<u>")


@pytest.mark.parametrize("turns", [1, 2, 3])
def test_answer_prompt_marker_counts(turns):
    path = [t for i in range(turns - 1) for t in (f"q{i}", f"r{i}")] + [f"q{turns - 1}"]
    out = render_dialogue_prompt(path, TAGGED, "S")
    assert out.count("<u>") == turns
    assert out.count("<a>") == turns
    assert out.endswith("</u><a>")


def test_turn_roles_follow_position():
    out = render_dialogue_prompt(["q0", "r0", "q1"], TAGGED, "S")
    assert out == "<s>S</s><u>q0</u><a>r0</a><u>q1</u><a>"


def test_question_prompt_is_prefix_of_extended_answer_prompt():
    for turns in range(4):
        path = [t for i in range(turns) for t in (f"q{i}", f"r{i}")]
        q_prompt = render_dialogue_prompt(path, TAGGED, "S")
        a_prompt = render_dialogue_prompt(path + ["next question"], TAGGED, "S")
        assert a_prompt.startswith(q_prompt)


def test_rendering_is_pure():
    path = ["q1", "r1", "q2", "r2"]
    a = render_dialogue_prompt(path, LLAMA2_CHAT, "sys")
    b = render_dialogue_prompt(path, LLAMA2_CHAT, "sys")
    assert a == b and a is not b


# --- llama2 golden fixtures ---------------------------------------------------------

def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_llama2_first_question_prompt_matches_golden():
    out = render_dialogue_prompt([], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p1.txt")
    assert out.startswith("[INST] <<SYS>>\n")
    assert "\n<</SYS>>\n\n" in out


def test_llama2_first_answer_prompt_matches_golden():
    out = render_dialogue_prompt(["q"], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p2.txt")
    assert out == "[INST] <<SYS>>\nYou are helpful.\n<</SYS>>\n\nq [/INST]"


def test_llama2_second_question_prompt_matches_golden():
    out = render_dialogue_prompt(["q", "r"], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p3.txt")
    assert out.endswith("[INST] ")
    assert out.count("[INST]") == 2 and out.count("[/INST]") == 1


def test_llama2_second_answer_prompt_matches_golden():
    out = render_dialogue_prompt(["q", "r", "q2"], LLAMA2_CHAT, "You are helpful.")
    assert out == _golden("llama2_p4.txt")
    assert out.endswith("</s><s>[INST] q2 [/INST]")
    assert out.count("[INST]") == 2 and out.count("[/INST]") == 2


# --- PT continuation prompts -----------------------------------------------------------

def test_continuation_prompt_empty_path_is_exact():
    prompt = "Here are some useful world knowledge:"
    assert render_continuation_prompt([], prompt, " ") == prompt


def test_continuation_prompt_joins_with_separator():
    out = render_continuation_prompt(["fact A"], "P0", separator="\n")
    assert out == "P0\nfact A"


def test_continuation_prompt_has_no_role_markers():
    out = render_continuation_prompt(["fact A", "fact B"], "P0", separator=" ")
    for marker in LLAMA2_CHAT.markers + TAGGED.markers:
        assert marker not in out


def test_pt_layer_prompt_joins_texts_with_the_template_separator():
    config = pt_config([2, 2, 2], system_prompt="Here are some useful world knowledge:")
    out = prompt_for_layer(["fact A", "fact B"], config, LLAMA2_CHAT)
    assert out == "Here are some useful world knowledge:\nfact A\nfact B"
    assert out == _golden("pt_prompt.txt")


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


def test_marker_chars_are_one_rare_character_of_each_marker():
    assert LLAMA2_CHAT.marker_chars == {"[", "<"}
    assert PLAIN.marker_chars == frozenset()
    words = ChatTemplate(id="words", system_open="\nSystem: ", user_open="User")
    assert words.marker_chars == {":", "U"}


def reference_strip_completion(raw, stop_markers, template):
    """The plain algorithm: one search per marker on every text, each bounded
    by the earliest cut found so far."""
    cut = len(raw)
    for markers in (stop_markers, template.markers):
        for marker in markers:
            if marker:
                idx = raw.find(marker, 0, cut + len(marker) - 1)
                if idx != -1:
                    cut = idx
    text = raw[:cut].strip()
    if not text:
        raise EmptyCompletionError("completion empty after stripping markers")
    return text


def _outcome(strip, raw, stop_markers, template):
    try:
        return strip(raw, stop_markers, template)
    except EmptyCompletionError as exc:
        return EmptyCompletionError, str(exc)


def test_strip_equals_the_plain_search_on_random_marker_texts():
    templates = (PLAIN, LLAMA2_CHAT, TAGGED)
    markers = sorted({m for t in templates for m in t.markers})
    # markers, their halves (so texts hold overlapping and partial markers),
    # their rare characters alone, and prose
    fragments = sorted({*markers, *(m[:len(m) // 2] for m in markers),
                        *(m[len(m) // 2:] for m in markers),
                        "[", "<", "/", ">", "]", "INST", "SYS", " ", "\n", "a", "word",
                        "STOP", "caf\u00e9"} - {""})
    stop_sets = [(), ("",), ("STOP",), ("[INST]",), ("", "</s>"), ("INST]", "[/"),
                 ("<<", "<"), ("s>[", "S>\n"), ("\n",), ("a", "word"), ("\u00e9",)]
    rng = random.Random("strip")
    empty = cut = searched = 0
    for trial in range(100_000):
        template = templates[trial % len(templates)]
        if trial % 4 == 3:  # stop markers drawn from the fragments, empty ones included
            stop_markers = [rng.choice(fragments + [""]) for _ in range(rng.randint(1, 3))]
        else:
            stop_markers = rng.choice(stop_sets)
        if trial % 10 == 9:  # nothing but markers
            raw = "".join(rng.choices(list(template.markers) + [m for m in stop_markers if m]
                                      or [""], k=rng.randint(1, 4)))
        else:
            raw = "".join(rng.choices(fragments, k=rng.randint(0, 6)))
        want = _outcome(reference_strip_completion, raw, stop_markers, template)
        assert _outcome(strip_completion, raw, stop_markers, template) == want, (
            raw, stop_markers, template.id)
        empty += isinstance(want, tuple)
        cut += not isinstance(want, tuple) and want != raw.strip()
        searched += any(c in raw for c in template.marker_chars)
    assert min(empty, cut, searched, 100_000 - searched) > 10_000, (empty, cut, searched)


# --- template lookup ----------------------------------------------------------------------

def test_builtin_lookup():
    assert get_template("plain") is PLAIN
    assert get_template("llama2-chat") is LLAMA2_CHAT
    with pytest.raises(TemplateError):
        get_template("nope")
