"""Chat-template rendering for tree prompts.

A template is a fixed set of role-marker byte strings; rendering is pure
concatenation. A dialogue prompt is the system block followed by the completed
turns, ending with the opening marker of whichever role the model should
continue. With every marker empty the render degenerates to plain
concatenation of the texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class ChatTemplate:
    id: str
    system_open: str = ""
    system_close: str = ""
    user_open: str = ""
    user_close: str = ""
    assistant_open: str = ""
    assistant_close: str = ""
    turn_separator: str = " "

    @cached_property
    def markers(self) -> tuple[str, ...]:
        """All non-empty role markers (the separator is not a marker)."""
        candidates = (self.system_open, self.system_close, self.user_open,
                      self.user_close, self.assistant_open, self.assistant_close)
        return tuple(m for m in candidates if m)

    @cached_property
    def marker_chars(self) -> frozenset[str]:
        """One character of each marker, which any text holding the marker holds."""
        return frozenset(map(_marker_char, self.markers))


def _marker_char(marker: str) -> str:
    """The first character of a non-empty ``marker`` that is neither
    alphanumeric nor whitespace (rare in prose, so cheap to rule out), else
    its first character."""
    return next((c for c in marker if not (c.isalnum() or c.isspace())), marker[0])


PLAIN = ChatTemplate(id="plain")

# Llama-2-chat marker realization: the system prompt is enclosed in <<SYS>>
# inside the first instruction block, and the model is trained to answer after
# "[/INST]", so that string acts as the assistant-open marker. The assistant
# close carries the boundary into the next instruction. Byte-exact whitespace
# is pinned by the fixtures under tests/golden/.
LLAMA2_CHAT = ChatTemplate(
    id="llama2-chat",
    system_open="[INST] <<SYS>>\n",
    system_close="\n<</SYS>>\n\n",
    user_open="",
    user_close="",
    assistant_open=" [/INST]",
    assistant_close=" </s><s>[INST] ",
    turn_separator="\n",
)

# A tree renders with the builtin its config's template_id names, the value
# config.json records and hashes; a new chat template is one more entry here.
BUILTIN_TEMPLATES: dict[str, ChatTemplate] = {t.id: t for t in (PLAIN, LLAMA2_CHAT)}


def get_template(template_id: str) -> ChatTemplate:
    try:
        return BUILTIN_TEMPLATES[template_id]
    except KeyError:
        raise ConfigError(
            f"unknown template {template_id!r}; built-ins: {sorted(BUILTIN_TEMPLATES)}"
        ) from None


def render_dialogue_prompt(path: Sequence[str], template: ChatTemplate,
                           system_prompt: str) -> str:
    """Prompt after which the model continues the dialogue ``path``.

    Turn roles follow from position, as in a corpus record: text i is the
    user's for even i and the assistant's for odd i. The prompt ends with the
    opening marker of the role that speaks next.
    """
    parts = [template.system_open, system_prompt, template.system_close, template.user_open]
    for i, text in enumerate(path):
        if i % 2:
            parts += [text, template.assistant_close, template.user_open]
        else:
            parts += [text, template.user_close, template.assistant_open]
    return "".join(parts)


def render_continuation_prompt(path: Sequence[str], system_prompt: str,
                               separator: str) -> str:
    """Role-free continuation prompt: the system prompt and the ancestor texts
    joined by ``separator``. Only PT-mode layers continue; ``validate_config``
    rejects a continuation layer in SFT mode."""
    return separator.join([system_prompt, *path])


def strip_completion(raw: str, stop_markers: Sequence[str],
                     template: ChatTemplate) -> str:
    """Truncate a raw completion at the first stop or role marker and trim it.

    Returns ``""`` when nothing survives, which callers treat as a rejected
    candidate. Markers produced by the model are removed rather than escaped
    so they cannot corrupt deeper prompt renders.

    A text that holds no ``_marker_char`` of a stop or role marker holds no
    marker, so it is only trimmed. Any other text is searched for each marker,
    each search bounded by the earliest cut found so far.
    """
    chars = template.marker_chars
    if any(stop_markers):
        chars = chars.union(_marker_char(m) for m in stop_markers if m)
    cut = len(raw)
    if any(c in raw for c in chars):
        for markers in (stop_markers, template.markers):
            for marker in markers:
                if marker:
                    # only an occurrence that starts before the current cut can move it
                    idx = raw.find(marker, 0, cut + len(marker) - 1)
                    if idx != -1:
                        cut = idx
    return raw[:cut].strip()
