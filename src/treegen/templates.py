"""Chat-template rendering for tree prompts.

A template is a fixed set of role-marker byte strings; rendering is pure
concatenation. A dialogue prompt is the system block followed by the completed
turns, ending with the opening marker of whichever role the model should
continue. With every marker empty the render degenerates to plain
concatenation of the texts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import EmptyCompletionError, StructuralError, TemplateError


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

    def markers(self) -> tuple[str, ...]:
        """All non-empty role markers (the separator is not a marker)."""
        candidates = (self.system_open, self.system_close, self.user_open,
                      self.user_close, self.assistant_open, self.assistant_close)
        return tuple(m for m in candidates if m)


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

BUILTIN_TEMPLATES: dict[str, ChatTemplate] = {t.id: t for t in (PLAIN, LLAMA2_CHAT)}

_TEMPLATE_KEYS = {
    "id", "system_open", "system_close", "user_open", "user_close",
    "assistant_open", "assistant_close", "turn_separator",
}


def get_template(template_id: str) -> ChatTemplate:
    try:
        return BUILTIN_TEMPLATES[template_id]
    except KeyError:
        raise TemplateError(
            f"unknown template {template_id!r}; built-ins: {sorted(BUILTIN_TEMPLATES)}"
        ) from None


def load_template(path: str | Path) -> ChatTemplate:
    """Load a template from a JSON file using the ChatTemplate field names."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise TemplateError(f"cannot read template {path}: {exc}") from exc
    if not isinstance(raw, dict) or "id" not in raw:
        raise TemplateError(f"template file {path} must be an object with an 'id'")
    unknown = set(raw) - _TEMPLATE_KEYS
    if unknown:
        raise TemplateError(f"unknown template keys in {path}: {sorted(unknown)}")
    return ChatTemplate(**{k: str(v) for k, v in raw.items()})


def resolve_template(spec: str) -> ChatTemplate:
    """Builtin id, or a path to a template JSON file."""
    if spec in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[spec]
    if Path(spec).exists():
        return load_template(spec)
    return get_template(spec)


def _render_system(template: ChatTemplate, system_prompt: str) -> list[str]:
    return [template.system_open, system_prompt, template.system_close]


def render_question_prompt(path: Sequence[str], template: ChatTemplate,
                           system_prompt: str) -> str:
    """Prompt after which the model continues in the user role.

    ``path`` holds the ancestor texts in order and must consist of complete
    (question, answer) turns.
    """
    if len(path) % 2 != 0:
        raise StructuralError(
            f"question prompt needs complete turns; got {len(path)} path texts")
    parts = _render_system(template, system_prompt)
    for i in range(0, len(path), 2):
        parts += [template.user_open, path[i], template.user_close,
                  template.assistant_open, path[i + 1], template.assistant_close]
    parts.append(template.user_open)
    return "".join(parts)


def render_answer_prompt(path: Sequence[str], template: ChatTemplate,
                         system_prompt: str) -> str:
    """Prompt after which the model continues in the assistant role.

    ``path`` must end with an unanswered question.
    """
    if len(path) % 2 != 1:
        raise StructuralError(
            f"answer prompt needs a trailing unanswered question; got {len(path)} path texts")
    parts = _render_system(template, system_prompt)
    for i in range(0, len(path) - 1, 2):
        parts += [template.user_open, path[i], template.user_close,
                  template.assistant_open, path[i + 1], template.assistant_close]
    parts += [template.user_open, path[-1], template.user_close, template.assistant_open]
    return "".join(parts)


def render_continuation_prompt(path: Sequence[str], system_prompt: str,
                               separator: str = " ") -> str:
    """Role-free continuation prompt: the system prompt and the ancestor texts
    joined by ``separator``. Only PT-mode layers continue; ``validate_config``
    rejects a continuation layer in SFT mode."""
    return separator.join([system_prompt, *path])


def strip_completion(raw: str, stop_markers: Sequence[str],
                     template: ChatTemplate) -> str:
    """Truncate a raw completion at the first stop or role marker and trim it.

    Raises EmptyCompletionError when nothing survives, which callers treat as
    a rejected candidate. Markers produced by the model are removed rather
    than escaped so they cannot corrupt deeper prompt renders.
    """
    cut = len(raw)
    for marker in tuple(stop_markers) + template.markers():
        if not marker:
            continue
        idx = raw.find(marker)
        if idx != -1 and idx < cut:
            cut = idx
    text = raw[:cut].strip()
    if not text:
        raise EmptyCompletionError("completion empty after stripping markers")
    return text
