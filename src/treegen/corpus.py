"""Corpus materialization: dialogue records, turn policies, and exports.

A completed SFT tree yields one conversation per root-to-leaf path. Turn
policies can instead truncate to a fixed turn count (one record per distinct
even-depth ancestor, so identical prefixes are never emitted twice) or draw a
seeded mixture whose empirical turn-count distribution targets given weights.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, ModeError
from .templates import get_template
from .tree import Mode, Role, Tree

HUMAN = "human"
GPT = "gpt"

_ROLE_NAMES = {Role.QUESTION: HUMAN, Role.ANSWER: GPT}


@dataclass(frozen=True)
class Turn:
    role: str  # "human" | "gpt"
    value: str


@dataclass(frozen=True)
class ConversationRecord:
    """One exported dialogue: complete alternating human/gpt turns."""

    id: str
    system: str
    turns: tuple[Turn, ...]
    source_leaf: str
    turn_count: int

    def validate(self) -> None:
        if not self.turns or len(self.turns) % 2 != 0:
            raise ConfigError(f"record {self.id}: turns must be complete pairs")
        for i, turn in enumerate(self.turns):
            expected = HUMAN if i % 2 == 0 else GPT
            if turn.role != expected:
                raise ConfigError(
                    f"record {self.id}: turn {i} has role {turn.role!r}, "
                    f"expected {expected!r}")
        if self.turn_count != len(self.turns) // 2:
            raise ConfigError(f"record {self.id}: turn_count mismatch")


@dataclass(frozen=True)
class TurnPolicy:
    """How conversations are drawn from the tree.

    ``fixed`` emits every distinct depth-2k prefix; ``mixture`` draws records
    so the empirical turn-count distribution targets ``weights`` (sampling
    without replacement within each turn-count stratum, deterministic under
    ``sample_seed``).
    """

    kind: str  # "fixed" | "mixture"
    k: int | None = None  # fixed: None means full tree depth
    weights: tuple[tuple[int, float], ...] | None = None
    sample_seed: int = 0

    @classmethod
    def fixed(cls, k: int | None = None) -> "TurnPolicy":
        return cls(kind="fixed", k=k)

    @classmethod
    def mixture(cls, weights: dict[int, float], sample_seed: int = 0) -> "TurnPolicy":
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights must sum to 1 (got {total})")
        if any(t < 1 for t in weights):
            raise ConfigError("turn counts must be >= 1")
        if any(not w >= 0 for w in weights.values()):  # NaN too
            raise ConfigError(f"mixture weights must be >= 0 (got {weights})")
        ordered = tuple(sorted((int(t), float(w)) for t, w in weights.items()))
        return cls(kind="mixture", weights=ordered, sample_seed=sample_seed)


def gaussian_turn_weights(turn_counts: Sequence[int] = (1, 2, 3, 4),
                          mean: float = 2.5, std: float = 1.0) -> dict[int, float]:
    """Discretized normal over the given turn counts, normalized to sum 1."""
    raw = {t: math.exp(-((t - mean) ** 2) / (2 * std * std)) for t in turn_counts}
    total = sum(raw.values())
    return {t: v / total for t, v in raw.items()}


def gaussian_turn_policy(sample_seed: int = 0, turn_counts: Sequence[int] = (1, 2, 3, 4),
                         mean: float = 2.5, std: float = 1.0) -> TurnPolicy:
    return TurnPolicy.mixture(gaussian_turn_weights(turn_counts, mean, std),
                              sample_seed=sample_seed)


# --- building records --------------------------------------------------------


def _record_for_node(tree: Tree, node_id: str, turn_count: int) -> ConversationRecord:
    path = tree.path_nodes(node_id)
    turns = tuple(Turn(role=_ROLE_NAMES[n.role], value=n.text) for n in path)
    return ConversationRecord(
        id=f"{node_id}:{turn_count}",
        system=tree.config.system_prompt,
        turns=turns,
        source_leaf=node_id,
        turn_count=turn_count,
    )


def build_corpus(tree: Tree, policy: TurnPolicy | None = None,
                 permissive: bool = False) -> list[ConversationRecord]:
    """Materialize conversation records from a completed SFT tree."""
    if tree.config.mode is not Mode.SFT:
        raise ModeError("build_corpus needs an SFT tree; use export_pt for PT trees")
    max_turns = tree.export_depth(permissive) // 2
    if max_turns == 0:
        return []

    policy = policy or TurnPolicy.fixed()
    if policy.kind == "fixed":
        k = policy.k if policy.k is not None else max_turns
        if not 1 <= k <= max_turns:
            raise ConfigError(f"fixed turn count {k} outside [1, {max_turns}]")
        return [_record_for_node(tree, nid, k)
                for nid in tree.layer_ids(2 * k)]

    if policy.kind != "mixture":
        raise ConfigError(f"unknown turn policy kind {policy.kind!r}")
    if policy.weights is None:
        raise ConfigError("mixture policy has no weights")
    weights = dict(policy.weights)
    if any(t > max_turns for t in weights):
        raise ConfigError(
            f"mixture includes turn counts beyond the tree depth "
            f"({sorted(weights)} vs max {max_turns})")

    strata = {t: tree.layer_ids(2 * t) for t in weights}
    quotas = _mixture_quotas(weights, {t: len(ids) for t, ids in strata.items()})
    rng = random.Random(policy.sample_seed)
    records: list[ConversationRecord] = []
    for t in sorted(weights):
        take = quotas.get(t, 0)
        if take == 0:
            continue
        ids = strata[t]  # in structural order, so sorted indices keep it
        chosen = sorted(rng.sample(range(len(ids)), take))
        records.extend(_record_for_node(tree, ids[i], t) for i in chosen)
    return records


def _mixture_quotas(weights: dict[int, float], available: dict[int, int]) -> dict[int, int]:
    """Per-stratum draw counts, each at most the stratum's availability.

    The total is the largest n for which every stratum can cover its share;
    rounding leftovers go to the largest remainders, skipping a stratum that
    is already full.
    """
    positive = {t: w for t, w in weights.items() if w > 0}
    if not positive:
        return {}
    n = min(int(available[t] / w) for t, w in positive.items())

    shares = {t: w * n for t, w in positive.items()}
    quotas = {t: int(math.floor(s)) for t, s in shares.items()}  # n <= available / w
    leftover = n - sum(quotas.values())
    for t in sorted(positive, key=lambda t: (-(shares[t] - quotas[t]), t)):
        if leftover <= 0:
            break
        if quotas[t] < available[t]:
            quotas[t] += 1
            leftover -= 1
    return quotas


# --- exports -------------------------------------------------------------------
#
# The exporters write, byte for byte, what json.dump(elements, indent=2) and
# json.dumps(element) write with ensure_ascii=False, from fixed templates: any
# indent puts json.dump on its pure-Python encoder, and a shared ancestor's
# text would be escaped again for every record under it.

# one element of the ShareGPT array; a turn's role follows from its position
_ARRAY_TURN = ('      {\n        "from": "human",\n        "value": %s\n      }',
               '      {\n        "from": "gpt",\n        "value": %s\n      }')
_LINE_TURN = ('{"from": "human", "value": %s}', '{"from": "gpt", "value": %s}')


def _json_str(s: str) -> str:
    """``s`` as ``json.dumps(s, ensure_ascii=False)`` writes it.

    On ASCII text the ASCII escaper is faster and writes the same bytes,
    except for U+007F, which only it escapes. The mapping is per code point,
    so the escape of ``a + b`` is the escapes of ``a`` and ``b`` joined
    inside one pair of quotes.
    """
    if s.isascii() and "\x7f" not in s:
        return encode_basestring_ascii(s)
    return encode_basestring(s)


def _escape_rows(rows: Iterable[Sequence[str]]) -> Iterator[list[str]]:
    """Each row of texts as JSON strings.

    A text that is the same object as the previous row's text at that
    position (a shared ancestor's: they are adjacent in id order) reuses its
    escaped form, so one row's escapes are held at a time.
    """
    texts: Sequence[str] = ()
    previous: list[str] = []
    for row in rows:
        shared = len(texts)
        previous = [previous[i] if i < shared and text is texts[i] else _json_str(text)
                    for i, text in enumerate(row)]
        texts = row
        yield previous


def _escaped_records(records: Sequence[ConversationRecord],
                     inline_system: bool) -> Iterator[tuple[str, list[str]]]:
    """(escaped id, escaped turn values) of every record in id order. Every
    record is validated before this returns."""
    for record in records:
        record.validate()
    ordered = sorted(records, key=lambda r: r.id)
    rows = _escape_rows([turn.value for turn in record.turns] for record in ordered)
    return ((_json_str(record.id),
             # f"{system}\n\n{value}", escaped from its parts
             [_json_str(record.system)[:-1] + "\\n\\n" + values[0][1:], *values[1:]]
             if inline_system and record.system else values)
            for record, values in zip(ordered, rows))


def _write(path: str | Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` to ``path`` as UTF-8, newlines untranslated. An
    OSError, from the open or from any write, is a ConfigError naming the file."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def export_sharegpt(records: Sequence[ConversationRecord], path: str | Path,
                    inline_system: bool = False) -> Path:
    """Write one JSON array of {"id", "conversations"} elements, ordered by id,
    indented by 2 as ``json.dump`` indents it."""
    elements = _escaped_records(records, inline_system)

    def lines() -> Iterator[str]:
        opening = "[\n"
        for record_id, values in elements:
            turns = ",\n".join(_ARRAY_TURN[i & 1] % value for i, value in enumerate(values))
            yield (f'{opening}  {{\n    "id": {record_id},\n    "conversations": [\n'
                   f'{turns}\n    ]\n  }}')
            opening = ",\n"
        yield "[]\n" if opening == "[\n" else "\n]\n"

    return _write(path, lines())


def export_jsonl(records: Sequence[ConversationRecord], path: str | Path,
                 inline_system: bool = False) -> Path:
    """Same element shape as the ShareGPT array, one record per line."""
    elements = _escaped_records(records, inline_system)
    return _write(path, (
        '{"id": %s, "conversations": [%s]}\n'
        % (record_id, ", ".join(_LINE_TURN[i & 1] % value for i, value in enumerate(values)))
        for record_id, values in elements))


def export_pt(tree: Tree, path: str | Path, permissive: bool = False) -> Path:
    """One line per leaf path: {"text": continuations joined by the template
    separator}, system prompt excluded."""
    if tree.config.mode is not Mode.PT:
        raise ModeError("export_pt needs a PT tree; use the conversation exports for SFT")
    separator = _json_str(get_template(tree.config.template_id).turn_separator)[1:-1]
    paths = tree.leaf_paths(permissive=permissive)  # before the file is opened
    return _write(path, ('{"text": "%s"}\n' % separator.join(value[1:-1] for value in texts)
                         for texts in _escape_rows([node.text for node in p] for p in paths)))


def validate_sharegpt_file(path: str | Path) -> list[ConversationRecord]:
    """Re-parse an exported file (array or JSONL) into records (system empty)
    and re-check each record's turn alternation.

    Raises ConfigError naming the file and the element (array index or JSONL
    line) that is not JSON, not a ShareGPT record, or not a valid record.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except ValueError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    if text.lstrip().startswith("["):
        elements = [(f"{path} element {i}", element)
                    for i, element in enumerate(_parse_json(text, str(path)))]
    else:
        elements = [(f"{path} line {n}", _parse_json(line, f"{path} line {n}"))
                    for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    return [_record_from_element(element, where) for where, element in elements]


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc


def _record_from_element(element, where: str) -> ConversationRecord:
    try:
        turns = tuple(Turn(role=c["from"], value=c["value"])
                      for c in element["conversations"])
        record_id = str(element["id"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{where} is not a ShareGPT record "
                          f"({type(exc).__name__}: {exc})") from exc
    record = ConversationRecord(id=record_id, system="", turns=turns,
                                source_leaf=record_id.split(":")[0],
                                turn_count=len(turns) // 2)
    try:
        record.validate()
    except ConfigError as exc:
        raise ConfigError(f"{where} is not a valid record: {exc}") from exc
    return record


def sample_to_size(records: Sequence[ConversationRecord], target_n: int,
                   seed: int) -> list[ConversationRecord]:
    """Uniform random subset of exactly ``target_n``, original order preserved."""
    if target_n > len(records):
        raise ConfigError(
            f"target size {target_n} exceeds corpus size {len(records)}")
    if target_n == len(records):
        return list(records)
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(records)), target_n))
    return [records[i] for i in keep]
