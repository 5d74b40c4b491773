"""Corpus materialization: dialogue records, turn policies, exports and stats.

A record is one depth-2k prefix of an SFT tree: its id, the system prompt and
the path's texts, human first, so a turn's role follows from its position.
A turn policy draws the records: within each turn-count stratum (the nodes of
layer 2k, in structural order), a seeded draw without replacement sized so
the turn counts follow the policy's weights. ``fixed(k)`` is the one-stratum
mixture ``{k: 1.0}``, which takes every distinct depth-2k prefix, and no
policy is ``fixed`` at the tree's export depth: one record per leaf path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError
from .templates import get_template
from .tree import Mode, Tree, json_escape

HUMAN = "human"
GPT = "gpt"


class _EscapeFree(tuple):
    """The path texts of a tree whose ``escape_free`` vouches for them: the
    exporters write them, and the id of the record that holds them, as they
    are."""

    __slots__ = ()


@dataclass(frozen=True)
class ConversationRecord:
    """One exported dialogue. ``turns`` are its texts in order: turn i is
    human's for even i and gpt's for odd i. Construction raises ConfigError
    unless the turns are complete pairs, and stores them as a plain tuple."""

    id: str
    system: str
    turns: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.turns) is not tuple:  # drops an _EscapeFree mark, which vouches for the id
            object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns or len(self.turns) % 2:
            raise ConfigError(f"record {self.id}: turns must be complete pairs "
                              f"(got {len(self.turns)} turns)")

    @property
    def turn_count(self) -> int:
        return len(self.turns) // 2


@dataclass(frozen=True)
class TurnPolicy:
    """Turn-count weights for the records drawn from a tree, and the seed of
    the draw. Build it with ``fixed`` or ``mixture``."""

    weights: tuple[tuple[int, float], ...]
    sample_seed: int = 0

    @classmethod
    def fixed(cls, k: int) -> "TurnPolicy":
        """Every distinct depth-2k prefix: the one-stratum mixture {k: 1.0}."""
        return cls.mixture({k: 1.0})

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
        return cls(weights=ordered, sample_seed=sample_seed)


def gaussian_turn_policy(sample_seed: int = 0,
                         turn_counts: Sequence[int] = (1, 2, 3, 4)) -> TurnPolicy:
    """The G-Turn mixture: a normal of mean 2.5 and std 1 discretized over
    ``turn_counts`` and normalized to sum 1."""
    raw = {t: math.exp(-((t - 2.5) ** 2) / 2) for t in turn_counts}
    total = sum(raw.values())
    return TurnPolicy.mixture({t: v / total for t, v in raw.items()},
                              sample_seed=sample_seed)


# --- building records --------------------------------------------------------


def _draw(rng: random.Random, n: int, k: int, alone: bool = True) -> Sequence[int]:
    """``k`` of ``range(n)`` without replacement, in increasing order. The
    only draw of ``rng`` (``alone``) takes all ``n`` without touching it: no
    later draw would see where it left ``rng``."""
    return range(n) if alone and k == n else sorted(rng.sample(range(n), k))


def build_corpus(tree: Tree, policy: TurnPolicy | None = None,
                 permissive: bool = False) -> list[ConversationRecord]:
    """Draw conversation records from a completed SFT tree, stratum by stratum
    in turn-count order, each stratum's records in structural order."""
    if tree.config.mode is not Mode.SFT:
        raise ConfigError("build_corpus needs an SFT tree; use --format pt for PT trees")
    max_turns = tree.export_depth(permissive) // 2
    if max_turns == 0:
        return []

    policy = policy or TurnPolicy.fixed(max_turns)
    weights = dict(policy.weights)
    if any(t > max_turns for t in weights):
        raise ConfigError(
            f"turn policy includes turn counts beyond the tree depth "
            f"({sorted(weights)} vs max {max_turns})")

    strata = {t: tree.layer_paths(2 * t) for t in weights}
    quotas = _mixture_quotas(weights, {t: len(paths) for t, paths in strata.items()})
    rng = random.Random(policy.sample_seed)
    system = tree.config.system_prompt
    row = _EscapeFree if tree.escape_free else tuple
    records: list[ConversationRecord] = []
    for t in sorted(weights):
        paths = strata[t]  # in structural order, so sorted indices keep it
        for i in _draw(rng, len(paths), quotas.get(t, 0), alone=len(weights) == 1):
            # a path holds complete pairs: no __init__ to check them and drop the mark
            record = object.__new__(ConversationRecord)
            record.__dict__.update(id=f"{paths[i][-1].id}:{t}", system=system,
                                   turns=row([node.text for node in paths[i]]))
            records.append(record)
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
# json.dumps(element) write with ensure_ascii=False: any indent puts json.dump
# on its pure-Python encoder, and a shared ancestor's text would be escaped
# again for every record under it. Each element is one ``%`` of a format built
# once per turn count from the fixed fragments below, which hold the quotes,
# over the record's escaped id and turn values.

# (head holding the id, the human and the gpt turn holding its value, the
# text between turns, tail); a turn's role follows from its position.
# A ShareGPT array element opens with the ",\n" that follows the one before.
_ARRAY_ELEMENT = (',\n  {\n    "id": "%s",\n    "conversations": [\n',
                  ('      {\n        "from": "human",\n        "value": "%s"\n      }',
                   '      {\n        "from": "gpt",\n        "value": "%s"\n      }'),
                  ",\n", "\n    ]\n  }")
_LINE_ELEMENT = ('{"id": "%s", "conversations": [',
                 ('{"from": "human", "value": "%s"}', '{"from": "gpt", "value": "%s"}'),
                 ", ", "]}\n")


def _escape_rows(rows: Iterable[Sequence[str]]) -> Iterator[Sequence[str]]:
    """Each row of texts escaped as JSON string bodies; an ``_EscapeFree``
    row is its own.

    A text that is the same object as the previous row's text at that
    position (a shared ancestor's: they are adjacent in id order) reuses its
    escaped form, so one row's escapes are held at a time.
    """
    texts: Sequence[str] = ()
    previous: Sequence[str] = ()
    for row in rows:
        shared = len(texts)
        previous = row if type(row) is _EscapeFree else [
            previous[i] if i < shared and text is texts[i] else json_escape(text)
            for i, text in enumerate(row)]
        texts = row
        yield previous


def _elements(records: Sequence[ConversationRecord], inline_system: bool,
              fragments: tuple) -> Iterator[str]:
    """Every record's element in id order, from ``fragments``."""
    head, turn, between, tail = fragments
    formats: dict[int, str] = {}  # by turn count
    system, prefix = None, ""  # the last system text and its escape, as rows reuse texts
    ordered = sorted(records, key=lambda r: r.id)
    for record, values in zip(ordered, _escape_rows(record.turns for record in ordered)):
        if inline_system and record.system:  # f"{system}\n\n{value}", escaped from its parts
            if record.system is not system:
                system, prefix = record.system, json_escape(record.system) + "\\n\\n"
            values = [prefix + values[0], *values[1:]]
        if (element := formats.get(len(values))) is None:
            element = formats[len(values)] = (
                head + between.join(turn[i & 1] for i in range(len(values))) + tail)
        yield element % (record.id if type(record.turns) is _EscapeFree
                         else json_escape(record.id), *values)


def _write(path: str | Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` to ``path`` as UTF-8, newlines untranslated. An
    OSError, from the open or from any write, is a ConfigError naming the
    file, and so is text that UTF-8 cannot hold (a lone surrogate), which
    also removes the partial file."""
    path = Path(path)
    try:
        # the 64 KiB buffer that replay reads with: a 2 MB export is 30 writes
        with open(path, "w", buffering=1 << 16, encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except (OSError, UnicodeEncodeError) as exc:
        if isinstance(exc, UnicodeEncodeError):  # raised after the open truncated the file
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def export_sharegpt(records: Sequence[ConversationRecord], path: str | Path,
                    inline_system: bool = False) -> Path:
    """Write one JSON array of {"id", "conversations"} elements, ordered by id,
    indented by 2 as ``json.dump`` indents it."""
    elements = _elements(records, inline_system, _ARRAY_ELEMENT)
    first = next(elements, None)
    if first is None:
        return _write(path, ["[]\n"])
    return _write(path, chain(["[" + first[1:]], elements, ["\n]\n"]))


def export_jsonl(records: Sequence[ConversationRecord], path: str | Path,
                 inline_system: bool = False) -> Path:
    """Same element shape as the ShareGPT array, one record per line."""
    return _write(path, _elements(records, inline_system, _LINE_ELEMENT))


def export_pt(tree: Tree, path: str | Path, permissive: bool = False) -> Path:
    """One line per leaf path: {"text": continuations joined by the template
    separator}, system prompt excluded."""
    if tree.config.mode is not Mode.PT:
        raise ConfigError("export_pt needs a PT tree; use --format sharegpt|jsonl for SFT trees")
    separator = json_escape(get_template(tree.config.template_id).turn_separator)
    paths = tree.leaf_paths(permissive=permissive)  # before the file is opened
    row = _EscapeFree if tree.escape_free else tuple
    return _write(path, ('{"text": "%s"}\n' % separator.join(texts) for texts in
                         _escape_rows(row([node.text for node in p]) for p in paths)))


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
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc


def _record_from_element(element, where: str) -> ConversationRecord:
    try:
        pairs = [(c["from"], c["value"]) for c in element["conversations"]]
        record_id = str(element["id"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{where} is not a ShareGPT record "
                          f"({type(exc).__name__}: {exc})") from exc
    try:
        for i, (role, value) in enumerate(pairs):
            if role != (expected := (HUMAN, GPT)[i & 1]):
                raise ConfigError(f"record {record_id}: turn {i} has role {role!r}, "
                                  f"expected {expected!r}")
            if not isinstance(value, str):
                raise ConfigError(f"record {record_id}: turn {i} has a value of type "
                                  f"{type(value).__name__}, not a string")
        return ConversationRecord(record_id, "", tuple(value for _, value in pairs))
    except ConfigError as exc:
        raise ConfigError(f"{where} is not a valid record: {exc}") from exc


def sample_to_size(records: Sequence[ConversationRecord], target_n: int,
                   seed: int) -> list[ConversationRecord]:
    """Uniform random subset of exactly ``target_n``, original order preserved."""
    if not 0 <= target_n <= len(records):
        raise ConfigError(f"target size {target_n} is not between 0 and the "
                          f"corpus size {len(records)}")
    return [records[i] for i in _draw(random.Random(seed), len(records), target_n)]


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

    def percentile(q: float) -> int:  # nearest rank, of a non-empty ``lengths``
        return lengths[max(1, math.ceil(q * len(lengths))) - 1]

    return {
        "record_count": len(records),
        "turn_histogram": {str(turns): count for turns, count in sorted(histogram.items())},
        "text_length_stats": {
            "min": lengths[0], "max": lengths[-1], "mean": sum(lengths) / len(lengths),
            "p50": percentile(0.50), "p95": percentile(0.95),
        } if lengths else {"min": 0, "max": 0, "mean": 0.0, "p50": 0, "p95": 0},
    }
