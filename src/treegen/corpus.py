"""Corpus materialization: dialogue records, turn policies, and exports.

A completed SFT tree yields one conversation per root-to-leaf path. Turn
policies can instead truncate to a fixed turn count (one record per distinct
even-depth ancestor, so identical prefixes are never emitted twice) or draw a
seeded mixture whose empirical turn-count distribution targets given weights.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, ModeError
from .templates import get_template
from .tree import Mode, Role, Tree, structural_key

log = logging.getLogger(__name__)

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
        chosen = rng.sample(strata[t], take)
        chosen.sort(key=structural_key)
        records.extend(_record_for_node(tree, nid, t) for nid in chosen)
    return records


def _mixture_quotas(weights: dict[int, float], available: dict[int, int]) -> dict[int, int]:
    """Per-stratum draw counts.

    The total is the largest n for which every stratum can cover its share;
    rounding leftovers go to the largest remainders. If a stratum still cannot
    cover its quota (degenerate availability), the spill is redistributed
    proportionally to strata with spare capacity, with a warning.
    """
    positive = {t: w for t, w in weights.items() if w > 0}
    if not positive:
        return {}
    n = min(int(available[t] / w) for t, w in positive.items())
    n = max(n, 0)

    shares = {t: w * n for t, w in positive.items()}
    quotas = {t: int(math.floor(s)) for t, s in shares.items()}
    leftover = n - sum(quotas.values())
    for t in sorted(positive, key=lambda t: (-(shares[t] - quotas[t]), t)):
        if leftover <= 0:
            break
        quotas[t] += 1
        leftover -= 1

    spill = 0
    for t in quotas:
        if quotas[t] > available[t]:
            spill += quotas[t] - available[t]
            quotas[t] = available[t]
    while spill > 0:
        carriers = {t: available[t] - quotas[t] for t in quotas if available[t] > quotas[t]}
        if not carriers:
            log.warning("mixture shortfall: %d records could not be placed", spill)
            break
        log.warning("mixture stratum shortfall; redistributing %d records", spill)
        weight_sum = sum(positive[t] for t in carriers)
        placed = 0
        for t, capacity in sorted(carriers.items()):
            add = min(capacity, max(1, int(round(spill * positive[t] / weight_sum))))
            add = min(add, spill - placed)
            quotas[t] += add
            placed += add
            if placed >= spill:
                break
        if placed == 0:
            break
        spill -= placed
    return quotas


# --- exports -------------------------------------------------------------------


def _sharegpt_element(record: ConversationRecord, inline_system: bool) -> dict:
    conversations = []
    for i, turn in enumerate(record.turns):
        value = turn.value
        if inline_system and i == 0 and record.system:
            value = f"{record.system}\n\n{value}"
        conversations.append({"from": turn.role, "value": value})
    return {"id": record.id, "conversations": conversations}


def export_sharegpt(records: Sequence[ConversationRecord], path: str | Path,
                    inline_system: bool = False) -> Path:
    """Write one JSON array of {"id", "conversations"} elements, ordered by id."""
    path = Path(path)
    for record in records:
        record.validate()
    elements = [_sharegpt_element(r, inline_system)
                for r in sorted(records, key=lambda r: r.id)]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(elements, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def export_jsonl(records: Sequence[ConversationRecord], path: str | Path,
                 inline_system: bool = False) -> Path:
    """Same element shape as the ShareGPT array, one record per line."""
    path = Path(path)
    for record in records:
        record.validate()
    elements = [_sharegpt_element(r, inline_system)
                for r in sorted(records, key=lambda r: r.id)]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for element in elements:
                fh.write(json.dumps(element, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def export_pt(tree: Tree, path: str | Path, permissive: bool = False) -> Path:
    """One line per leaf path: {"text": continuations joined by the template
    separator}, system prompt excluded."""
    if tree.config.mode is not Mode.PT:
        raise ModeError("export_pt needs a PT tree; use the conversation exports for SFT")
    separator = get_template(tree.config.template_id).turn_separator
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for leaf_path in tree.leaf_paths(permissive=permissive):
                text = separator.join(node.text for node in leaf_path)
                fh.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def load_sharegpt(path: str | Path) -> list[ConversationRecord]:
    """Re-parse an exported file (array or JSONL) into records (system empty)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        elements = json.loads(text)
    else:
        elements = [json.loads(line) for line in text.splitlines() if line.strip()]
    records = []
    for element in elements:
        turns = tuple(Turn(role=c["from"], value=c["value"])
                      for c in element["conversations"])
        record = ConversationRecord(
            id=str(element["id"]), system="", turns=turns,
            source_leaf=str(element["id"]).split(":")[0],
            turn_count=len(turns) // 2,
        )
        records.append(record)
    return records


def validate_sharegpt_file(path: str | Path) -> list[ConversationRecord]:
    """Re-parse and re-check alternation; raises on any malformed record."""
    records = load_sharegpt(path)
    for record in records:
        record.validate()
    return records


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
