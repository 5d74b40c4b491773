"""Tree data model: configuration schema, node records, and structural queries.

A tree is grown layer by layer. Layer 0 is the root holding the system prompt;
layer i (1-based) holds up to ``branching_i`` children per layer-(i-1) parent.
In SFT mode odd layers are questions and even layers answers; in PT mode every
layer is a free continuation. Node ids are structural: the child-index path
from the root (e.g. ``"0.3.1"``), which makes ordering, checkpointing, and
resume deterministic.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ConfigError
from .fnv import hash_text
from .templates import BUILTIN_TEMPLATES

log = logging.getLogger(__name__)

ROOT_ID = "root"

# Default sampling temperatures when a layer does not set one explicitly:
# exploratory for questions/continuations, steadier for answers.
QUESTION_TEMPERATURE = 1.0
ANSWER_TEMPERATURE = 0.7


class Mode(str, Enum):
    SFT = "sft"
    PT = "pt"


class Role(str, Enum):
    ROOT = "root"
    QUESTION = "question"
    ANSWER = "answer"
    CONTINUATION = "continuation"


class TreeShape(str, Enum):
    WIDE = "wide-tree"        # branching >= 2 at layer 1, exactly 1 everywhere deeper
    BALANCE = "balance-tree"  # branching > 1 somewhere past layer 1
    CHAIN = "chain"           # branching 1 everywhere; schedules like a wide tree


def role_for_layer(mode: Mode, layer_index: int) -> Role:
    """Expected role of 1-based layer ``layer_index`` under ``mode``."""
    if mode is Mode.PT:
        return Role.CONTINUATION
    return Role.QUESTION if layer_index % 2 == 1 else Role.ANSWER


@dataclass(frozen=True)
class LayerSpec:
    """Per-layer recipe: how many children, how long, and how to sample them."""

    branching: int
    max_tokens: int
    role: Role
    temperature: float
    stop_markers: tuple[str, ...] = ()


@dataclass(frozen=True)
class TreeConfig:
    """Full generation recipe for one tree run."""

    mode: Mode
    system_prompt: str
    layers: tuple[LayerSpec, ...]
    oversample_factor: float = 2.0
    mmr_lambda: float = 0.5
    dedup_threshold: float = 0.95
    seed: int = 0
    template_id: str = "plain"

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def branching(self) -> tuple[int, ...]:
        return tuple(layer.branching for layer in self.layers)

    def layer(self, layer_index: int) -> LayerSpec:
        """1-based layer lookup."""
        return self.layers[layer_index - 1]


def classify_shape(branching: Sequence[int]) -> TreeShape:
    rest = branching[1:]
    if branching and branching[0] >= 2 and all(n == 1 for n in rest):
        return TreeShape.WIDE
    if any(n > 1 for n in rest):
        return TreeShape.BALANCE
    return TreeShape.CHAIN


def validate_config(config: TreeConfig) -> dict:
    """Check structural invariants; budget-shape issues are warnings only.

    Returns what ``treegen validate`` prints: ``{"errors": [...], "warnings":
    [...], "shape": <TreeShape value, or None when there are errors>}``.
    Never raises.
    """
    report = {"errors": [], "warnings": [], "shape": None}
    err = report["errors"].append
    warn = report["warnings"].append

    if config.depth == 0:
        err("config has no layers")
        return report
    if config.mode is Mode.SFT and config.depth % 2 != 0:
        err(f"odd depth in SFT mode (got {config.depth} layers; SFT trees need depth 2k)")

    for i, layer in enumerate(config.layers, start=1):
        expected = role_for_layer(config.mode, i)
        if layer.role is not expected:
            err(f"layer {i} role is {layer.role.value!r}, expected {expected.value!r} "
                f"for {config.mode.value} mode")
        if layer.branching < 1:
            err(f"layer {i} branching must be >= 1 (got {layer.branching})")
        if layer.max_tokens < 1:
            err(f"layer {i} max_tokens must be >= 1 (got {layer.max_tokens})")
        if layer.temperature < 0:
            err(f"layer {i} temperature must be >= 0 (got {layer.temperature})")

    if config.oversample_factor < 1.0:
        err(f"oversample_factor must be >= 1.0 (got {config.oversample_factor})")
    if not 0.0 <= config.mmr_lambda <= 1.0:
        err(f"mmr_lambda must be in [0, 1] (got {config.mmr_lambda})")
    if not 0.0 < config.dedup_threshold <= 1.01:
        err(f"dedup_threshold must be in (0, 1.01] (got {config.dedup_threshold})")
    if not 0 <= config.seed <= 0xFFFFFFFFFFFFFFFF:
        err(f"seed must fit in an unsigned 64-bit integer (got {config.seed})")
    if config.template_id not in BUILTIN_TEMPLATES:
        err(f"unknown template_id {config.template_id!r} "
            f"(built-ins: {sorted(BUILTIN_TEMPLATES)})")

    if config.mode is Mode.SFT and not report["errors"]:
        answer_budgets = [l.max_tokens for l in config.layers if l.role is Role.ANSWER]
        if any(b <= a for a, b in zip(answer_budgets, answer_budgets[1:])):
            warn("answer budgets not increasing with depth")
        question_budgets = {l.max_tokens for l in config.layers if l.role is Role.QUESTION}
        if len(question_budgets) > 1:
            warn("question budgets vary across layers (a single shared budget is intended)")

    if not report["errors"]:
        report["shape"] = classify_shape(config.branching).value
    return report


def expected_leaf_count(config: TreeConfig) -> int:
    """Product of the branching factors: leaf count of a shortfall-free run."""
    errors = validate_config(config)["errors"]
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))
    return math.prod(config.branching)


# --- config JSON ----------------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(TreeConfig)}
_LAYER_KEYS = {f.name for f in fields(LayerSpec)}


def _value(raw: dict, key, kind: type, where: str, default=None):
    """``raw[key]`` as a ``kind`` (``int``, ``float`` or ``str``), or
    ``default`` when the key is absent. A missing key without a default, a
    value of another JSON type (a boolean is no number, null no string),
    ``NaN`` or an infinity, and a fraction in an integer field are each a
    ConfigError naming ``where`` and the key."""
    if key not in raw:
        if default is None:
            raise ConfigError(f"{where}missing required key {key!r}")
        return default
    value = raw[key]
    if kind is str:
        if isinstance(value, str):
            return value
    elif not isinstance(value, bool):  # an int to Python, not a number to JSON
        if kind is int and isinstance(value, int):
            return value
        if (kind is float and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max):  # False for NaN too
            return float(value)
    what = {int: "an integer", float: "a finite number", str: "a string"}[kind]
    raise ConfigError(f"{where}{key!r} must be {what} (got {value!r})")


def _layer_from_dict(raw, mode: Mode, layer_index: int) -> LayerSpec:
    where = f"layer {layer_index}: "
    if not isinstance(raw, dict):
        raise ConfigError(f"layer {layer_index} must be a JSON object (got {raw!r})")
    unknown = set(raw) - _LAYER_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in layer {layer_index}: {sorted(unknown)}")
    branching = _value(raw, "branching", int, where)
    max_tokens = _value(raw, "max_tokens", int, where)

    if "role" in raw:
        try:
            role = Role(str(raw["role"]).lower())
        except ValueError as exc:
            raise ConfigError(f"layer {layer_index} has unknown role {raw['role']!r}") from exc
    else:
        role = role_for_layer(mode, layer_index)

    default_temperature = ANSWER_TEMPERATURE if role is Role.ANSWER else QUESTION_TEMPERATURE
    temperature = _value(raw, "temperature", float, where, default_temperature)

    stop_markers = raw.get("stop_markers", [])
    if not isinstance(stop_markers, list):
        raise ConfigError(f"layer {layer_index}: 'stop_markers' must be a list "
                          f"(got {stop_markers!r})")
    items = dict(enumerate(stop_markers))
    return LayerSpec(branching=branching, max_tokens=max_tokens, role=role,
                     temperature=temperature,
                     stop_markers=tuple(_value(items, i, str, f"{where}'stop_markers' item ")
                                        for i in items))


def config_from_dict(raw: dict) -> TreeConfig:
    """Build a TreeConfig from parsed JSON; unknown keys are a hard error."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("mode", "system_prompt", "layers"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    try:
        mode = Mode(str(raw["mode"]).lower())
    except ValueError as exc:
        raise ConfigError(f"unknown mode {raw['mode']!r} (expected 'sft' or 'pt')") from exc
    if not isinstance(raw["layers"], list):
        raise ConfigError("'layers' must be a list")
    layers = tuple(
        _layer_from_dict(layer_raw, mode, i)
        for i, layer_raw in enumerate(raw["layers"], start=1)
    )
    return TreeConfig(
        mode=mode,
        system_prompt=_value(raw, "system_prompt", str, ""),
        layers=layers,
        oversample_factor=_value(raw, "oversample_factor", float, "",
                                 TreeConfig.oversample_factor),
        mmr_lambda=_value(raw, "mmr_lambda", float, "", TreeConfig.mmr_lambda),
        dedup_threshold=_value(raw, "dedup_threshold", float, "", TreeConfig.dedup_threshold),
        seed=_value(raw, "seed", int, "", TreeConfig.seed),
        template_id=_value(raw, "template_id", str, "", TreeConfig.template_id),
    )


def load_config(path: str | Path) -> TreeConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def _json_fields(pairs: list[tuple[str, object]]) -> dict:
    """A dataclass's fields as JSON holds them: enums as values, tuples as lists."""
    return {name: value.value if isinstance(value, Enum)
            else list(value) if isinstance(value, tuple) else value
            for name, value in pairs}


def config_to_dict(config: TreeConfig) -> dict:
    """Canonical dict form: every field, in declaration order, as JSON holds it."""
    return asdict(config, dict_factory=_json_fields)


def config_hash(config: TreeConfig) -> str:
    """64-bit FNV-1a of the canonical serialization, as 16 hex digits."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True)
    return f"{hash_text(canonical):016x}"


# --- nodes and the tree container -----------------------------------------

@dataclass(frozen=True, slots=True)
class GenMeta:
    backend_id: str
    finish_reason: str
    sample_index: int


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One generated question/answer/continuation.

    Identity fields are immutable; ``children`` is the only list the owning
    tree appends to (single writer). ``embedding`` is always None: no vector
    outlives its expansion. It stays only because ``treebench/job.py`` reads
    it on every node of each in-process job, traced or not, to report
    ``embedding_floats`` (ROADMAP item 6 deletes both).
    """

    id: str
    parent_id: str | None
    layer: int
    role: Role
    text: str
    token_count: int
    embedding: tuple[float, ...] | None = None
    children: list[str] = field(default_factory=list)
    gen_meta: GenMeta | None = None


def child_id(parent_id: str, rank: int) -> str:
    return str(rank) if parent_id == ROOT_ID else f"{parent_id}.{rank}"


def structural_key(node_id: str) -> tuple[int, ...]:
    """Sort key of the structural order, which a walk of a tree's child lists
    gives without sorting."""
    if node_id == ROOT_ID:
        return ()
    return tuple(int(part) for part in node_id.split("."))


def node_to_record(node: TreeNode) -> dict:
    """The node's nodes.jsonl record."""
    return {
        "id": node.id,
        "parent_id": node.parent_id,
        "layer": node.layer,
        "role": node.role.value,
        "text": node.text,
        "token_count": node.token_count,
        "gen_meta": None if node.gen_meta is None else {
            "backend_id": node.gen_meta.backend_id,
            "finish_reason": node.gen_meta.finish_reason,
            "sample_index": node.gen_meta.sample_index,
        },
    }


def _wrong_kind(record: dict, *kinds: tuple[str, type]) -> ValueError:
    """The error for the first of ``kinds`` that ``record`` holds with another
    JSON type (a bool is no int). Replay tests all kinds at once, inline, and
    calls this only when that test fails."""
    key, kind = next((key, kind) for key, kind in kinds if type(record[key]) is not kind)
    return ValueError(f"{key!r} must be a JSON {'integer' if kind is int else 'string'} "
                      f"(got {record[key]!r:.80})")


# a role from its record value by one dict lookup; Role(value) stays the
# fallback that raises for a value that is no role
_ROLES = {role.value: role for role in Role}
# Equal gen_meta records share one GenMeta, which is immutable: a tree holds a
# few backend ids, finish reasons and sample indices, and a frozen instance
# costs several times a cache hit to build.
_gen_meta = lru_cache(maxsize=1024)(GenMeta)


def node_from_record(record: dict) -> TreeNode:
    """The node a nodes.jsonl record holds. A field of the wrong JSON type is a
    ValueError; a key it does not read is ignored."""
    meta = record.get("gen_meta")
    if meta is not None:
        if type(meta) is not dict:
            raise ValueError(f"'gen_meta' must be null or a JSON object (got {meta!r:.80})")
        if (type(meta["backend_id"]) is not str or type(meta["finish_reason"]) is not str
                or type(meta["sample_index"]) is not int):
            raise _wrong_kind(meta, ("backend_id", str), ("finish_reason", str),
                              ("sample_index", int))
        meta = _gen_meta(meta["backend_id"], meta["finish_reason"], meta["sample_index"])
    node_id, parent_id, layer, role = (
        record["id"], record["parent_id"], record["layer"], record["role"])
    try:
        role = _ROLES[role]
    except (KeyError, TypeError):  # not a role value, or not hashable
        role = Role(role)
    text, token_count = record["text"], record["token_count"]
    if type(layer) is not int or type(text) is not str or type(token_count) is not int:
        raise _wrong_kind(record, ("layer", int), ("text", str), ("token_count", int))
    return TreeNode(node_id, parent_id, layer, role, text, token_count, None, [], meta)


class Tree:
    """In-memory tree container. Mutated only by its single scheduler/writer."""

    def __init__(self, config: TreeConfig):
        self.config = config
        root = TreeNode(
            id=ROOT_ID, parent_id=None, layer=0, role=Role.ROOT,
            text=config.system_prompt,
            token_count=len(config.system_prompt.split()),
        )
        self.nodes: dict[str, TreeNode] = {ROOT_ID: root}
        self._expanded: set[str] = set()

    @property
    def root(self) -> TreeNode:
        return self.nodes[ROOT_ID]

    @property
    def depth(self) -> int:
        return self.config.depth

    def add_children(self, parent_id: str, children: Sequence[TreeNode]) -> None:
        """Attach one committed child set and mark the parent expanded.

        Used for fresh commits and for checkpoint replay alike, which checks
        each child first; an empty ``children`` records a zero-child expansion.
        """
        parent = self.nodes[parent_id]
        for node in children:
            self.nodes[node.id] = node
            parent.children.append(node.id)
        self._expanded.add(parent_id)

    def is_expanded(self, node_id: str) -> bool:
        return node_id in self._expanded or self.nodes[node_id].layer >= self.depth

    @property
    def shortfalls(self) -> dict[str, int]:
        """Missing children per expanded parent: branching minus children kept.

        Derived from the structure alone, so a replayed tree reports exactly
        what the run that wrote it did.
        """
        missing = {}
        for node_id, node in self.nodes.items():  # commit order
            if node.layer < self.depth and node_id in self._expanded:
                short = self.config.layer(node.layer + 1).branching - len(node.children)
                if short:
                    missing[node_id] = short
        return missing

    def _walk(self, last_layer: int) -> Iterator[TreeNode]:
        """Every node down to ``last_layer``, root first, in structural order:
        a pre-order walk of the child lists, which hold ranks in order."""
        stack = [ROOT_ID]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            if node.layer < last_layer:
                stack.extend(reversed(node.children))

    def layer_ids(self, layer: int) -> list[str]:
        return [node.id for node in self._walk(layer) if node.layer == layer]

    def unexpanded(self) -> list[TreeNode]:
        """Committed nodes above the last layer still awaiting expansion, in
        structural order."""
        return [node for node in self._walk(self.depth - 1)
                if node.id not in self._expanded]

    def export_depth(self, permissive: bool = False) -> int:
        """The layer exported paths end at: the full depth of a complete tree,
        else with ``permissive`` the shallowest layer that holds an unexpanded
        node, rounded down to an even layer in SFT mode."""
        pending = self.unexpanded()
        if not pending:
            return self.depth
        if not permissive:
            raise ConfigError(
                "tree expansion is not finished; pass permissive=True to export "
                "down to the deepest completed layer")
        deepest = min(node.layer for node in pending)
        if self.config.mode is Mode.SFT:
            deepest -= deepest % 2
        return deepest

    def path_nodes(self, node_id: str) -> list[TreeNode]:
        """Root-exclusive ancestor chain ending at ``node_id``."""
        path: list[TreeNode] = []
        node = self.nodes[node_id]
        while node.id != ROOT_ID:
            path.append(node)
            node = self.nodes[node.parent_id]
        path.reverse()
        return path

    def path_texts(self, node_id: str) -> list[str]:
        return [node.text for node in self.path_nodes(node_id)]

    def leaf_paths(self, permissive: bool = False) -> list[list[TreeNode]]:
        """Every root-to-leaf path, root excluded, in structural (DFS) order.

        The paths end at ``export_depth(permissive)``.
        """
        target = self.export_depth(permissive)
        return [self.path_nodes(nid) for nid in self.layer_ids(target)] if target else []

    def non_root_count(self) -> int:
        return len(self.nodes) - 1
