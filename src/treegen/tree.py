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
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import ClassVar, Iterator, Sequence

from .errors import ConfigError
from .fnv import hash_text
from .templates import BUILTIN_TEMPLATES

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
    ``NaN`` or an infinity, a fraction in an integer field and a string that
    UTF-8 cannot hold are each a ConfigError naming ``where`` and the key."""
    if key not in raw:
        if default is None:
            raise ConfigError(f"{where}missing required key {key!r}")
        return default
    value = raw[key]
    if kind is str:
        if isinstance(value, str) and utf8_can_hold(value):
            return value
    elif not isinstance(value, bool):  # an int to Python, not a number to JSON
        if kind is int and isinstance(value, int):
            return value
        if (kind is float and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max):  # False for NaN too
            return float(value)
    what = {int: "an integer", float: "a finite number", str: "a string UTF-8 can hold"}[kind]
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
    tree appends to (single writer). ``embedding`` is no field but a class
    constant, None on every node: no vector outlives its expansion. It stays
    only because ``treebench/job.py`` reads it on every node of each
    in-process job, traced or not, to report ``embedding_floats`` (ROADMAP
    item 6 deletes both).
    """

    id: str
    parent_id: str | None
    layer: int
    role: Role
    text: str
    children: list[str] = field(default_factory=list)
    gen_meta: GenMeta | None = None
    embedding: ClassVar[None] = None


def child_id(parent_id: str, rank: int) -> str:
    return str(rank) if parent_id == ROOT_ID else f"{parent_id}.{rank}"


def structural_key(node_id: str) -> tuple[int, ...]:
    """Sort key of the structural order, which a walk of a tree's child lists
    gives without sorting."""
    if node_id == ROOT_ID:
        return ()
    return tuple(int(part) for part in node_id.split("."))


# --- JSON text: the nodes.jsonl record format and the exports' strings --------

# the bytes a JSON string escapes in UTF-8 text: only ASCII characters encode
# to bytes below 0x80, and U+007F is written as it is
_ESCAPED_BYTES = bytes(range(32)) + b'"\\'


def json_escape(s: str) -> str:
    """``s`` as ``json.dumps(s, ensure_ascii=False)`` writes it, without the
    quotes; a text that needs no escape is returned as it is.

    A newline, quote or backslash (three memchr-speed probes) sends ``s``
    straight to the json module's escapers, so text that needs escapes does
    not pay for the check. Any other text is checked with one delete pass
    over its UTF-8 bytes, which is several times the speed of the escapers on
    text that needs none. The ASCII escaper is faster than the Unicode one
    and writes the same bytes except for U+007F, which only it escapes. The
    mapping is per code point, so the escape of ``a + b`` is the escapes of
    ``a`` and ``b`` joined.
    """
    if "\n" not in s and '"' not in s and "\\" not in s:
        b = s.encode("utf-8", "surrogatepass")  # a lone surrogate is written as it is
        if len(b.translate(None, _ESCAPED_BYTES)) == len(b):
            return s
    if s.isascii() and "\x7f" not in s:
        return encode_basestring_ascii(s)[1:-1]
    return encode_basestring(s)[1:-1]


def node_to_record(node: TreeNode) -> dict:
    """The node's nodes.jsonl record."""
    return {
        "id": node.id,
        "parent_id": node.parent_id,
        "layer": node.layer,
        "role": node.role.value,
        "text": node.text,
        "gen_meta": None if node.gen_meta is None else {
            "backend_id": node.gen_meta.backend_id,
            "finish_reason": node.gen_meta.finish_reason,
            "sample_index": node.gen_meta.sample_index,
        },
    }


# node_to_record's value as the line writes it, and a gen_meta that is not null
_NODE_LINE = '{"id":"%s","parent_id":"%s","layer":%d,"role":"%s","text":"%s","gen_meta":%s}'
_META_LINE = '{"backend_id":"%s","finish_reason":"%s","sample_index":%d}'


def block_line(parent_id: str, children: Sequence[TreeNode]) -> str:
    """The nodes.jsonl line of one expansion, newline included: the parent id
    and the node records of its kept children, in rank order, as
    ``json.dumps`` writes ``{"parent_id": parent_id, "children": [node_to_record(node), ...]}``
    with ``ensure_ascii=False`` and ``separators=(",", ":")``."""
    return '{"parent_id":"%s","children":[%s]}\n' % (json_escape(parent_id), ",".join([
        _NODE_LINE % (json_escape(node.id), json_escape(node.parent_id), node.layer,
                      node.role.value, json_escape(node.text),
                      "null" if (meta := node.gen_meta) is None else _META_LINE % (
                          json_escape(meta.backend_id), json_escape(meta.finish_reason),
                          meta.sample_index))
        for node in children]))


# Equal gen_meta records share one GenMeta, which is immutable: a tree holds a
# few backend ids, finish reasons and sample indices, and a frozen instance
# costs several times a cache hit to build.
_gen_meta = lru_cache(maxsize=1024)(GenMeta)
# the JSON type each field other than the place-given four must hold
_FIELD_KINDS = (("text", str), ("gen_meta.backend_id", str),
                ("gen_meta.finish_reason", str), ("gen_meta.sample_index", int))


def node_from_record(record, parent_id: str, rank: int, layer: int, role: Role) -> TreeNode:
    """The node that ``record``, a parsed nodes.jsonl node record, holds as
    ``parent_id``'s child at ``rank``, at ``layer`` with ``role``.

    The record's ``id``, ``parent_id``, ``layer`` and ``role`` must be those
    its place gives, its ``text`` a JSON string that UTF-8 can hold (JSON
    can spell a lone surrogate, which UTF-8 cannot) and its ``gen_meta`` null
    or an object with a string ``backend_id`` and ``finish_reason`` and an
    integer ``sample_index``; anything else is a ValueError that names
    ``children[rank]`` and the first field at fault. A key it does not read
    is ignored.
    """
    place = (child_id(parent_id, rank), parent_id, layer, role)
    try:
        found = (record["id"], record["parent_id"], record["layer"], record["role"])
        text, meta = record["text"], record.get("gen_meta")
        if meta is not None:
            meta = (meta["backend_id"], meta["finish_reason"], meta["sample_index"])
        # one comparison for the place; a bool equals an int, so layer's type too
        if (found == place and type(found[2]) is int and type(text) is str
                and utf8_can_hold(text) and (
                meta is None or type(meta[0]) is type(meta[1]) is str and type(meta[2]) is int)):
            return TreeNode(place[0], parent_id, layer, role, text, [], meta and _gen_meta(*meta))
    except (KeyError, TypeError):  # no object, or a field missing
        pass
    raise ValueError(f"children[{rank}] {_fault(record, (*place[:3], role.value))}")


def _fault(record, place: tuple) -> str:
    """What is first at fault in a node record that node_from_record refuses;
    ``place`` holds the id, parent_id, layer and role its place gives. Some
    field is at fault, so the walk ends before it would read a null
    ``gen_meta``'s fields."""
    if type(record) is not dict:
        return "is not a JSON object"
    meta = record.get("gen_meta")
    if meta is not None and type(meta) is not dict:
        return f"has gen_meta {meta!r:.80}, not null or a JSON object"
    for name, want in (*zip(("id", "parent_id", "layer", "role"), place), *_FIELD_KINDS):
        within, _, key = name.rpartition(".")
        holder = meta if within else record
        if key not in holder:
            return f"has no {name}"
        got = holder[key]
        if isinstance(want, type) and type(got) is not want:
            return f"has {name} {got!r:.80}, not a JSON {'string' if want is str else 'integer'}"
        if not isinstance(want, type) and (type(got) is not type(want) or got != want):
            return f"has {name} {got!r:.80} where its place gives {want!r}"
        if name == "text" and not utf8_can_hold(got):
            return f"has text {got!r:.80}, which UTF-8 cannot hold (a lone surrogate)"


def utf8_can_hold(text: str) -> bool:
    """Whether UTF-8 can hold ``text``: whether it has no lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class Tree:
    """In-memory tree container. Mutated only by its single scheduler/writer."""

    def __init__(self, config: TreeConfig):
        self.config = config
        root = TreeNode(id=ROOT_ID, parent_id=None, layer=0, role=Role.ROOT,
                        text=config.system_prompt)
        self.nodes: dict[str, TreeNode] = {ROOT_ID: root}
        self._expanded: set[str] = set()
        # whether every block was committed escape_free, so that every id and
        # text below the root is its own JSON string body
        self.escape_free = True

    @property
    def depth(self) -> int:
        return self.config.depth

    def add_children(self, parent_id: str, children: Sequence[TreeNode], *,
                     escape_free: bool = False) -> None:
        """Attach one committed child set and mark the parent expanded.

        Used for fresh commits and, through ``add_block``, for checkpoint
        replay; an empty ``children`` records a zero-child expansion.
        ``escape_free`` says that the block's line holds no backslash, which
        strict JSON needs to write a quote, backslash or control character;
        one block without it clears the tree's ``escape_free``.
        """
        parent = self.nodes[parent_id]
        for node in children:
            self.nodes[node.id] = node
            parent.children.append(node.id)
        self._expanded.add(parent_id)
        self.escape_free = self.escape_free and escape_free

    def add_block(self, block, *, escape_free: bool = False) -> None:
        """Commit ``block``, a parsed nodes.jsonl line: ``{"parent_id": P,
        "children": [<node record>, ...]}``, P's kept children in rank order.

        P must be committed, not yet expanded and above the last layer, and
        ``children`` a JSON array of at most the next layer's branching node
        records, each of which ``node_from_record`` takes at its place. Any
        other block is a ValueError that says what is wrong and commits
        nothing. ``escape_free`` goes to ``add_children``.
        """
        try:
            parent, records = self.nodes[block["parent_id"]], block["children"]
        except (KeyError, TypeError) as exc:  # TypeError: no object, or an unhashable id
            raise ValueError("is not a JSON object" if type(block) is not dict
                             else f"is not a block: {exc!r:.200}") from exc
        layer = parent.layer + 1
        if parent.id in self._expanded or layer > self.depth:
            raise ValueError(f"adds to parent {parent.id!r}, which is already expanded")
        if type(records) is not list:
            raise ValueError(f"gives parent {parent.id!r} children {records!r:.80}, "
                             "not a JSON array")
        if len(records) > (spec := self.config.layer(layer)).branching:
            raise ValueError(f"gives parent {parent.id!r} {len(records)} children where layer "
                             f"{layer} takes 0 to {spec.branching}")
        self.add_children(parent.id, [node_from_record(record, parent.id, rank, layer, spec.role)
                                      for rank, record in enumerate(records)],
                          escape_free=escape_free)

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
                "tree expansion is not finished; pass --permissive (permissive=True) to "
                "export down to the deepest completed layer")
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

    def layer_paths(self, layer: int) -> list[list[TreeNode]]:
        """The root-exclusive path to every node of ``layer`` (1 or deeper),
        in structural order, from one walk that keeps the path it is on."""
        paths: list[list[TreeNode]] = []
        path: list[TreeNode] = []  # root first
        for node in self._walk(layer):
            path[node.layer:] = (node,)
            if node.layer == layer:
                paths.append(path[1:])
        return paths

    def leaf_paths(self, permissive: bool = False) -> list[list[TreeNode]]:
        """Every root-to-leaf path, root excluded, in structural (DFS) order.

        The paths end at ``export_depth(permissive)``.
        """
        target = self.export_depth(permissive)
        return self.layer_paths(target) if target else []

    def non_root_count(self) -> int:
        return len(self.nodes) - 1
