"""Tree expansion with bounded parallelism and checkpoint/resume.

Concurrency model: many backend calls may be in flight (bounded by the worker
pool), but there is exactly one writer — the driving thread — which applies
results to the tree and the on-disk log in canonical structural order
regardless of completion order. That makes nodes.jsonl a byte-deterministic
function of the config under the mock backend, independent of worker count,
timing, and interruption pattern.

One loop runs every tree shape, in rounds. A round's frontier is every
committed, unexpanded node above the last layer, in structural order; in a
balance tree only the shallowest such layer, so each layer is a barrier. Each
frontier node is one pool task. In a wide or chain tree a task keeps
descending while an expansion kept exactly one child, so each layer-1 chain
runs to full depth with no cross-chain barrier. The writer commits the tasks'
results in frontier order.

The first exception, in a worker or in the writer (a Ctrl-C included), sets
the run's one failure signal, ``failed``. A task checks it before each
expansion, a chain's next step included, and queued tasks are cancelled, so
only the expansions in flight finish. The writer commits a task's results
only while it is unset, so no chain cut short is committed, and raises at the
failed task: the committed log stays a prefix of the canonical order.

nodes.jsonl is the only record of what was committed: resume replays it alone,
and shortfalls are derived from the replayed structure. The manifest is a
summary of one session, written when it starts and when it ends, and never
read back.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backends import (EmbeddingBackend, EmbeddingVector, GenerationBackend,
                       GenerationRequest)
from .dedup import mmr_select, near_duplicate_filter
from .errors import BackendError, ConfigError, ResumableRunError
from .fnv import combine
from .templates import (ChatTemplate, get_template, render_continuation_prompt,
                        render_dialogue_prompt, strip_completion)
from .tree import (GenMeta, Mode, Tree, TreeConfig, TreeNode, TreeShape, block_line, child_id,
                   config_from_dict, config_hash, config_to_dict, expected_leaf_count,
                   validate_config)

log = logging.getLogger(__name__)

CONFIG_FILE = "config.json"
NODES_FILE = "nodes.jsonl"
MANIFEST_FILE = "manifest.json"

# Layout version, stored in config.json. Format 5's nodes.jsonl holds one line
# per expansion, the parent id and a list of the node records it kept; other
# formats are refused.
CHECKPOINT_FORMAT = 5

LOW_LEAF_YIELD = 0.5  # a complete run that keeps a smaller share of its leaves warns


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


# one scanner call: a line's value and the index just past it
_scan = json.JSONDecoder().raw_decode
# replay's read buffer: a node record runs to kilobytes, so the default 8 KiB
# would be refilled every few lines
_READ_BUFFER = 1 << 16


def _write_json(path: Path, value: dict) -> None:
    """Write ``value`` as indented JSON to a temporary file beside ``path``,
    removed if the write fails, then rename it over ``path``: a write cut
    short leaves no partial file."""
    tmp = path.with_suffix(".json.tmp")
    try:
        tmp.write_text(json.dumps(value, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


class CheckpointStore:
    """Append-only persisted tree: config.json + nodes.jsonl + manifest.json.

    nodes.jsonl alone holds the committed tree below the root, which comes
    from the config: one block per expansion, appended as a single write, and
    nothing else, so a fresh checkpoint's file is empty. ``tree.py`` owns the
    block's format: ``block_line`` writes it and ``Tree.add_block``
    reads and checks it. The store only frames lines: ``append_block``
    writes a block as one line, and ``load`` streams the file line by line,
    hands each parsed line to ``add_block`` and stops at a torn line. Load
    writes nothing, and the first append after it cuts the file where the
    intact lines end, so what was dropped is regenerated deterministically.

    config.json is read here only, by ``load``.

    manifest.json summarizes one session and is never read back. ``begin``
    writes it when the session starts and ``finalize`` when it ends: the
    status, the tree's node, shortfall and leaf counts when written, the
    leaves a run without shortfalls grows and the share of them the tree
    holds, and this session's backend, workers, times and dedup/retry
    telemetry.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.config_path = self.directory / CONFIG_FILE
        self.nodes_path = self.directory / NODES_FILE
        self.manifest_path = self.directory / MANIFEST_FILE
        self.manifest: dict = {}  # the summary last written
        self._session: dict = {}
        self._handle = None
        self._intact = 0  # the intact length of nodes.jsonl, where the first append cuts it

    # -- lifecycle ----------------------------------------------------------

    def exists(self) -> bool:
        return self.config_path.exists()

    def initialize(self, config: TreeConfig) -> Tree:
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.exists():
            raise ConfigError(f"checkpoint already present in {self.directory}")
        _write_json(self.config_path, {"format": CHECKPOINT_FORMAT,
                                       "config": config_to_dict(config),
                                       "hash": config_hash(config)})
        self._write("")  # an empty nodes.jsonl
        return Tree(config)

    def begin(self, tree: Tree, backend_id: str, workers: int) -> None:
        """Start a session on a fresh or loaded tree: write the manifest as running."""
        self._session = {"backend_id": backend_id, "workers": workers,
                         "dedup_drops": 0, "retries": 0, "started_at": _utcnow()}
        self._write_manifest(tree, "running")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- commits ------------------------------------------------------------

    def _write(self, text: str) -> None:
        if self._handle is None:
            self._handle = open(self.nodes_path, "a", encoding="utf-8", newline="\n")
            self._handle.truncate(self._intact)  # a torn line that load skipped
        self._handle.write(text)
        self._handle.flush()

    def append_block(self, nodes: Sequence[TreeNode], parent_id: str,
                     dedup_drops: int = 0, retried: bool = False) -> bool:
        """Commit one expansion result: its block, one line, in one write.
        Returns whether the line holds no backslash, as replay finds it."""
        line = block_line(parent_id, nodes)
        self._write(line)
        self._session["dedup_drops"] += dedup_drops
        self._session["retries"] += int(retried)
        return "\\" not in line

    def _write_manifest(self, tree: Tree, status: str) -> None:
        """Build the run summary from the tree and this session, and write it."""
        leaves, expected = len(tree.layer_ids(tree.depth)), expected_leaf_count(tree.config)
        self.manifest = {
            "status": status,
            "config_hash": config_hash(tree.config),
            "nodes_committed": tree.non_root_count(),
            "shortfalls": sum(tree.shortfalls.values()),
            "leaf_count": leaves,
            "expected_leaves": expected,
            "leaf_yield": leaves / expected,
            **self._session,
            "ended_at": None if status == "running" else _utcnow(),
        }
        _write_json(self.manifest_path, self.manifest)

    def finalize(self, tree: Tree, status: str) -> None:
        """End the session: write the manifest as ``complete`` or ``aborted``."""
        self._write_manifest(tree, status)
        self.close()

    # -- load / replay ------------------------------------------------------

    def load(self, config: TreeConfig | None = None) -> Tree:
        """Verify compatibility and replay the log up to a torn tail, in one
        streamed pass that checks every record it keeps; writes nothing.

        config.json must be a JSON object that declares this checkpoint
        format and holds a config that parses, and the hash it records must
        be that of ``config`` or, given none, of the config it holds; else
        this raises a ConfigError.
        """
        if not self.exists():
            raise ConfigError(f"no checkpoint in {self.directory}")
        try:
            stored = json.loads(self.config_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read {self.config_path}: {exc}") from exc
        if not isinstance(stored, dict):
            raise ConfigError(f"{self.config_path} does not hold a JSON object")
        found = stored.get("format")
        if found != CHECKPOINT_FORMAT:
            what = "no checkpoint format" if found is None else f"checkpoint format {found}"
            raise ConfigError(
                f"{self.config_path} declares {what}; this version reads checkpoint "
                f"format {CHECKPOINT_FORMAT} only, so regenerate the tree")
        try:
            held = config_from_dict(stored.get("config"))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{self.config_path} holds no valid config: {exc}") from exc
        config = held if config is None else config
        if stored.get("hash") != config_hash(config):
            raise ConfigError(
                f"{self.config_path} records checkpoint config hash {stored.get('hash')}, "
                f"which does not match the config hash {config_hash(config)}")

        tree = Tree(config)
        self._intact = self._replay(tree)
        return tree

    def _replay(self, tree: Tree) -> int:
        """Replay nodes.jsonl into ``tree`` in one forward pass; returns the
        bytes of the replayed lines.

        A line is one block, written as one append, so only the last can be
        torn: each line is committed with one ``Tree.add_block`` call, told
        whether the line holds a backslash (one memchr). A
        partial or unparseable line (invalid UTF-8 and nesting too deep for
        the parser included) ends the replay, and it and every line after it
        are dropped, with one WARNING naming them: expansion is
        deterministic, so resume redoes them. A whole line that parses but
        that ``add_block`` refuses, as not continuing the tree, is a
        ConfigError naming the file, the line and what ``add_block`` found.

        A line is parsed as ``json.loads`` parses it: with the JSON whitespace
        around it stripped, one scanner call must consume all that is left.
        """
        if not self.nodes_path.exists():
            return 0
        intact = 0  # bytes of the committed lines
        with open(self.nodes_path, "rb", buffering=_READ_BUFFER) as lines:
            for number, line in enumerate(lines, start=1):
                try:
                    if not line.endswith(b"\n"):
                        raise ValueError("partial line")
                    text = line.decode().strip(" \t\n\r")  # what json.loads skips
                    block, end = _scan(text)
                    if end != len(text):
                        raise ValueError("more than JSON whitespace after the value")
                except (ValueError, RecursionError):  # UnicodeDecodeError too
                    log.warning("replay stops at nodes.jsonl line %d, which is partial or "
                                "does not parse: the next append cuts lines %d to %d (%d "
                                "bytes), and resume regenerates them", number, number,
                                number + sum(1 for _ in lines),
                                self.nodes_path.stat().st_size - intact)
                    break
                try:
                    tree.add_block(block, escape_free=b"\\" not in line)
                except ValueError as exc:
                    raise ConfigError(f"{self.nodes_path} line {number} {exc}") from exc
                intact += len(line)
        return intact


# --- one expansion step ------------------------------------------------------


@dataclass
class ExpansionResult:
    parent_id: str
    layer_index: int
    children: list[TreeNode]
    shortfall: int
    dedup_drops: int
    retried: bool = False


def prompt_for_layer(path_texts: Sequence[str], config: TreeConfig,
                     template: ChatTemplate) -> str:
    """The prompt for the children of the node whose path is ``path_texts``."""
    if config.mode is Mode.PT:
        return render_continuation_prompt(path_texts, config.system_prompt,
                                          template.turn_separator)
    return render_dialogue_prompt(path_texts, template, config.system_prompt)


def expand_parent(parent: TreeNode, path_texts: Sequence[str], config: TreeConfig,
                  generator: GenerationBackend,
                  embedder: EmbeddingBackend) -> ExpansionResult:
    """Generate, strip, embed, and MMR-filter the child set of ``parent``,
    one layer below it, rendering and stripping with the config's template.

    Requests ceil(oversample_factor * branching) candidates keyed by
    FNV-1a(config seed, parent id, layer index); on a dedup shortfall, one
    regeneration retry widens the pool before the shortfall is accepted.

    The MMR query, the parent's embedding, comes from the first embed call,
    of ``[parent.text] + pool``; a retry embeds only its new texts. No vector
    outlives the expansion. A pool vector whose dimension differs from the
    query's, as when the embedder changes between the first call and the
    retry's, or any vector whose squared norm is not finite, is a
    ``BackendError``. ``dedup_drops`` sums the drops of every filter call,
    the first attempt's and the retry's.
    """
    layer_index = parent.layer + 1
    layer = config.layer(layer_index)
    template = get_template(config.template_id)
    want = math.ceil(config.oversample_factor * layer.branching)
    cap = generator.sample_cap
    prompt = prompt_for_layer(path_texts, config, template)
    base_seed = combine(config.seed, parent.id, layer_index)

    pool: list[tuple[str, int, str]] = []  # (text, global sample index, finish_reason)
    vectors: list[EmbeddingVector] = []
    query: EmbeddingVector | None = None
    selection = None
    drops = 0
    for attempt in range(2):
        for start in range(0, want, cap):
            # the first chunk of the first attempt uses the base seed directly;
            # further chunks/attempts derive fresh seeds for fresh sample ranges
            seed = (base_seed if attempt == start == 0
                    else combine(base_seed, attempt, start // cap))
            result = generator.generate(GenerationRequest(
                prompt=prompt, max_tokens=layer.max_tokens,
                temperature=layer.temperature, n_samples=min(cap, want - start),
                stop=tuple(layer.stop_markers), request_seed=seed))
            for index, completion in enumerate(result.completions, attempt * want + start):
                text = strip_completion(completion.text, layer.stop_markers, template)
                if text:
                    pool.append((text, index, completion.finish_reason))

        new_texts = [text for text, _, _ in pool[len(vectors):]]
        if new_texts and query is None:
            query, *fresh = embedder.embed([parent.text] + new_texts)
            vectors.extend(fresh)
        elif new_texts:
            vectors.extend(embedder.embed(new_texts))

        if vectors:
            # one similarity cache per expansion: a retry's grown pool reuses
            # every pair of attempt 0's
            similarity = None if selection is None else selection.similarity
            try:
                selection = mmr_select(vectors, query, min(layer.branching, len(vectors)),
                                       config.mmr_lambda, similarity=similarity)
            except ValueError as exc:
                raise BackendError(f"embedding for parent {parent.id}: {exc}") from exc
            selection = near_duplicate_filter(vectors, selection, config.dedup_threshold)
            drops += len(selection.dropped_as_duplicates)
            if len(selection.selected) >= layer.branching:
                break

    kept = [pool[i] for i in selection.selected] if selection else []
    children = [TreeNode(id=child_id(parent.id, rank), parent_id=parent.id, layer=layer_index,
                         role=layer.role, text=text,
                         gen_meta=GenMeta(backend_id=generator.backend_id,
                                          finish_reason=finish_reason, sample_index=sample_index))
                for rank, (text, sample_index, finish_reason) in enumerate(kept)]
    return ExpansionResult(parent_id=parent.id, layer_index=layer_index,
                           children=children, shortfall=layer.branching - len(children),
                           dedup_drops=drops, retried=attempt == 1)


# --- the runner --------------------------------------------------------------


class TreeRunner:
    """Drives a full tree run against a generation backend and an embedder."""

    def __init__(self, config: TreeConfig, generator: GenerationBackend,
                 embedder: EmbeddingBackend, store: CheckpointStore, workers: int = 8):
        report = validate_config(config)
        if report["errors"]:
            raise ConfigError("invalid config: " + "; ".join(report["errors"]))
        for warning in report["warnings"]:
            log.warning("config warning: %s", warning)
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.config = config
        self.generator = generator
        self.embedder = embedder
        self.store = store
        self.workers = workers
        self.shape = TreeShape(report["shape"])

    # -- public entry point --------------------------------------------------

    def run(self) -> Tree:
        """Expand to full depth, resuming from the store when it has content."""
        if self.store.exists():
            tree = self.store.load(self.config)
        else:
            tree = self.store.initialize(self.config)
        self.store.begin(tree, self.generator.backend_id, self.workers)
        try:
            self._grow(tree)
        except (Exception, KeyboardInterrupt):
            # whatever happened, the store holds a valid committed prefix
            self.store.finalize(tree, "aborted")
            raise
        self.store.finalize(tree, "complete")
        if self.store.manifest["leaf_yield"] < LOW_LEAF_YIELD:
            log.warning("the run kept only %d of its %d expected leaves",
                        self.store.manifest["leaf_count"], self.store.manifest["expected_leaves"])
        return tree

    # -- the scheduling loop ---------------------------------------------------

    def _grow(self, tree: Tree) -> None:
        """Expand the frontier round by round until no node awaits expansion.

        Frontier nodes carry no vectors: each expansion embeds its parent's
        text with its pool, fresh or resumed alike, so the run holds only the
        vectors of the pools in flight.

        When a round ends, or stops at a failure, each layer it committed an
        expansion short of children to gets one INFO line, summed over the
        round's commits at that layer.
        """
        failed = threading.Event()
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            while frontier := self._frontier(tree):
                futures = deque(pool.submit(self._expand_from, failed, node,
                                            tree.path_texts(node.id))
                                for node in frontier)
                # per layer: the shortfall of each expansion committed
                tally: dict[int, list[int]] = {}
                try:
                    while futures:  # commit strictly in frontier order
                        # popped before it is awaited: once committed, a task's
                        # results are freed
                        results = self._await(futures.popleft())
                        # a task cut short saw failed set first: never commit it
                        for result in () if failed.is_set() else results:
                            self._commit_result(tree, result)
                            tally.setdefault(result.layer_index, []).append(result.shortfall)
                finally:
                    self._log_shortfalls(tally)
        except BaseException:
            failed.set()
            raise
        finally:
            pool.shutdown(cancel_futures=True)

    def _log_shortfalls(self, tally: dict[int, list[int]]) -> None:
        for layer_index, shortfalls in sorted(tally.items()):
            if any(shortfalls):
                expected = len(shortfalls) * self.config.layer(layer_index).branching
                log.info("layer %d: %d of %d expansions fell short, keeping %d of %d children",
                         layer_index, sum(map(bool, shortfalls)), len(shortfalls),
                         expected - sum(shortfalls), expected)

    def _frontier(self, tree: Tree) -> list[TreeNode]:
        """Nodes to expand this round; a balance tree takes one layer at a time."""
        pending = tree.unexpanded()
        if self.shape is TreeShape.BALANCE and pending:
            shallowest = min(node.layer for node in pending)
            pending = [node for node in pending if node.layer == shallowest]
        return pending

    def _expand_from(self, failed: threading.Event, node: TreeNode,
                     path_texts: list[str]) -> list[ExpansionResult]:
        """Expand ``node``; outside a balance tree, keep descending while an
        expansion kept exactly one child, so a wide tree's chain is one task.
        Each step embeds its own parent's text, as the chain's first does.

        Runs on a pool thread and reads nothing from the tree: ``node`` and
        its path are committed and immutable, and new nodes go back to the
        writer. Checks ``failed`` before every expansion, and returns what it
        expanded once it finds it set.
        """
        results: list[ExpansionResult] = []
        try:
            while not failed.is_set():
                result = expand_parent(node, path_texts, self.config, self.generator,
                                       self.embedder)
                results.append(result)
                if (self.shape is TreeShape.BALANCE or len(result.children) != 1
                        or result.layer_index == self.config.depth):
                    break
                node = result.children[0]
                path_texts = [*path_texts, node.text]
            return results
        except BaseException:
            failed.set()
            raise

    # -- shared plumbing -------------------------------------------------------

    def _await(self, future: Future):
        try:
            return future.result()
        except BackendError as exc:
            raise ResumableRunError(
                f"backend failure after {exc.attempts} attempt(s): {exc}") from exc

    def _commit_result(self, tree: Tree, result: ExpansionResult) -> None:
        # disk first: if the append fails, the tree still matches nodes.jsonl
        escape_free = self.store.append_block(result.children, parent_id=result.parent_id,
                                              dedup_drops=result.dedup_drops,
                                              retried=result.retried)
        tree.add_children(result.parent_id, result.children, escape_free=escape_free)
