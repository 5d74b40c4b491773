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

The first exception, in a worker or in the writer (a Ctrl-C included), stops
the run: tasks that start after it expand nothing and queued ones are
cancelled, so only the expansions already in flight finish. Tasks start in
FIFO order and the writer raises at the failed task, so the committed log
stays a prefix of the canonical order.

nodes.jsonl is the only record of what was committed: resume replays it alone,
and shortfalls are derived from the replayed structure. The manifest is a
summary written when a run starts and when it ends.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .backends import (EmbeddingBackend, EmbeddingVector, GenerationBackend,
                       GenerationRequest)
from .dedup import mmr_select, near_duplicate_filter
from .errors import (BackendError, CheckpointError, ConfigError,
                     EmptyCompletionError, ResumableRunError)
from .fnv import combine
from .templates import (ChatTemplate, get_template, render_answer_prompt,
                        render_continuation_prompt, render_question_prompt,
                        strip_completion)
from .tree import (ROOT_ID, GenMeta, Role, Tree, TreeConfig, TreeNode,
                   TreeShape, child_id, config_from_dict, config_hash,
                   config_to_dict, node_from_record, node_to_record,
                   validate_config)

log = logging.getLogger(__name__)

CONFIG_FILE = "config.json"
NODES_FILE = "nodes.jsonl"
MANIFEST_FILE = "manifest.json"

# Layout version, stored in config.json. Format 2 records a zero-child
# expansion as a marker line in nodes.jsonl; older checkpoints have no format
# number and kept that record in the manifest, so they are refused.
CHECKPOINT_FORMAT = 2


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _dumps(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def _fresh_manifest(config: TreeConfig, backend_id: str | None = None,
                    workers: int | None = None) -> dict:
    return {
        "status": "running",
        "config_hash": config_hash(config),
        "backend_id": backend_id,
        "workers": workers,
        "nodes_committed": 0,
        "shortfalls": 0,
        "dedup_drops": 0,
        "retries": 0,
        "started_at": _utcnow(),
        "ended_at": None,
    }


class CheckpointStore:
    """Append-only persisted tree: config.json + nodes.jsonl + manifest.json.

    nodes.jsonl alone holds the committed tree. Every node record's parent
    appears earlier in the file, and one parent's full child set is appended
    as a single block; an expansion that kept no children is a one-line block,
    the marker ``{"parent_id": ..., "children": []}``. Replaying the file
    therefore rebuilds every node, child list and shortfall. A torn trailing
    block is dropped on load and regenerated deterministically.

    config.json is read here only, by ``stored_config`` and ``load``.

    manifest.json is a summary, written by ``initialize`` and ``finalize``
    only: status, timestamps, node and shortfall counts (computed from the
    tree by ``load`` and ``finalize``), and dedup/retry telemetry, which a hard
    kill loses.
    """

    def __init__(self, directory: str | Path, include_embeddings: bool = False):
        self.directory = Path(directory)
        self.config_path = self.directory / CONFIG_FILE
        self.nodes_path = self.directory / NODES_FILE
        self.manifest_path = self.directory / MANIFEST_FILE
        self.include_embeddings = include_embeddings
        self.manifest: dict = {}
        self._handle = None

    # -- lifecycle ----------------------------------------------------------

    def exists(self) -> bool:
        return self.config_path.exists()

    def initialize(self, config: TreeConfig, backend_id: str, workers: int) -> Tree:
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.exists():
            raise CheckpointError(f"checkpoint already present in {self.directory}")
        payload = {"format": CHECKPOINT_FORMAT, "config": config_to_dict(config),
                   "hash": config_hash(config)}
        self.config_path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                                    encoding="utf-8")
        self.manifest = _fresh_manifest(config, backend_id, workers)
        tree = Tree(config)
        self._open_handle()
        self._write_lines([self._encode(tree.root)])
        self._write_manifest()
        return tree

    def _open_handle(self):
        if self._handle is None:
            self._handle = open(self.nodes_path, "a", encoding="utf-8", newline="\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- encoding -----------------------------------------------------------

    def _encode(self, node: TreeNode) -> str:
        return _dumps(node_to_record(node, include_embedding=self.include_embeddings))

    def _write_lines(self, lines: Sequence[str]) -> None:
        self._handle.write("".join(line + "\n" for line in lines))
        self._handle.flush()

    # -- commits ------------------------------------------------------------

    def append_block(self, nodes: Sequence[TreeNode], parent_id: str,
                     dedup_drops: int = 0, retried: bool = False) -> None:
        """Commit one expansion result atomically (all-or-nothing lines)."""
        self._open_handle()
        if nodes:
            self._write_lines([self._encode(n) for n in nodes])
        else:
            self._write_lines([_dumps({"parent_id": parent_id, "children": []})])
        self.manifest["dedup_drops"] += dedup_drops
        self.manifest["retries"] += int(retried)

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.manifest, indent=2, ensure_ascii=False) + "\n",
                       encoding="utf-8")
        os.replace(tmp, self.manifest_path)

    def _count(self, tree: Tree) -> None:
        """Set the manifest's node and shortfall counts from the tree."""
        self.manifest.update(nodes_committed=tree.non_root_count(),
                             shortfalls=tree.shortfall_total)

    def finalize(self, tree: Tree, status: str, exit_status: int | None = None) -> None:
        self._count(tree)
        self.manifest["status"] = status
        self.manifest["ended_at"] = _utcnow()
        if exit_status is not None:
            self.manifest["exit_status"] = exit_status
        self._write_manifest()
        self.close()

    # -- load / replay ------------------------------------------------------

    def stored_config(self) -> TreeConfig:
        """The config the checkpoint was grown from, as config.json records it."""
        return self._read_config_file()[0]

    def _read_config_file(self) -> tuple[TreeConfig, object]:
        """config.json's config and hash. Raises CheckpointError unless the file
        is a JSON object that declares this checkpoint format and holds a
        config that parses."""
        if not self.exists():
            raise CheckpointError(f"no checkpoint in {self.directory}")
        try:
            stored = json.loads(self.config_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read {self.config_path}: {exc}") from exc
        if not isinstance(stored, dict):
            raise CheckpointError(f"{self.config_path} does not hold a JSON object")
        found = stored.get("format")
        if found != CHECKPOINT_FORMAT:
            what = "no checkpoint format" if found is None else f"checkpoint format {found}"
            raise CheckpointError(
                f"{self.config_path} declares {what}; this version reads checkpoint "
                f"format {CHECKPOINT_FORMAT} only, so regenerate the tree")
        try:
            config = config_from_dict(stored.get("config"))
        except (ConfigError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{self.config_path} holds no valid config: {exc}") from exc
        return config, stored.get("hash")

    def load(self, config: TreeConfig) -> Tree:
        """Verify compatibility, recover a torn tail, and replay the log."""
        stored_hash = self._read_config_file()[1]
        if stored_hash != config_hash(config):
            raise CheckpointError(
                f"checkpoint config hash {stored_hash} does not match the "
                f"provided config hash {config_hash(config)}")

        records = self._read_recovered_records()
        if records and records[0].get("id") != ROOT_ID:
            raise CheckpointError("nodes.jsonl does not start with the root record")
        tree = Tree(config)
        for record in records[1:]:
            # a record without an id is a zero-child expansion marker
            children = [node_from_record(record)] if "id" in record else []
            tree.add_children(record["parent_id"], children)
        self._open_handle()
        if not records:
            # the tear reached the root record; rewrite it and start over
            log.warning("recovered checkpoint had no intact records; reinitializing")
            self._write_lines([self._encode(tree.root)])

        self.manifest = _fresh_manifest(config)
        if self.manifest_path.exists():
            self.manifest.update(json.loads(self.manifest_path.read_text(encoding="utf-8")))
        self._count(tree)
        return tree

    def _read_recovered_records(self) -> list[dict]:
        """Parse nodes.jsonl, truncating a torn trailing block in place.

        The record boundary is a full line. If the tail is torn (partial or
        unparseable final line), the whole trailing same-parent group is
        dropped too: a block is written as one append, so only the final block
        can be incomplete, and over-dropping is safe because expansion is
        deterministic and will be redone on resume.
        """
        raw = self.nodes_path.read_bytes() if self.nodes_path.exists() else b""
        if not raw:
            return []
        lines = raw.split(b"\n")
        torn = lines[-1] != b""  # file must end with a newline
        lines = lines[:-1]  # the empty tail, or the partial fragment
        records: list[dict] = []
        for line in lines:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                torn = True  # everything from the bad line on is suspect
                break
        if torn and records:
            last_parent = records[-1].get("parent_id")
            while records and records[-1].get("parent_id") == last_parent:
                records.pop()
            log.warning("nodes.jsonl had a torn trailing block; dropped it "
                        "(will be regenerated on resume)")
        if torn:
            # rewrite rather than arithmetic-truncate: the surviving prefix is
            # re-encoded canonically, which matches what was originally written
            with open(self.nodes_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("".join(_dumps(r) + "\n" for r in records))
        return records


# --- one expansion step ------------------------------------------------------


@dataclass
class ExpansionResult:
    parent_id: str
    layer_index: int
    children: list[TreeNode]
    shortfall: int
    dedup_drops: int
    retried: bool = False


def prompt_for_layer(role: Role, path_texts: Sequence[str], config: TreeConfig,
                     template: ChatTemplate) -> str:
    if role is Role.CONTINUATION:
        return render_continuation_prompt(path_texts, config.system_prompt,
                                          template.turn_separator)
    if role is Role.QUESTION:
        return render_question_prompt(path_texts, template, config.system_prompt)
    if role is Role.ANSWER:
        return render_answer_prompt(path_texts, template, config.system_prompt)
    raise ConfigError(f"cannot build a prompt for role {role}")


def expand_parent(parent: TreeNode, path_texts: Sequence[str], layer_index: int,
                  config: TreeConfig, template: ChatTemplate,
                  generator: GenerationBackend, embedder: EmbeddingBackend) -> ExpansionResult:
    """Generate, strip, embed, and MMR-filter one parent's child set.

    Requests ceil(oversample_factor * branching) candidates keyed by
    FNV-1a(config seed, parent id, layer index); on a dedup shortfall, one
    regeneration retry widens the pool before the shortfall is accepted.
    """
    layer = config.layer(layer_index)
    want = math.ceil(config.oversample_factor * layer.branching)
    prompt = prompt_for_layer(layer.role, path_texts, config, template)
    base_seed = combine(config.seed, parent.id, layer_index)

    pool_texts: list[str] = []
    pool_meta: list[tuple[int, str]] = []  # (global sample index, finish_reason)
    pool_vectors: list[EmbeddingVector] = []
    query_vec: EmbeddingVector | None = (
        EmbeddingVector(values=parent.embedding) if parent.embedding else None)

    selection = None
    retried = False
    for attempt in range(2):
        offset = attempt * want
        for chunk_index, chunk_start in enumerate(range(0, want, generator.sample_cap)):
            n = min(generator.sample_cap, want - chunk_start)
            # the first chunk of the first attempt uses the base seed directly;
            # further chunks/attempts derive fresh seeds for fresh sample ranges
            if attempt == 0 and chunk_index == 0:
                seed = base_seed
            else:
                seed = combine(base_seed, attempt, chunk_index)
            request = GenerationRequest(
                prompt=prompt, max_tokens=layer.max_tokens,
                temperature=layer.temperature, n_samples=n,
                stop=tuple(layer.stop_markers), request_seed=seed)
            result = generator.generate(request)
            for i, completion in enumerate(result.completions):
                global_index = offset + chunk_start + i
                try:
                    text = strip_completion(completion.text, layer.stop_markers, template)
                except EmptyCompletionError:
                    continue
                pool_texts.append(text)
                pool_meta.append((global_index, completion.finish_reason))

        new_texts = pool_texts[len(pool_vectors):]
        if new_texts:
            if query_vec is None:
                vectors = embedder.embed([parent.text] + new_texts)
                query_vec = vectors[0]
                pool_vectors.extend(vectors[1:])
            else:
                pool_vectors.extend(embedder.embed(new_texts))

        if pool_vectors:
            k = min(layer.branching, len(pool_vectors))
            selection = mmr_select(pool_vectors, query_vec, k, config.mmr_lambda)
            selection = near_duplicate_filter(pool_vectors, selection,
                                              config.dedup_threshold)
            if len(selection.selected) >= layer.branching:
                break
        if attempt == 0:
            retried = True

    kept = list(selection.selected) if selection else []
    drops = len(selection.dropped_as_duplicates) if selection else 0
    children = []
    for rank, pool_index in enumerate(kept):
        sample_index, finish_reason = pool_meta[pool_index]
        text = pool_texts[pool_index]
        children.append(TreeNode(
            id=child_id(parent.id, rank),
            parent_id=parent.id,
            layer=layer_index,
            role=layer.role,
            text=text,
            token_count=len(text.split()),
            embedding=pool_vectors[pool_index].values,
            gen_meta=GenMeta(backend_id=generator.backend_id,
                             finish_reason=finish_reason,
                             sample_index=sample_index),
        ))
    shortfall = layer.branching - len(children)
    if shortfall:
        log.info("expansion shortfall at parent %s layer %d: kept %d of %d",
                 parent.id, layer_index, len(children), layer.branching)
    return ExpansionResult(parent_id=parent.id, layer_index=layer_index,
                           children=children, shortfall=shortfall,
                           dedup_drops=drops, retried=retried)


# --- the runner --------------------------------------------------------------


class TreeRunner:
    """Drives a full tree run against a generation backend and an embedder."""

    def __init__(self, config: TreeConfig, generator: GenerationBackend,
                 embedder: EmbeddingBackend, store: CheckpointStore,
                 template: ChatTemplate | None = None, workers: int = 8):
        report = validate_config(config)
        if not report.ok:
            raise ConfigError("invalid config: " + "; ".join(report.errors))
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.config = config
        self.generator = generator
        self.embedder = embedder
        self.store = store
        self.template = template or get_template(config.template_id)
        self.workers = workers
        self.shape = report.shape

    # -- public entry point --------------------------------------------------

    def run(self) -> Tree:
        """Expand to full depth, resuming from the store when it has content."""
        if self.store.exists():
            tree = self.store.load(self.config)
        else:
            tree = self.store.initialize(self.config, self.generator.backend_id,
                                         self.workers)
        try:
            self._grow(tree)
        except (Exception, KeyboardInterrupt):
            # whatever happened, the store holds a valid committed prefix
            self.store.finalize(tree, "aborted", exit_status=2)
            raise
        self.store.finalize(tree, "complete", exit_status=0)
        return tree

    # -- the scheduling loop ---------------------------------------------------

    def _grow(self, tree: Tree) -> None:
        """Expand the frontier round by round until no node awaits expansion."""
        failed = threading.Event()
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            while frontier := self._frontier(tree):
                futures = [pool.submit(self._expand_from, failed, node,
                                       tree.path_texts(node.id))
                           for node in frontier]
                skipped = False
                for future in futures:  # commit strictly in frontier order
                    results = self._await(future)
                    # None: this task started just after a later one failed;
                    # commit nothing past it, as awaiting the failed one raises
                    skipped = skipped or results is None
                    for result in () if skipped else results:
                        self._commit_result(tree, result)
        except BaseException:
            failed.set()
            raise
        finally:
            pool.shutdown(cancel_futures=True)

    def _frontier(self, tree: Tree) -> list[TreeNode]:
        """Nodes to expand this round; a balance tree takes one layer at a time."""
        pending = tree.unexpanded()
        if self.shape is TreeShape.BALANCE and pending:
            shallowest = min(node.layer for node in pending)
            pending = [node for node in pending if node.layer == shallowest]
        return pending

    def _expand_from(self, failed: threading.Event, node: TreeNode,
                     path_texts: list[str]) -> list[ExpansionResult] | None:
        """Expand ``node``; outside a balance tree, keep descending while an
        expansion kept exactly one child, so a wide tree's chain is one task.

        Runs on a pool thread and reads nothing from the tree: ``node`` and
        its path are committed and immutable, and new nodes go back to the
        writer. Returns None without expanding once a failure has stopped
        the run.
        """
        if failed.is_set():
            return None
        results: list[ExpansionResult] = []
        try:
            while True:
                result = expand_parent(node, path_texts, node.layer + 1, self.config,
                                       self.template, self.generator, self.embedder)
                results.append(result)
                if (self.shape is TreeShape.BALANCE or len(result.children) != 1
                        or result.layer_index == self.config.depth):
                    return results
                node = result.children[0]
                path_texts = [*path_texts, node.text]
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
        self.store.append_block(result.children, parent_id=result.parent_id,
                                dedup_drops=result.dedup_drops,
                                retried=result.retried)
        tree.add_children(result.parent_id, result.children)
