"""Expansion, checkpointing, resume, and concurrency semantics."""

from __future__ import annotations

import functools
import gc
import json
import logging
import math
import random
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from treegen import cli, scheduler
from treegen.backends import (Completion, EmbeddingVector, GenerationResult, MockEmbedder,
                              MockTextBackend)
from treegen.errors import BackendError, ConfigError, ResumableRunError
from treegen.fnv import combine, hash_text
from treegen.scheduler import (CONFIG_FILE, MANIFEST_FILE, NODES_FILE, CheckpointStore,
                               TreeRunner, expand_parent)
from treegen.tree import (ROOT_ID, Tree, child_id, config_to_dict, expected_leaf_count,
                          load_config, node_to_record, structural_key)

from conftest import (CountingBackend, FlakyBackend, OptionMock, node_records, pt_config,
                      sft_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class InjectedCrash(RuntimeError):
    pass


class AbortingStore(CheckpointStore):
    """Raises just before the commit that would cross ``abort_after_nodes``
    nodes appended through this store."""

    def __init__(self, directory, abort_after_nodes: int, **kwargs):
        super().__init__(directory, **kwargs)
        self.abort_after_nodes = abort_after_nodes
        self.appended = 0

    def append_block(self, nodes, **kwargs):
        if self.appended + len(nodes) > self.abort_after_nodes:
            raise InjectedCrash(f"injected crash at {self.appended}")
        super().append_block(nodes, **kwargs)
        self.appended += len(nodes)


def run_to_completion(config, directory, workers=4, backend=None, embedder=None):
    store = CheckpointStore(directory)
    tree = TreeRunner(config, backend or MockTextBackend(), embedder or MockEmbedder(),
                      store, workers=workers).run()
    return tree, store


# --- expand_parent -----------------------------------------------------------

def test_expand_requests_oversampled_pool(mock_embedder):
    config = sft_config([2, 2], dedup_threshold=1.01)
    backend = CountingBackend()
    tree = Tree(config)
    result = expand_parent(tree.nodes[ROOT_ID], [], config,
                           backend, mock_embedder)
    assert backend.calls[0]["n_samples"] == 4  # ceil(2.0 * 2)
    assert len(result.children) == 2
    assert [c.id for c in result.children] == [c.id for c in result.children]
    assert result.shortfall == 0


def test_expand_is_deterministic(mock_embedder):
    config = sft_config([2, 2])
    tree = Tree(config)
    args = (tree.nodes[ROOT_ID], [], config)
    a = expand_parent(*args, MockTextBackend(), mock_embedder)
    b = expand_parent(*args, MockTextBackend(), mock_embedder)
    assert [c.text for c in a.children] == [c.text for c in b.children]
    assert [c.id for c in a.children] == [c.id for c in b.children]


def test_expand_child_ids_are_structural(mock_embedder):
    config = sft_config([3, 2], dedup_threshold=1.01)
    tree = Tree(config)
    result = expand_parent(tree.nodes[ROOT_ID], [], config,
                           MockTextBackend(), mock_embedder)
    assert [c.id for c in result.children] == ["0", "1", "2"]
    assert all(c.parent_id == ROOT_ID and c.layer == 1 for c in result.children)


def test_expand_duplicate_pool_shortfalls(mock_embedder):
    config = sft_config([4, 2], dedup_threshold=0.95)
    backend = OptionMock(fixed_text="always the same words")
    tree = Tree(config)
    result = expand_parent(tree.nodes[ROOT_ID], [], config,
                           backend, mock_embedder)
    assert len(result.children) == 1  # every candidate is an exact duplicate
    assert result.shortfall == 3
    assert result.retried  # one regeneration attempt happened first
    assert result.dedup_drops > 0


def test_retried_expansion_counts_the_drops_of_both_attempts(mock_embedder, monkeypatch):
    # eight identical candidates, then sixteen: each attempt's filter drops
    # every candidate but the one it keeps, 7 and then 15
    config = sft_config([4, 2], dedup_threshold=0.95)
    filtered = []
    dupfilter = scheduler.near_duplicate_filter

    def counting_filter(candidates, selection, threshold):
        result = dupfilter(candidates, selection, threshold)
        filtered.append(len(result.dropped_as_duplicates))
        return result

    monkeypatch.setattr(scheduler, "near_duplicate_filter", counting_filter)
    result = expand_parent(Tree(config).nodes[ROOT_ID], [], config,
                           OptionMock(fixed_text="always the same words"),
                           mock_embedder)
    assert result.retried and len(result.children) == 1
    assert filtered == [7, 15]
    assert result.dedup_drops == 22


def test_expand_applies_layer_stop_markers(mock_embedder):
    # every raw completion carries trailing junk after the stop marker; the
    # stripped candidates collapse to one duplicate, so one child survives
    config = sft_config([3, 2], dedup_threshold=0.95, stop_markers=["STOP"])
    backend = OptionMock(fixed_text="alpha beta STOP trailing junk")
    tree = Tree(config)
    result = expand_parent(tree.nodes[ROOT_ID], [], config,
                           backend, mock_embedder)
    assert [c.text for c in result.children] == ["alpha beta"]
    assert result.shortfall == 2


def test_expand_uses_spec_request_seed(mock_embedder):
    config = sft_config([2, 2], dedup_threshold=1.01)
    backend = CountingBackend()
    tree = Tree(config)
    expand_parent(tree.nodes[ROOT_ID], [], config,
                  backend, mock_embedder)
    assert backend.calls[0]["request_seed"] == combine(config.seed, ROOT_ID, 1)


def test_expand_chunks_when_pool_exceeds_cap(mock_embedder):
    config = sft_config([40, 2], dedup_threshold=1.01)  # wants 80 > cap 64
    backend = CountingBackend()
    tree = Tree(config)
    result = expand_parent(tree.nodes[ROOT_ID], [], config,
                           backend, mock_embedder)
    assert [c["n_samples"] for c in backend.calls] == [64, 16]
    assert len(result.children) == 40


# --- full runs ---------------------------------------------------------------

def test_run_completes_and_counts_match(tmp_path):
    config = sft_config([2, 2])
    tree, store = run_to_completion(config, tmp_path / "t")
    assert not tree.unexpanded()
    assert len(tree.leaf_paths()) == expected_leaf_count(config) == 4
    assert store.manifest["status"] == "complete"
    assert store.manifest["nodes_committed"] == 6


def test_child_counts_never_exceed_branching(tmp_path):
    config = sft_config([3, 2, 2, 2], dedup_threshold=0.95)
    tree, _ = run_to_completion(config, tmp_path / "t")
    for node in tree.nodes.values():
        if node.layer < tree.depth:
            assert len(node.children) <= config.layer(node.layer + 1).branching


def test_run_pt_mode(tmp_path):
    config = pt_config([3, 2], dedup_threshold=1.01)
    tree, _ = run_to_completion(config, tmp_path / "t")
    assert len(tree.leaf_paths()) == 6


def test_nodes_jsonl_parent_before_child(tmp_path):
    config = sft_config([3, 2, 2, 2], dedup_threshold=1.01)
    _, store = run_to_completion(config, tmp_path / "t")
    seen = {ROOT_ID}
    for record in node_records((tmp_path / "t" / NODES_FILE).read_text()):
        assert record["parent_id"] in seen
        seen.add(record["id"])


def test_balance_log_is_in_structural_order_per_layer(tmp_path):
    from treegen.tree import structural_key
    config = sft_config([3, 2, 2, 2], dedup_threshold=1.01)
    run_to_completion(config, tmp_path / "t", workers=8)
    by_layer: dict[int, list[str]] = {}
    for record in node_records((tmp_path / "t" / NODES_FILE).read_text()):
        by_layer.setdefault(record["layer"], []).append(record["id"])
    for layer, ids in by_layer.items():
        assert ids == sorted(ids, key=structural_key), f"layer {layer}"


def test_run_is_deterministic_across_worker_counts(tmp_path):
    config = sft_config([8, 4, 2, 2], dedup_threshold=1.01)
    contents = []
    for workers in (1, 4, 16):
        d = tmp_path / f"w{workers}"
        run_to_completion(config, d, workers=workers)
        contents.append((d / NODES_FILE).read_bytes())
    assert contents[0] == contents[1] == contents[2]


def test_wide_tree_run_is_deterministic_across_workers(tmp_path):
    config = sft_config([6, 1, 1, 1], dedup_threshold=1.01)
    contents = []
    for workers in (1, 8):
        d = tmp_path / f"w{workers}"
        run_to_completion(config, d, workers=workers)
        contents.append((d / NODES_FILE).read_bytes())
    assert contents[0] == contents[1]


def test_checkpoint_round_trip_identity(tmp_path):
    config = sft_config([2, 2], template_id="llama2-chat")
    store = CheckpointStore(tmp_path / "t")
    tree = TreeRunner(config, MockTextBackend(), MockEmbedder(), store, workers=2).run()
    reloader = CheckpointStore(tmp_path / "t")
    reloaded = reloader.load(config)
    reloader.close()
    assert set(reloaded.nodes) == set(tree.nodes)
    for nid, node in tree.nodes.items():
        clone = reloaded.nodes[nid]
        assert clone.text == node.text
        assert clone.layer == node.layer
        assert clone.role == node.role
        assert clone.parent_id == node.parent_id
        assert clone.children == node.children
        # the runner keeps vectors apart from the tree
        assert node.embedding is None
        assert clone.gen_meta == node.gen_meta


def test_load_peak_stays_near_the_loaded_tree(tmp_path):
    # replay streams the file and holds back only the open block, so the
    # loaded tree is nearly all that load ever holds
    config = sft_config([8, 4, 4, 2], dedup_threshold=1.01)
    run_to_completion(config, tmp_path / "t")
    store = CheckpointStore(tmp_path / "t")
    gc.collect()
    tracemalloc.start()
    try:
        tree = store.load(config)
        tree_size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.non_root_count() == 8 + 32 + 128 + 256
    assert peak < 1.5 * tree_size


# --- resume ---------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("branching", [[8, 4, 2, 2], [8, 1, 1, 1]])
def test_interrupt_and_resume_with_dedup_on(tmp_path, branching, workers):
    # resume embeds the frontier parents' texts again as their MMR queries;
    # with the near-duplicate filter on, the records written after it equal
    # an uninterrupted run's
    config = sft_config(branching)
    baseline_dir = tmp_path / "baseline"
    TreeRunner(config, MockTextBackend(), MockEmbedder(),
               CheckpointStore(baseline_dir), workers=workers).run()
    baseline = (baseline_dir / NODES_FILE).read_bytes()
    for at in (5, 20):
        crash_dir = tmp_path / f"crash-{at}"
        aborting = AbortingStore(crash_dir, abort_after_nodes=at)
        with pytest.raises(InjectedCrash):
            TreeRunner(config, MockTextBackend(), MockEmbedder(), aborting,
                       workers=workers).run()
        assert baseline.startswith((crash_dir / NODES_FILE).read_bytes())
        TreeRunner(config, MockTextBackend(), MockEmbedder(),
                   CheckpointStore(crash_dir), workers=workers).run()
        assert (crash_dir / NODES_FILE).read_bytes() == baseline


def test_resume_complete_run_issues_no_calls(tmp_path):
    config = sft_config([2, 2])
    run_to_completion(config, tmp_path / "t")
    backend = CountingBackend()
    runner = TreeRunner(config, backend, MockEmbedder(), CheckpointStore(tmp_path / "t"))
    tree = runner.run()
    assert not tree.unexpanded()
    assert backend.calls == []


def test_resume_rejects_altered_seed(tmp_path):
    import dataclasses
    config = sft_config([2, 2], seed=1)
    run_to_completion(config, tmp_path / "t")
    altered = dataclasses.replace(config, seed=2)
    runner = TreeRunner(altered, MockTextBackend(), MockEmbedder(),
                        CheckpointStore(tmp_path / "t"))
    with pytest.raises(ConfigError, match="hash"):
        runner.run()


def test_resume_requires_checkpoint(tmp_path):
    config = sft_config([2, 2])
    with pytest.raises(ConfigError, match="no checkpoint"):
        CheckpointStore(tmp_path / "fresh").load(config)


@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("branching", [[8, 4, 2, 2], [8, 1, 1, 1]])
def test_interrupt_and_resume_equals_uninterrupted(tmp_path, branching, fraction):
    config = sft_config(branching, dedup_threshold=1.01)
    baseline_dir = tmp_path / "baseline"
    run_to_completion(config, baseline_dir)
    baseline = (baseline_dir / NODES_FILE).read_bytes()
    total_nodes = len(node_records(baseline)) - 1

    crash_dir = tmp_path / f"crash-{fraction}"
    aborting = AbortingStore(crash_dir, abort_after_nodes=int(total_nodes * fraction))
    runner = TreeRunner(config, MockTextBackend(), MockEmbedder(), aborting, workers=4)
    with pytest.raises(InjectedCrash):
        runner.run()
    partial = (crash_dir / NODES_FILE).read_bytes()
    assert baseline.startswith(partial)  # checkpoint prefix property

    resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                         CheckpointStore(crash_dir), workers=4).run()
    assert not resumed.unexpanded()
    assert (crash_dir / NODES_FILE).read_bytes() == baseline


def test_torn_trailing_line_is_recovered(tmp_path):
    config = sft_config([4, 2], dedup_threshold=1.01)
    baseline_dir = tmp_path / "baseline"
    run_to_completion(config, baseline_dir)
    baseline = (baseline_dir / NODES_FILE).read_bytes()

    crash_dir = tmp_path / "torn"
    run_to_completion(config, crash_dir)
    nodes_path = crash_dir / NODES_FILE
    raw = nodes_path.read_bytes()
    nodes_path.write_bytes(raw[:len(raw) - 17])  # cut into the final line
    manifest = json.loads((crash_dir / "manifest.json").read_text())
    manifest["status"] = "running"
    (crash_dir / "manifest.json").write_text(json.dumps(manifest))

    resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                         CheckpointStore(crash_dir), workers=2).run()
    assert not resumed.unexpanded()
    assert nodes_path.read_bytes() == baseline


def test_all_empty_completions_complete_with_shortfalls(tmp_path):
    # a backend that only produces empty text: every expansion records a
    # zero-child shortfall, the run still completes, and resume is idempotent
    config = sft_config([3, 2], dedup_threshold=1.01)
    backend = OptionMock(fixed_text="   ")
    store = CheckpointStore(tmp_path / "t")
    tree = TreeRunner(config, backend, MockEmbedder(), store, workers=2).run()
    assert not tree.unexpanded()
    assert tree.leaf_paths() == []
    assert store.manifest["shortfalls"] == 3  # the root's three missing children
    counting = CountingBackend()
    resumed = TreeRunner(config, counting, MockEmbedder(),
                         CheckpointStore(tmp_path / "t"), workers=2).run()
    assert not resumed.unexpanded()
    assert counting.calls == []


def test_tear_inside_the_first_block_recovers(tmp_path):
    config = sft_config([2, 2], dedup_threshold=1.01)
    baseline_dir = tmp_path / "base"
    run_to_completion(config, baseline_dir)
    baseline = (baseline_dir / NODES_FILE).read_bytes()

    crash_dir = tmp_path / "torn"
    run_to_completion(config, crash_dir)
    nodes_path = crash_dir / NODES_FILE
    first = baseline.splitlines(keepends=True)[0]
    nodes_path.write_bytes(first[:len(first) // 2])  # no block intact
    store = CheckpointStore(crash_dir)
    assert [node.id for node in store.load(config).unexpanded()] == [ROOT_ID]
    assert store._intact == 0
    manifest = json.loads((crash_dir / "manifest.json").read_text())
    manifest["status"] = "running"
    (crash_dir / "manifest.json").write_text(json.dumps(manifest))

    resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                         CheckpointStore(crash_dir), workers=2).run()
    assert not resumed.unexpanded()
    assert nodes_path.read_bytes() == baseline


def test_nodes_jsonl_stays_empty_until_the_first_commit(tmp_path):
    config = sft_config([2, 2], dedup_threshold=1.01)
    baseline_dir = tmp_path / "base"
    run_to_completion(config, baseline_dir)

    # a run that stops before its first commit leaves the file empty
    directory = tmp_path / "t"
    nodes_path = directory / NODES_FILE
    with pytest.raises(InjectedCrash):
        TreeRunner(config, MockTextBackend(), MockEmbedder(),
                   AbortingStore(directory, abort_after_nodes=0), workers=2).run()
    assert nodes_path.read_bytes() == b""
    assert json.loads((directory / MANIFEST_FILE).read_text())["status"] == "aborted"
    assert [node.id for node in CheckpointStore(directory).load(config).unexpanded()] == [
        ROOT_ID]
    run_to_completion(config, directory)
    assert nodes_path.read_bytes().startswith(b'{"parent_id":"root","children":[{"id":"0",')
    assert nodes_path.read_bytes() == (baseline_dir / NODES_FILE).read_bytes()


def shortfall_heavy_config(seed):
    # long answers look alike to the 16-dim mock embedder, so many
    # expansions keep fewer children than their branching
    return sft_config([4, 3, 2, 2], a_tokens=200, a_step=100, seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tear_after_partial_shortfall_block_resumes_identically(tmp_path, seed):
    # the tear lands in the line after a partial-shortfall block: that
    # block's line is whole, so replay keeps it, with its shortfall, and
    # resume regenerates only the torn block
    config = shortfall_heavy_config(seed)
    baseline_dir = tmp_path / "baseline"
    tree, _ = run_to_completion(config, baseline_dir)
    baseline = (baseline_dir / NODES_FILE).read_bytes()

    partial = {pid for pid in tree.shortfalls if tree.nodes[pid].children}
    lines = baseline.splitlines(keepends=True)
    for number, block in enumerate(map(json.loads, lines[:-1])):
        if block["parent_id"] in partial:
            cut = len(b"".join(lines[:number + 1])) + len(lines[number + 1]) // 2
            break
    else:
        pytest.fail("the run has no partial-shortfall block followed by another block")

    crash_dir = tmp_path / "torn"
    run_to_completion(config, crash_dir)
    nodes_path = crash_dir / NODES_FILE
    nodes_path.write_bytes(baseline[:cut])
    torn = CheckpointStore(crash_dir).load(config)
    assert len(torn.nodes[block["parent_id"]].children) == len(block["children"])

    resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                         CheckpointStore(crash_dir), workers=2).run()
    assert not resumed.unexpanded()
    assert nodes_path.read_bytes() == baseline


class SilentOnSomePrompts(MockTextBackend):
    """Returns only empty completions for about an eighth of the prompts.

    Keyed by the prompt, so a parent's retry is empty too and the parent ends
    with zero children, at any worker count.
    """

    def generate(self, request):
        result = super().generate(request)
        if hash_text(request.prompt) % 8:
            return result
        empty = tuple(Completion(text=" ", finish_reason="stop")
                      for _ in result.completions)
        return GenerationResult(completions=empty, latency_ms=result.latency_ms)


def test_load_without_manifest_rebuilds_tree(tmp_path):
    config = shortfall_heavy_config(0)
    tree, _ = run_to_completion(config, tmp_path / "t", backend=SilentOnSomePrompts())
    shortfalls = tree.shortfalls
    child_counts = [len(tree.nodes[pid].children) for pid in shortfalls]
    assert 0 in child_counts and any(child_counts)  # zero-child and partial
    (tmp_path / "t" / MANIFEST_FILE).unlink()

    store = CheckpointStore(tmp_path / "t")
    reloaded = store.load(config)
    store.close()
    assert list(reloaded.nodes) == list(tree.nodes)
    for nid, node in tree.nodes.items():
        assert reloaded.nodes[nid].children == node.children
        assert node_to_record(reloaded.nodes[nid]) == node_to_record(node)
    assert reloaded.shortfalls == shortfalls


def test_load_without_a_config_replays_with_the_one_config_json_holds(tmp_path):
    config = shortfall_heavy_config(0)
    run_to_completion(config, tmp_path / "t", backend=SilentOnSomePrompts())
    given = CheckpointStore(tmp_path / "t").load(config)
    held = CheckpointStore(tmp_path / "t").load()
    assert held.config == config
    assert [node_to_record(n) for n in held.nodes.values()] == [
        node_to_record(n) for n in given.nodes.values()]
    assert [n.children for n in held.nodes.values()] == [
        n.children for n in given.nodes.values()]
    assert held.shortfalls == given.shortfalls and held.shortfalls


def _replay_outcome(directory, config):
    """What loading ``directory`` gives: its error text, or the replayed
    nodes, their children, the unexpanded ids and the intact byte count."""
    store = CheckpointStore(directory)
    try:
        tree = store.load(config)
    except ConfigError as exc:
        return str(exc)
    return ([(node_to_record(node), node.children) for node in tree.nodes.values()],
            [node.id for node in tree.unexpanded()], store._intact)


# a block's line, without its newline, rewritten -> how replay takes it
REWRITTEN_NODE_LINES = {
    "leading-space": (lambda line: b" " + line, "same"),
    "leading-tab": (lambda line: b"\t" + line, "same"),
    "trailing-space": (lambda line: line + b"  ", "same"),
    "carriage-return": (lambda line: line + b"\r", "same"),
    "extra-key": (lambda line: line[:-1] + b',"note":[1,{"a":null}]}', "same"),
    "two-values": (lambda line: line + line, "tear"),
    "value-then-garbage": (lambda line: line + b" x", "tear"),
    "byte-order-mark": (lambda line: b"\xef\xbb\xbf" + line, "tear"),
    "empty": (lambda line: b"", "tear"),
    "bare-nan": (lambda line: b"NaN", "error"),
    "array": (lambda line: b"[" + line + b"]", "error"),
}


@pytest.mark.parametrize("case", list(REWRITTEN_NODE_LINES))
def test_replay_parses_each_line_as_json_loads_does(tmp_path, monkeypatch, case):
    # replay's one scanner call must accept and reject what json.loads does:
    # a reference replay parses every line with json.loads
    config = sft_config([2, 2, 2, 2], dedup_threshold=1.01)
    run_to_completion(config, tmp_path / "t")
    nodes_path = tmp_path / "t" / NODES_FILE
    untouched = _replay_outcome(tmp_path / "t", config)
    lines = nodes_path.read_bytes().split(b"\n")
    number = next(i for i, line in enumerate(lines) if line.startswith(b'{"parent_id":"1",'))
    rewrite, kind = REWRITTEN_NODE_LINES[case]
    lines[number] = rewrite(lines[number])
    nodes_path.write_bytes(b"\n".join(lines))

    outcome = _replay_outcome(tmp_path / "t", config)

    monkeypatch.setattr(scheduler, "_scan", lambda text: (json.loads(text), len(text)))
    assert _replay_outcome(tmp_path / "t", config) == outcome
    if kind == "same":
        assert outcome[:2] == untouched[:2]
    elif kind == "tear":  # the block of parent '1' and every later one dropped
        assert "1" in outcome[1] and outcome[2] < nodes_path.stat().st_size
    else:
        assert outcome == f"{nodes_path} line {number + 1} is not a JSON object"


# silent prompts give both shapes a zero-child expansion; a low near-duplicate
# cutoff gives the balance tree's short texts partial shortfalls too
EVERY_CUT_CONFIGS = {
    "balance": sft_config([3, 2, 2, 2], q_tokens=8, a_tokens=8, a_step=1, seed=0,
                          dedup_threshold=0.3),
    "wide": sft_config([4, 1, 1, 1], seed=0),
}


@pytest.mark.parametrize("shape", list(EVERY_CUT_CONFIGS))
def test_resume_from_a_cut_at_any_byte_equals_uninterrupted(tmp_path, capsys, monkeypatch,
                                                            shape):
    # a write cut at every line end, one inside a block included, and at a
    # sample of other bytes resumes to the uninterrupted run's bytes
    monkeypatch.setattr(cli, "MockTextBackend", SilentOnSomePrompts)
    config = EVERY_CUT_CONFIGS[shape]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    generate = ["generate", "--config", str(config_path), "--out", str(tmp_path / "t")]
    assert cli.main(generate) == 0
    tree = CheckpointStore(tmp_path / "t").load(config)
    child_counts = [len(tree.nodes[pid].children) for pid in tree.shortfalls]
    assert 0 in child_counts and (shape == "wide" or any(child_counts))
    nodes_path = tmp_path / "t" / NODES_FILE
    baseline = nodes_path.read_bytes()
    line_ends = [at + 1 for at, byte in enumerate(baseline) if byte == ord("\n")]
    others = sorted(set(range(len(baseline))) - set(line_ends))
    for cut in line_ends + random.Random(0).sample(others, 50):
        for workers in ("1", "2"):
            nodes_path.write_bytes(baseline[:cut])
            assert cli.main([*generate, "--workers", workers, "--resume"]) == 0, cut
            assert nodes_path.read_bytes() == baseline, f"cut at byte {cut}, workers {workers}"
            capsys.readouterr()


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("shape", list(EVERY_CUT_CONFIGS))
def test_nodes_jsonl_holds_one_line_per_expansion_in_commit_order(tmp_path, shape, workers):
    # commit order is a balance tree's layers one after another and a wide
    # tree's chains one after another, each in structural order
    config = EVERY_CUT_CONFIGS[shape]
    tree, _ = run_to_completion(config, tmp_path / "t", workers=workers,
                                backend=SilentOnSomePrompts())
    blocks = [json.loads(line) for line in (tmp_path / "t" / NODES_FILE).read_text().splitlines()]
    expanded = [node for node in tree.nodes.values() if node.layer < config.depth]
    order = ((lambda node: structural_key(node.id)) if shape == "wide"
             else (lambda node: (node.layer, structural_key(node.id))))
    assert [block["parent_id"] for block in blocks] == [
        node.id for node in sorted(expanded, key=order)]
    for block in blocks:
        assert ([record["id"] for record in block["children"]]
                == tree.nodes[block["parent_id"]].children)
    assert 0 in (len(block["children"]) for block in blocks)  # a zero-child expansion


def test_replay_warning_names_the_first_line_it_drops(tmp_path, caplog):
    # one invalid UTF-8 byte in line 5 of a [2, 2, 2, 2] tree's 15 lines:
    # replay keeps lines 1-4 and names line 5 and the bytes from there on
    config = sft_config([2, 2, 2, 2], dedup_threshold=1.01)
    run_to_completion(config, tmp_path / "t")
    nodes_path = tmp_path / "t" / NODES_FILE
    lines = nodes_path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + 2 + 4 + 8
    at = lines[4].index(b'"text":"') + len(b'"text":"')
    lines[4] = lines[4][:at] + b"\xff" + lines[4][at + 1:]
    nodes_path.write_bytes(b"".join(lines))
    caplog.set_level(logging.WARNING, logger="treegen.scheduler")
    store = CheckpointStore(tmp_path / "t")
    tree = store.load(config)
    kept = len(b"".join(lines[:4]))
    assert store._intact == kept and len(tree.nodes) == 1 + 2 + 4 + 2
    assert [r.getMessage() for r in caplog.records] == [
        "replay stops at nodes.jsonl line 5, which is partial or does not parse: the next "
        f"append cuts lines 5 to 15 ({nodes_path.stat().st_size - kept} bytes), and resume "
        "regenerates them"]


def test_manifest_counts_equal_the_tree_after_abort_and_resume(tmp_path):
    config = shortfall_heavy_config(0)
    directory = tmp_path / "t"

    def assert_manifest_matches_tree(status):
        manifest = json.loads((directory / MANIFEST_FILE).read_text())
        store = CheckpointStore(directory)
        tree = store.load(config)
        store.close()
        assert manifest["status"] == status
        assert manifest["nodes_committed"] == tree.non_root_count()
        assert manifest["shortfalls"] == sum(tree.shortfalls.values())
        return tree

    with pytest.raises(InjectedCrash):
        TreeRunner(config, MockTextBackend(), MockEmbedder(),
                   AbortingStore(directory, abort_after_nodes=60), workers=2).run()
    partial = assert_manifest_matches_tree("aborted")
    assert 0 < partial.non_root_count() <= 60 and sum(partial.shortfalls.values()) > 0
    TreeRunner(config, MockTextBackend(), MockEmbedder(),
               CheckpointStore(directory), workers=2).run()
    assert not assert_manifest_matches_tree("complete").unexpanded()


def test_manifest_written_at_start_and_finish_only(tmp_path, monkeypatch):
    statuses = []
    write = CheckpointStore._write_manifest

    def recording_write(store, *args):
        write(store, *args)
        statuses.append(json.loads(store.manifest_path.read_text())["status"])

    monkeypatch.setattr(CheckpointStore, "_write_manifest", recording_write)
    config = shortfall_heavy_config(1)
    tree, _ = run_to_completion(config, tmp_path / "t")
    assert tree.shortfalls  # a shortfall does not write the manifest
    assert statuses == ["running", "complete"]
    # a resumed session writes its own start and end; loading writes nothing
    nodes = tmp_path / "t" / NODES_FILE
    lines = nodes.read_bytes().splitlines(keepends=True)
    nodes.write_bytes(lines[0])  # the root's block
    statuses.clear()
    CheckpointStore(tmp_path / "t").load(config)
    assert statuses == []
    run_to_completion(config, tmp_path / "t")
    assert statuses == ["running", "complete"]


def test_a_json_write_that_fails_leaves_no_temporary_file(tmp_path):
    path = tmp_path / MANIFEST_FILE
    with pytest.raises(UnicodeEncodeError):  # UTF-8 cannot hold a lone surrogate
        scheduler._write_json(path, {"backend_id": "bad \ud800"})
    assert list(tmp_path.iterdir()) == []


def shortfall_lines_from_log(nodes_jsonl: str, config) -> list[str]:
    """The INFO line of each layer whose blocks in ``nodes_jsonl`` hold a
    shortfall, from a count of those blocks, layer order."""
    blocks = [json.loads(line) for line in nodes_jsonl.splitlines()]
    layer_of = {ROOT_ID: 0, **{r["id"]: r["layer"] for b in blocks for r in b["children"]}}
    counts: dict[int, list[int]] = {}
    for block in blocks:
        layer = layer_of[block["parent_id"]] + 1
        tally = counts.setdefault(layer, [0, 0, 0])
        tally[0] += 1
        tally[1] += len(block["children"]) < config.layer(layer).branching
        tally[2] += len(block["children"])
    return [f"layer {layer}: {short} of {expansions} expansions fell short, keeping "
            f"{kept} of {expansions * config.layer(layer).branching} children"
            for layer, (expansions, short, kept) in sorted(counts.items()) if short]


@pytest.mark.parametrize("abort_after_nodes", [None, 60])
def test_shortfalls_are_logged_once_per_layer_and_round(tmp_path, caplog, abort_after_nodes):
    # 512-token mock answers look alike to the 16-dim embedder, so most
    # answer expansions fall short; a balance round is one layer, so each
    # layer logs at most one line, whose counts are its blocks', also for
    # the round a failure cut short
    config = sft_config([8, 8, 4, 4], a_tokens=512, a_step=0)
    caplog.set_level(logging.INFO, logger="treegen.scheduler")
    directory = tmp_path / "t"
    if abort_after_nodes is None:
        run_to_completion(config, directory, workers=2)
    else:
        with pytest.raises(InjectedCrash):
            TreeRunner(config, MockTextBackend(), MockEmbedder(),
                       AbortingStore(directory, abort_after_nodes), workers=2).run()
    # the runner also logs the config's warning (a_step=0) on this logger
    lines = [r.getMessage() for r in caplog.records if r.name == "treegen.scheduler"
             and r.getMessage().startswith("layer ")]
    want = shortfall_lines_from_log((directory / NODES_FILE).read_text(), config)
    assert lines == want
    short = sum(int(line.split()[2]) for line in want)
    assert short > len(want) > 0  # one line stands for many short expansions


def scheduler_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "treegen.scheduler" and r.levelno == logging.WARNING]


def test_a_run_that_lost_most_of_its_leaves_warns_once(tmp_path, caplog):
    # one text for every completion: each expansion keeps one child of its
    # pool of duplicates, so the tree holds 1 of its 32 leaves, and ends
    # complete all the same
    caplog.set_level(logging.INFO, logger="treegen.scheduler")
    _, store = run_to_completion(sft_config([4, 2, 2, 2]), tmp_path / "t",
                                 backend=OptionMock(fixed_text="the same answer"))
    assert store.manifest["status"] == "complete"
    assert (store.manifest["leaf_count"], store.manifest["expected_leaves"]) == (1, 32)
    assert scheduler_warnings(caplog) == ["the run kept only 1 of its 32 expected leaves"]


def test_a_full_yield_run_logs_no_warning(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="treegen.scheduler")
    _, store = run_to_completion(sft_config([4, 2, 2, 2], dedup_threshold=1.01),
                                 tmp_path / "t")
    assert store.manifest["leaf_yield"] == 1.0
    assert scheduler_warnings(caplog) == []


def test_load_refuses_checkpoint_without_format(tmp_path):
    config = sft_config([2, 2])
    run_to_completion(config, tmp_path / "t")
    config_path = tmp_path / "t" / CONFIG_FILE
    written = json.loads(config_path.read_text())
    for stored, declares in (({k: v for k, v in written.items() if k != "format"},
                              "no checkpoint format"),
                             ({**written, "format": 4}, "checkpoint format 4")):
        config_path.write_text(json.dumps(stored))
        with pytest.raises(ConfigError, match=f"declares {declares}; this version reads "
                                                  "checkpoint format 5 only, so regenerate"):
            CheckpointStore(tmp_path / "t").load(config)


PT_WORLD_KNOWLEDGE_CONFIG_JSON = """\
{
  "format": 5,
  "config": {
    "mode": "pt",
    "system_prompt": "Here are some useful world knowledge:",
    "layers": [
      {
        "branching": 16,
        "max_tokens": 48,
        "role": "continuation",
        "temperature": 1.0,
        "stop_markers": []
      },
      {
        "branching": 2,
        "max_tokens": 48,
        "role": "continuation",
        "temperature": 1.0,
        "stop_markers": []
      },
      {
        "branching": 2,
        "max_tokens": 48,
        "role": "continuation",
        "temperature": 1.0,
        "stop_markers": []
      }
    ],
    "oversample_factor": 2.0,
    "mmr_lambda": 0.5,
    "dedup_threshold": 0.95,
    "seed": 5,
    "template_id": "plain"
  },
  "hash": "3103f646be25e229"
}
"""


def test_initialize_writes_pinned_config_json(tmp_path):
    config = load_config(CONFIGS / "pt_world_knowledge.json")
    store = CheckpointStore(tmp_path / "t")
    store.initialize(config)
    store.close()
    assert (tmp_path / "t" / CONFIG_FILE).read_bytes() == PT_WORLD_KNOWLEDGE_CONFIG_JSON.encode()


def test_a_config_json_write_cut_short_leaves_no_checkpoint(tmp_path, capsys, monkeypatch):
    # config.json is renamed into place whole: when that fails, the directory
    # holds no checkpoint, so a plain rerun starts the tree afresh
    config = sft_config([3, 2])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)))
    run_to_completion(config, tmp_path / "clean")
    out_dir = tmp_path / "t"
    replace = scheduler.os.replace

    def failing_replace(src, dst):
        if dst == out_dir / CONFIG_FILE:
            raise OSError("disk full")
        replace(src, dst)

    generate = ["generate", "--config", str(config_path), "--out", str(out_dir)]
    with monkeypatch.context() as patch:
        patch.setattr(scheduler.os, "replace", failing_replace)
        assert cli.main(generate) == 1
    assert not (out_dir / CONFIG_FILE).exists()
    assert cli.main(generate) == 0
    capsys.readouterr()
    assert ((out_dir / NODES_FILE).read_bytes()
            == (tmp_path / "clean" / NODES_FILE).read_bytes())


class EmptyAfterN(OptionMock):
    """Returns only empty completions from the (n+1)-th call on."""

    def __init__(self, n, **kwargs):
        super().__init__(**kwargs)
        self.n = n
        self.seen = 0

    def generate(self, request):
        self.seen += 1
        if self.seen > self.n:
            self.fixed_text = " "
        return super().generate(request)


def test_dead_chain_resumes_idempotently(tmp_path):
    # wide tree at workers=1: call order is root, then chain 0's three layers
    # (calls 2-4), then chain 1, whose expansion and its retry both come back
    # empty, so chain 1 dies at layer 1 while chain 0 completes
    config = sft_config([2, 1, 1, 1], dedup_threshold=1.01)
    store = CheckpointStore(tmp_path / "t")
    tree = TreeRunner(config, EmptyAfterN(4), MockEmbedder(), store, workers=1).run()
    assert not tree.unexpanded()
    paths = tree.leaf_paths()
    assert len(paths) == 1 and paths[0][0].id == "0"
    assert store.manifest["shortfalls"] == 1
    assert tree.shortfalls == {"1": 1}
    assert '{"parent_id":"1","children":[]}\n' in (tmp_path / "t" / NODES_FILE).read_text()
    counting = CountingBackend()
    resumed = TreeRunner(config, counting, MockEmbedder(),
                         CheckpointStore(tmp_path / "t"), workers=1).run()
    assert not resumed.unexpanded()
    assert resumed.shortfalls == {"1": 1}  # replayed from the empty block
    assert counting.calls == []


def assert_aborted_prefix_resumes(config, directory, workers) -> None:
    """The aborted run left a prefix of an uninterrupted run's nodes.jsonl,
    and resume completes it byte for byte."""
    run_to_completion(config, directory.parent / "baseline")
    baseline = (directory.parent / "baseline" / NODES_FILE).read_bytes()
    nodes_path = directory / NODES_FILE
    assert baseline.startswith(nodes_path.read_bytes())
    assert json.loads((directory / MANIFEST_FILE).read_text())["status"] == "aborted"
    resumed = TreeRunner(config, MockTextBackend(), MockEmbedder(),
                         CheckpointStore(directory), workers=workers).run()
    assert not resumed.unexpanded()
    assert nodes_path.read_bytes() == baseline


FAILFAST_SHAPES = pytest.mark.parametrize(
    "branching", [[64, 2], [64, 1, 1, 1]], ids=["64x2", "64x1x1x1"])


@FAILFAST_SHAPES
def test_backend_failure_aborts_resumably(tmp_path, branching):
    # the first failure stops every task before its next expansion: past the
    # failing 3rd call, each other worker may start at most the call of the
    # expansion it was in
    config = sft_config(branching, dedup_threshold=1.01)
    workers = 2
    backend = FlakyBackend(fail_on_call=3)
    runner = TreeRunner(config, backend, MockEmbedder(),
                        CheckpointStore(tmp_path / "t"), workers=workers)
    with pytest.raises(ResumableRunError):
        runner.run()
    assert backend.seen <= 3 + (workers - 1)
    assert_aborted_prefix_resumes(config, tmp_path / "t", workers)


class FailingStore(CheckpointStore):
    """Raises OSError from its ``fail_on_commit``-th ``append_block``: before
    it writes, or with ``torn`` after writing and flushing the first half of
    the block's bytes."""

    def __init__(self, directory, fail_on_commit: int, torn: bool):
        super().__init__(directory)
        self.fail_on_commit, self.torn, self.commits = fail_on_commit, torn, 0

    def append_block(self, nodes, **kwargs):
        self.commits += 1
        if self.commits == self.fail_on_commit and not self.torn:
            raise OSError("injected store failure before the write")
        super().append_block(nodes, **kwargs)

    def _write(self, text):
        if self.commits != self.fail_on_commit:
            return super()._write(text)
        self._handle.write(text[:len(text) // 2])
        self._handle.flush()
        raise OSError("injected store failure after a partial write")


def test_seeded_fault_sweep_aborts_to_a_prefix_and_resumes_byte_identically(tmp_path):
    # each case fails one generate call, drawn from the uninterrupted run's
    # calls, or one commit, drawn from its commits, before the store writes
    # or halfway through the block: the aborted nodes.jsonl is a prefix of
    # that run's, and a resume completes it byte for byte
    calls_rng, commits_rng = random.Random(0), random.Random(1)
    shapes = {"4x2x2x2": sft_config([4, 2, 2, 2]), "6x1x1x1": sft_config([6, 1, 1, 1]),
              "pt-3x2x2": pt_config([3, 2, 2])}
    for name, config in shapes.items():
        counting = CountingBackend()
        run_to_completion(config, tmp_path / name / "baseline", workers=1, backend=counting)
        baseline = (tmp_path / name / "baseline" / NODES_FILE).read_bytes()
        commits = len(baseline.splitlines())
        for workers in (1, 4):
            cases = [(f"fail_on_call={call}", FlakyBackend(call), CheckpointStore,
                      ResumableRunError)
                     for call in sorted(calls_rng.sample(range(1, len(counting.calls) + 1), 4))]
            cases += [(f"fail_on_commit={commit} torn={torn}", MockTextBackend(),
                       functools.partial(FailingStore, fail_on_commit=commit, torn=torn), OSError)
                      for commit in sorted(commits_rng.sample(range(1, commits + 1), 2))
                      for torn in (False, True)]
            for label, generator, make_store, error in cases:
                case = f"{name} workers={workers} {label}"
                directory = tmp_path / name / f"w{workers} {label}"
                with pytest.raises(error, match="injected"):
                    TreeRunner(config, generator, MockEmbedder(), make_store(directory),
                               workers=workers).run()
                nodes = (directory / NODES_FILE).read_bytes()
                assert baseline.startswith(nodes), case
                TreeRunner(config, MockTextBackend(), MockEmbedder(),
                           CheckpointStore(directory), workers=workers).run()
                assert (directory / NODES_FILE).read_bytes() == baseline, case


DUPLICATE_TEXT = "one answer repeated"


class DuplicatingBackend(MockTextBackend):
    """Answers every request of attempt 0 of the expansion whose base seed is
    ``base_seed`` and pool ``want`` samples with one text repeated, so that it
    keeps one child and retries; any other request as the mock does."""

    def __init__(self, base_seed: int, want: int):
        super().__init__()
        chunks = range(1, math.ceil(want / self.sample_cap))
        self.duplicate_seeds = {base_seed} | {combine(base_seed, 0, c) for c in chunks}

    def generate(self, request):
        if request.request_seed not in self.duplicate_seeds:
            return super().generate(request)
        return GenerationResult(completions=tuple(
            Completion(text=DUPLICATE_TEXT, finish_reason="stop")
            for _ in range(request.n_samples)), latency_ms=0.0)


class DimensionChangingEmbedder(MockEmbedder):
    """Once a call has embedded ``DUPLICATE_TEXT``, returns 17-dimensional
    vectors from every later call. The extra component is 0, so a cosine
    between two 17-dimensional vectors is the mock's."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.grown = False

    def embed(self, texts):
        with self._lock:
            grown = self.grown
            self.grown = grown or DUPLICATE_TEXT in texts
        vectors = super().embed(texts)
        if grown:
            vectors = [EmbeddingVector(values=v.values + (0.0,)) for v in vectors]
        return vectors


@pytest.mark.parametrize("branching, parent_id", [([64, 2], "2"), ([64, 1, 1, 1], ROOT_ID)],
                         ids=["64x2", "64x1x1x1"])
def test_embedding_dimension_change_aborts_resumably(tmp_path, branching, parent_id):
    # the parent's query and first pool come from one 16-dimensional call; its
    # pool is one text, so it retries, and the retry's call returns 17. Below
    # the root only a branching above 1 retries on duplicates.
    config = sft_config(branching)
    layer = 1 if parent_id == ROOT_ID else 2
    backend = DuplicatingBackend(combine(config.seed, parent_id, layer),
                                 math.ceil(config.oversample_factor * branching[layer - 1]))
    runner = TreeRunner(config, backend, DimensionChangingEmbedder(),
                        CheckpointStore(tmp_path / "t"), workers=2)
    with pytest.raises(ResumableRunError, match=r"has 16, its pool has \[17\]"):
        runner.run()
    assert_aborted_prefix_resumes(config, tmp_path / "t", workers=2)


class OverflowingEmbedder(MockEmbedder):
    """Scales the vector at ``position`` of every call by 1e200: each value
    stays finite, but the squared norm does not, and a cosine of it is nan."""

    def __init__(self, position: int):
        super().__init__()
        self.position = position

    def embed(self, texts):
        vectors = super().embed(texts)
        values = vectors[self.position].values
        vectors[self.position] = EmbeddingVector(values=tuple(x * 1e200 for x in values))
        return vectors


@pytest.mark.parametrize("position", [0, -1], ids=["query", "pool"])
def test_overflowing_embedding_is_a_backend_error(position):
    # the parent's text is embedded first, ahead of its pool
    config = sft_config([4, 2])
    with pytest.raises(BackendError, match="squared norm is not finite"):
        expand_parent(Tree(config).nodes[ROOT_ID], [], config,
                      MockTextBackend(), OverflowingEmbedder(position))


class InterruptingStore(CheckpointStore):
    """Raises KeyboardInterrupt at its ``at``-th commit, as a Ctrl-C would."""

    def __init__(self, directory, backend: CountingBackend, at: int):
        super().__init__(directory)
        self.backend = backend
        self.at = at
        self.commits = 0
        self.calls_at_interrupt = None

    def append_block(self, nodes, **kwargs):
        self.commits += 1
        if self.commits == self.at:
            self.calls_at_interrupt = len(self.backend.calls)
            raise KeyboardInterrupt
        super().append_block(nodes, **kwargs)


@FAILFAST_SHAPES
def test_interrupt_stops_queued_expansions(tmp_path, branching):
    # the writer is interrupted after the workers may have run ahead of it,
    # so the bound counts from the interrupt: each worker finishes at most
    # the one expansion it holds, a wide tree's chain included
    config = sft_config(branching, dedup_threshold=1.01)
    workers = 2
    backend = CountingBackend()
    store = InterruptingStore(tmp_path / "t", backend, at=3)
    with pytest.raises(KeyboardInterrupt):
        TreeRunner(config, backend, MockEmbedder(), store, workers=workers).run()
    assert len(backend.calls) <= store.calls_at_interrupt + workers
    assert_aborted_prefix_resumes(config, tmp_path / "t", workers)


class FailedWatchingRunner(TreeRunner):
    """Exposes the run's ``failed`` event, which its tasks are handed."""

    failed = None

    def _expand_from(self, failed, node, path_texts):
        self.failed = failed
        return super()._expand_from(failed, node, path_texts)


class GatedBackend(OptionMock):
    """Holds every call whose request seed is not in ``free_seeds`` until the
    run's ``failed`` event is set; with ``fail``, the call that finds every
    worker held raises instead. ``late`` counts the calls that start after
    the failure."""

    runner: FailedWatchingRunner

    def __init__(self, workers: int, free_seeds: set[int], fail=False):
        super().__init__(latency_ms=2.0)
        self.workers, self.free_seeds, self.fail = workers, free_seeds, fail
        self.held_calls = threading.Condition()
        self.failure_seen = self.timed_out = False
        self.held = self.late = 0

    def generate(self, request):
        with self.held_calls:
            self.late += self.failure_seen
            hold = request.request_seed not in self.free_seeds
            if hold:
                self.held += 1
                if self.fail and self.held == self.workers:
                    self.failure_seen = True
                    raise BackendError("injected backend failure", attempts=1)
                self.held_calls.notify_all()
        if hold:
            self.timed_out |= not self.runner.failed.wait(timeout=30)
        return super().generate(request)

    def fail_when_all_held(self) -> None:
        with self.held_calls:
            self.timed_out |= not self.held_calls.wait_for(
                lambda: self.held == self.workers, timeout=30)
            self.failure_seen = True


class HeldFailingStore(CheckpointStore):
    """Raises at its ``fail_on_commit``-th commit once every worker is held."""

    def __init__(self, directory, backend: GatedBackend, fail_on_commit: int):
        super().__init__(directory)
        self.backend, self.fail_on_commit, self.commits = backend, fail_on_commit, 0

    def append_block(self, nodes, **kwargs):
        self.commits += 1
        if self.commits == self.fail_on_commit:
            self.backend.fail_when_all_held()
            raise OSError("injected store failure")
        super().append_block(nodes, **kwargs)


def chain_seeds(config, rank: int) -> set[int]:
    """The request seeds of the layer-1 chain under the root's child ``rank``
    in a wide tree: one request per expansion, as each pool fits one call."""
    parent, seeds = child_id(ROOT_ID, rank), set()
    for layer in range(2, config.depth + 1):
        seeds.add(combine(config.seed, parent, layer))
        parent = child_id(parent, 0)
    return seeds


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("failure", ["generate", "store"])
def test_no_generate_call_starts_after_a_failure(tmp_path, failure, workers):
    # every worker is held inside a chain's generate call when the failure
    # comes, and released only once the run's failed event is set: a task
    # that then went on down its chain would start a call after the failure
    config = sft_config([16, 1, 1, 1], dedup_threshold=1.01)
    root = {combine(config.seed, ROOT_ID, 1)}  # the root's pool of 32 is one call
    if failure == "generate":
        backend = GatedBackend(workers, root, fail=True)
        store, error = CheckpointStore(tmp_path / "t"), ResumableRunError
    else:  # chain 0 runs free, and the store fails at its first block
        backend = GatedBackend(workers, root | chain_seeds(config, 0))
        store, error = HeldFailingStore(tmp_path / "t", backend, fail_on_commit=2), OSError
    backend.runner = FailedWatchingRunner(config, backend, MockEmbedder(), store,
                                          workers=workers)
    with pytest.raises(error, match="injected"):
        backend.runner.run()
    assert not backend.timed_out
    assert backend.failure_seen and backend.late == 0
    assert_aborted_prefix_resumes(config, tmp_path / "t", workers)


class PositionalEmbedder(MockEmbedder):
    """Embeds the first text of every call with its components rotated by one,
    as a server whose batched embeddings depend on the batch might."""

    def embed(self, texts):
        first, *rest = super().embed(texts)
        return [EmbeddingVector(values=first.values[1:] + first.values[:1]), *rest]


def test_query_comes_from_the_same_batch_fresh_and_resumed(tmp_path):
    # a parent is embedded first in its own pool's call, in a fresh session
    # and after a resume alike, so the interrupted tree is the fresh one
    config = sft_config([4, 3, 2, 2], dedup_threshold=1.01)
    run_to_completion(config, tmp_path / "fresh", workers=2, embedder=PositionalEmbedder())
    backend = CountingBackend()
    store = InterruptingStore(tmp_path / "t", backend, at=3)
    with pytest.raises(KeyboardInterrupt):
        TreeRunner(config, backend, PositionalEmbedder(), store, workers=2).run()
    run_to_completion(config, tmp_path / "t", workers=2, embedder=PositionalEmbedder())
    assert (tmp_path / "t" / NODES_FILE).read_bytes() == \
        (tmp_path / "fresh" / NODES_FILE).read_bytes()


# --- scheduling semantics ----------------------------------------------------------

def expected_seed_layer_map(config) -> dict[int, int]:
    """request_seed -> layer index for every expansion of a shortfall-free run."""
    parents = {1: [ROOT_ID]}
    ids = [ROOT_ID]
    mapping = {}
    for layer_index, layer in enumerate(config.layers, start=1):
        next_ids = []
        for pid in ids:
            mapping[combine(config.seed, pid, layer_index)] = layer_index
            for rank in range(layer.branching):
                next_ids.append(str(rank) if pid == ROOT_ID else f"{pid}.{rank}")
        ids = next_ids
    return mapping


def test_in_flight_bound_respected(tmp_path):
    config = sft_config([8, 2, 1, 1], dedup_threshold=1.01)
    backend = CountingBackend(latency_ms=5)
    store = CheckpointStore(tmp_path / "t")
    TreeRunner(config, backend, MockEmbedder(), store, workers=3).run()
    assert backend.max_in_flight <= 3
    assert backend.max_in_flight >= 2  # parallelism actually happened


def test_balance_layers_are_barriers(tmp_path):
    config = sft_config([4, 2, 2, 2], dedup_threshold=1.01)
    backend = CountingBackend(latency_ms=3,
                              seed_to_layer=expected_seed_layer_map(config))
    store = CheckpointStore(tmp_path / "t")
    TreeRunner(config, backend, MockEmbedder(), store, workers=8).run()
    by_layer: dict[int, list] = {}
    for call in backend.calls:
        assert call["layer"] is not None, "unexpected request seed"
        by_layer.setdefault(call["layer"], []).append(call)
    for layer in range(1, config.depth):
        latest_end = max(c["end"] for c in by_layer[layer])
        earliest_next = min(c["start"] for c in by_layer[layer + 1])
        assert latest_end <= earliest_next


def test_wide_chains_overlap_layers(tmp_path):
    # anti-barrier: some chain must reach layer 3 before another finishes layer 2
    config = sft_config([8, 1, 1, 1], dedup_threshold=1.01)
    backend = CountingBackend(latency_ms=20, latency_jitter=0.9,
                              seed_to_layer=expected_seed_layer_map(config))
    store = CheckpointStore(tmp_path / "t")
    TreeRunner(config, backend, MockEmbedder(), store, workers=4).run()
    by_layer: dict[int, list] = {}
    for call in backend.calls:
        by_layer.setdefault(call["layer"], []).append(call)
    latest_l2_end = max(c["end"] for c in by_layer[2])
    earliest_l3_start = min(c["start"] for c in by_layer[3])
    assert earliest_l3_start < latest_l2_end


def test_wide_tree_beats_balance_tree_with_latency(tmp_path):
    # equal leaf count (8), equal depth (8), workers 8, ~50 ms per call
    wide = sft_config([8, 1, 1, 1, 1, 1, 1, 1], dedup_threshold=1.01)
    balance = sft_config([2, 2, 2, 1, 1, 1, 1, 1], dedup_threshold=1.01)
    assert expected_leaf_count(wide) == expected_leaf_count(balance) == 8

    def timed(config, directory):
        backend = OptionMock(latency_ms=50, latency_jitter=0.8)
        store = CheckpointStore(directory)
        start = time.monotonic()
        TreeRunner(config, backend, MockEmbedder(), store, workers=8).run()
        return time.monotonic() - start

    wide_elapsed = timed(wide, tmp_path / "wide")
    balance_elapsed = timed(balance, tmp_path / "balance")
    assert wide_elapsed < balance_elapsed


# --- memory ------------------------------------------------------------------------

class TrackedValues(list):
    """A vector's floats. A list, because a tuple takes no weak reference."""


class TrackingEmbedder(MockEmbedder):
    """MockEmbedder that keeps a weak reference to every vector it returns and
    to its floats: whatever holds a vector, or only its values, keeps it live.
    ``peak`` is the most vectors of earlier calls live at any call."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._refs: list[tuple[weakref.ref, weakref.ref]] = []
        self.calls = 0
        self.peak = 0

    def embed(self, texts):
        vectors = [EmbeddingVector(values=TrackedValues(v.values))
                   for v in super().embed(texts)]
        with self._lock:
            self.calls += 1
            self.peak = max(self.peak, self._live())
            self._refs.extend((weakref.ref(v), weakref.ref(v.values)) for v in vectors)
        return vectors

    def _live(self) -> int:
        return sum(ref() is not None or values() is not None for ref, values in self._refs)

    def live(self) -> int:
        with self._lock:
            return self._live()


class MemoryCheckingStore(CheckpointStore):
    """At every commit, checks that the live vectors are at most
    ``in_flight``, those of the pools the workers are selecting from."""

    def __init__(self, directory, embedder: TrackingEmbedder, in_flight: int):
        super().__init__(directory)
        self.embedder = embedder
        self.in_flight = in_flight
        self.commits = 0

    def append_block(self, nodes, **kwargs):
        live = self.embedder.live()
        assert live <= self.in_flight, \
            f"commit {self.commits}: {live} vectors live, bound {self.in_flight}"
        super().append_block(nodes, **kwargs)
        self.commits += 1


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("branching", [[4, 3, 2, 2], [16, 1, 1, 1]])
def test_vectors_live_only_until_their_node_is_expanded(tmp_path, branching, workers):
    config = sft_config(branching)
    embedder = TrackingEmbedder()
    # a worker selects from at most two attempts' candidates plus the query;
    # the root's pool is never in flight at a commit
    pool = max(math.ceil(config.oversample_factor * n) for n in branching[1:])
    store = MemoryCheckingStore(tmp_path / "t", embedder,
                                in_flight=workers * (2 * pool + 1))
    tree = TreeRunner(config, MockTextBackend(), embedder, store, workers=workers).run()
    assert store.commits > 1 + branching[0]
    assert all(node.embedding is None for node in tree.nodes.values())
    gc.collect()
    assert embedder.live() == 0
    run_to_completion(config, tmp_path / "plain", workers=workers)
    assert (tmp_path / "t" / NODES_FILE).read_bytes() == \
        (tmp_path / "plain" / NODES_FILE).read_bytes()


def test_live_vectors_are_bounded_by_the_pools_in_flight(tmp_path):
    # the layer-3 frontier is 64 nodes wide; at an embed call, only the
    # worker's own expansion may hold an earlier call's vectors: its query
    # and first pool
    config = sft_config([8, 4, 2, 2])
    workers = 1
    pool = max(math.ceil(config.oversample_factor * layer.branching)
               for layer in config.layers)
    embedder = TrackingEmbedder()
    tree, _ = run_to_completion(config, tmp_path / "t", workers=workers, embedder=embedder)
    assert len(tree.unexpanded()) == 0 and len(tree.layer_ids(3)) > workers * (pool + 1)
    assert embedder.calls > len(tree.layer_ids(3))
    assert embedder.peak <= workers * (pool + 1)
