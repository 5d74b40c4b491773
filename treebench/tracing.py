"""Spans recorded from outside treegen, by wrapping the calls into each layer.

A span holds wall time (``perf_counter``) and the calling thread's CPU time
(``thread_time``). Wall spans overstate layers on a GIL-bound run, because a
thread that waits for the interpreter lock is still inside its span; thread
CPU does not. Each span adds its totals to its parent's child totals, so self
time is the span minus the child spans nested in it on the same thread.

Only a traced job installs the wrappers. Spans stay in memory and are written
once, when the job ends.
"""

from __future__ import annotations

import json
import threading
import time


class Span:
    __slots__ = ("name", "t0", "t1", "c0", "c1", "child_wall", "child_cpu", "attrs")

    def __init__(self, name: str):
        self.name = name
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.attrs: dict = {}

    def to_dict(self) -> dict:
        wall, cpu = self.t1 - self.t0, self.c1 - self.c0
        return {"name": self.name, "t0": self.t0, "t1": self.t1, "wall": wall, "cpu": cpu,
                "self_wall": wall - self.child_wall, "self_cpu": cpu - self.child_cpu,
                **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as a span; ``note(args, result)`` returns its attributes."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name)
            stack.append(span)
            span.c0 = time.thread_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.c1 = time.thread_time()
                stack.pop()
                if stack:
                    stack[-1].child_wall += span.t1 - span.t0
                    stack[-1].child_cpu += span.c1 - span.c0
                self.spans.append(span)  # list.append is atomic under the GIL
            if note is not None:
                span.attrs.update(note(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def install(tracer: Tracer, generator=None, embedder=None) -> None:
    """Wrap the backends passed in and the public calls the scheduler makes.

    The scheduler looks its collaborators up as module globals, so patching
    ``treegen.scheduler.<name>`` puts a span around every call it makes.
    """
    import requests

    from treegen import cli, corpus, scheduler, tree

    if generator is not None:
        wrap_backends(tracer, generator, embedder)

    tracer.patch(scheduler, "expand_parent", "scheduler.expand",
                 lambda a, r: {"retried": int(r.retried), "shortfall": r.shortfall})
    tracer.patch(scheduler, "prompt_for_layer", "templates.render")
    tracer.patch(scheduler, "strip_completion", "templates.strip")
    tracer.patch(scheduler, "mmr_select", "dedup.mmr", lambda a, r: {"pool": len(a[0])})
    tracer.patch(scheduler, "near_duplicate_filter", "dedup.dupfilter",
                 lambda a, r: {"kept": len(r.selected),
                               "drops": len(r.dropped_as_duplicates)
                               - len(a[1].dropped_as_duplicates)})
    runner = scheduler.TreeRunner
    tracer.patch(runner, "_commit_result", "scheduler.commit")
    tracer.patch(runner, "_await", "scheduler.await")
    store = scheduler.CheckpointStore
    tracer.patch(store, "initialize", "store.initialize")
    tracer.patch(store, "append_block", "store.append")
    tracer.patch(store, "_write_manifest", "store.manifest",
                 lambda a, r: {"bytes": _file_size(a[0].manifest_path)})
    tracer.patch(store, "finalize", "store.finalize")
    tracer.patch(store, "load", "store.load", lambda a, r: {"records": len(r.nodes)})
    tracer.patch(tree.Tree, "path_nodes", "tree.leaf_paths")
    tracer.patch(tree.Tree, "leaf_paths", "tree.leaf_paths")
    for module in (corpus, cli):  # the CLI holds its own references
        tracer.patch(module, "build_corpus", "corpus.build", lambda a, r: {"records": len(r)})
        for export in ("export_sharegpt", "export_jsonl"):
            tracer.patch(module, export, "corpus.write", lambda a, r: {"bytes": _file_size(r)})

    # The stub reports its service time in a header. The client never sees
    # headers, so a traced job reads them at the session.
    post = requests.Session.post

    def timed_post(session, *args, **kwargs):
        response = post(session, *args, **kwargs)
        span = tracer.current()
        if span is not None:
            service = float(response.headers.get("X-Service-Time-Ms", "nan"))
            span.attrs["service_ms"] = span.attrs.get("service_ms", 0.0) + service
        return response

    requests.Session.post = timed_post

    build = cli._build_backends
    cli._build_backends = lambda args: wrap_backends(tracer, *build(args))


def wrap_backends(tracer: Tracer, generator, embedder):
    """Wrap one generator/embedder pair in place; returns the pair."""
    tracer.patch(generator, "generate", "backends.generate",
                 lambda a, r: {"samples": a[0].n_samples})
    tracer.patch(embedder, "embed", "backends.embed", lambda a, r: {"texts": len(a[0])})
    return generator, embedder


# --- per-layer metrics from one traced job ---------------------------------

PER_LAYER_UNITS = {
    "backends.generate.calls": "count", "backends.generate.samples": "count",
    "backends.generate.cpu_s": "s", "backends.generate.p50_ms": "ms",
    "backends.generate.p99_ms": "ms", "backends.embed.calls": "count",
    "backends.embed.texts": "count", "backends.embed.cpu_s": "s",
    "backends.http.overhead_p50_ms": "ms",
    "dedup.mmr.cpu_s": "s", "dedup.dupfilter.cpu_s": "s", "dedup.pool_mean": "count",
    "dedup.keep_ratio": "ratio", "dedup.drops": "count",
    "templates.render.cpu_s": "s", "templates.strip.cpu_s": "s",
    "templates.strip.calls": "count",
    "scheduler.expansions": "count", "scheduler.retries": "count",
    "scheduler.shortfalls": "count", "scheduler.expand.self_cpu_s": "s",
    "scheduler.commit.self_cpu_s": "s", "scheduler.writer.wait_s": "s",
    "scheduler.inflight_mean": "ratio",
    "store.append.calls": "count", "store.append.cpu_s": "s", "store.nodes_bytes": "B",
    "store.manifest.writes": "count", "store.manifest.cpu_s": "s",
    "store.manifest.bytes": "B", "store.load.s": "s", "store.load.records": "count",
    "tree.nodes": "count", "tree.leaves": "count", "tree.expected_leaves": "count",
    "tree.embedding_floats": "count", "tree.leaf_paths.s": "s",
    "corpus.build.s": "s", "corpus.write.s": "s", "corpus.records": "count",
    "corpus.bytes": "B",
    "job.cpu_s": "s", "trace.overhead_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def summarize(spans: list[dict], workers: int, phase_wall: float) -> dict:
    """Per-layer metrics from span dicts; ``phase_wall`` is the generate
    phase of the traced job."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s[key] for s in spans_of(name))

    generate = spans_of("backends.generate")
    overhead = [s["wall"] * 1000.0 - s["service_ms"] for s in generate if "service_ms" in s]
    pools = [s["pool"] for s in spans_of("dedup.mmr")]
    kept, drops = total("dedup.dupfilter", "kept"), total("dedup.dupfilter", "drops")
    in_flight = sum(s["wall"] for s in generate + spans_of("backends.embed"))
    return {
        "backends.generate.calls": len(generate),
        "backends.generate.samples": total("backends.generate", "samples"),
        "backends.generate.cpu_s": total("backends.generate", "cpu"),
        "backends.generate.p50_ms": percentile([s["wall"] * 1000.0 for s in generate], 50),
        "backends.generate.p99_ms": percentile([s["wall"] * 1000.0 for s in generate], 99),
        "backends.embed.calls": len(spans_of("backends.embed")),
        "backends.embed.texts": total("backends.embed", "texts"),
        "backends.embed.cpu_s": total("backends.embed", "cpu"),
        "backends.http.overhead_p50_ms": percentile(overhead, 50),
        "dedup.mmr.cpu_s": total("dedup.mmr", "cpu"),
        "dedup.dupfilter.cpu_s": total("dedup.dupfilter", "cpu"),
        "dedup.pool_mean": sum(pools) / len(pools) if pools else 0.0,
        "dedup.keep_ratio": kept / (kept + drops) if kept + drops else 0.0,
        "dedup.drops": drops,
        "templates.render.cpu_s": total("templates.render", "cpu"),
        "templates.strip.cpu_s": total("templates.strip", "cpu"),
        "templates.strip.calls": len(spans_of("templates.strip")),
        "scheduler.expansions": len(spans_of("scheduler.expand")),
        "scheduler.retries": total("scheduler.expand", "retried"),
        "scheduler.shortfalls": total("scheduler.expand", "shortfall"),
        "scheduler.expand.self_cpu_s": total("scheduler.expand", "self_cpu"),
        "scheduler.commit.self_cpu_s": total("scheduler.commit", "self_cpu"),
        "scheduler.writer.wait_s": total("scheduler.await", "wall"),
        "scheduler.inflight_mean": in_flight / (workers * phase_wall) if phase_wall else 0.0,
        "store.append.calls": len(spans_of("store.append")),
        "store.append.cpu_s": total("store.append", "self_cpu"),
        "store.manifest.writes": len(spans_of("store.manifest")),
        "store.manifest.cpu_s": total("store.manifest", "cpu"),
        "store.manifest.bytes": total("store.manifest", "bytes"),
        "store.load.s": total("store.load", "wall"),
        "store.load.records": total("store.load", "records"),
        "tree.leaf_paths.s": total("tree.leaf_paths", "wall"),
        "corpus.build.s": total("corpus.build", "wall"),
        "corpus.write.s": total("corpus.write", "wall"),
        "corpus.records": total("corpus.build", "records"),
        "corpus.bytes": total("corpus.write", "bytes"),
    }


def shares(spans: list[dict], metrics: dict, job: dict, workers: int,
           phase_wall: float) -> dict:
    """The ratios that confirm each workload's predicted dominant layer."""
    cpu = metrics["job.cpu_s"]
    generate_wall = sum(s["wall"] for s in spans if s["name"] == "backends.generate")
    return {
        "dedup_cpu": (metrics["dedup.mmr.cpu_s"] + metrics["dedup.dupfilter.cpu_s"]) / cpu,
        "backends_cpu": (metrics["backends.generate.cpu_s"]
                         + metrics["backends.embed.cpu_s"]) / cpu,
        "generate_wall_of_phase": generate_wall / (workers * phase_wall),
        "load_and_corpus_of_export": (metrics["store.load.s"] + metrics["corpus.build.s"]
                                      + metrics["corpus.write.s"]) / job["export_s"][0],
    }
