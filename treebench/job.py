"""One benchmark job, in a process of its own: grow a tree, then export it.

    python3 treebench/job.py --workload W --seed N --out DIR [...]

The last line of stdout is a JSON object of raw timestamps
(``time.monotonic``), counts and digests; ``run.py`` turns them into metrics
and checks them. The timed phases are

- generate: from the first backend call until ``TreeRunner.run`` (or
  ``treegen generate`` on wide-http) returns;
- export: ``CheckpointStore.load``, then ``build_corpus`` and the ShareGPT
  (``full``) and JSONL (``fixed:1``) exports, or the two ``treegen export``
  calls on wide-http.

``cpu_s`` is the process CPU time of those two phases (the first export
repetition only; see ``EXPORT_MIN_S``).

With ``--shipped-mocks`` the tree is grown with ``MockTextBackend`` and
``MockEmbedder``, labelled as the stub's model: the reference that the
wide-http tree and export must equal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import HTTP_MODEL, config_dict, file_sha256, tree_digest, use_checkout_src

use_checkout_src()

from standins import (BagOfWordsEmbedder, SignVectorEmbedder,  # noqa: E402
                      StandinTextBackend, WordCorpus)
from treegen import cli, corpus  # noqa: E402
from treegen.backends import MockEmbedder, MockTextBackend  # noqa: E402
from treegen.corpus import TurnPolicy  # noqa: E402
from treegen.scheduler import CheckpointStore, TreeRunner  # noqa: E402
from treegen.tree import config_from_dict, expected_leaf_count  # noqa: E402

import tracing  # noqa: E402

EXPORTS = ("corpus.json", "turn1.jsonl")
EXPORT_MIN_S = 0.5


class JobError(Exception):
    pass


def make_backends(workload: str, config, shipped_mocks: bool):
    if shipped_mocks:
        generator = MockTextBackend()
        generator.backend_id = f"http:{HTTP_MODEL}"  # what HttpTextBackend records
        return generator, MockEmbedder()
    words = WordCorpus()
    if workload == "select-d1024":
        return StandinTextBackend(words), SignVectorEmbedder()
    embedder = BagOfWordsEmbedder(words, (layer.max_tokens for layer in config.layers))
    return StandinTextBackend(words, embedder), embedder


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise JobError(f"treegen {argv[0]} exited {code}")
    return json.loads(out.getvalue())


def generate_over_http(config_path: Path, tree_dir: Path, workers: int, base_url: str) -> None:
    run_cli(["generate", "--config", str(config_path), "--out", str(tree_dir),
             "--backend", "http", "--workers", str(workers), "--model", HTTP_MODEL,
             "--base-url", base_url])


def export_over_cli(tree_dir: Path, out: Path) -> int:
    full = run_cli(["export", "--tree", str(tree_dir), "--format", "sharegpt",
                    "--out", str(out / EXPORTS[0])])
    turn1 = run_cli(["export", "--tree", str(tree_dir), "--format", "jsonl",
                     "--turn-policy", "fixed:1", "--out", str(out / EXPORTS[1])])
    return full["records"] + turn1["records"]


def export_in_process(config, tree_dir: Path, out: Path):
    """Returns (loaded tree, records)."""
    tree = load_tree(config, tree_dir)
    full = corpus.build_corpus(tree)
    corpus.export_sharegpt(full, out / EXPORTS[0])
    turn1 = corpus.build_corpus(tree, TurnPolicy.fixed(1))
    corpus.export_jsonl(turn1, out / EXPORTS[1])
    return tree, len(full) + len(turn1)


def load_tree(config, tree_dir: Path):
    store = CheckpointStore(tree_dir)
    tree = store.load(config)
    store.close()
    return tree


def export_sha(out: Path) -> str:
    return ":".join(file_sha256(out / name) for name in EXPORTS)


def run_job(args) -> dict:
    config_raw = config_dict(args.workload, args.seed)
    config = config_from_dict(config_raw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tree_dir = out / "tree"
    tracer = tracing.Tracer() if args.trace else None
    result: dict = {}

    generated = None
    if args.base_url:
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config_raw), encoding="utf-8")
        os.environ.setdefault("TG_API_KEY", "bench")
        if tracer:
            tracing.install(tracer)
        gen_cpu = time.process_time()
        generate_over_http(config_path, tree_dir, args.workers, args.base_url)
        result["gen_end"] = time.monotonic()
        gen_cpu = time.process_time() - gen_cpu
    else:
        generator, embedder = make_backends(args.workload, config, args.shipped_mocks)
        if tracer:
            tracing.install(tracer, generator, embedder)
        runner = TreeRunner(config, generator, embedder, CheckpointStore(tree_dir),
                            workers=args.workers)
        gen_cpu = time.process_time()
        generated = runner.run()
        result["gen_end"] = time.monotonic()
        gen_cpu = time.process_time() - gen_cpu
        result["first_call"] = getattr(generator, "first_call", None)
        result["embedding_floats"] = sum(len(n.embedding or ()) for n in generated.nodes.values())
        if isinstance(embedder, BagOfWordsEmbedder):
            result["standin_pending"] = embedder.pending()

    # The export phase is short on the generate workloads, so an untraced job
    # repeats it until EXPORT_MIN_S have passed and records_per_s takes the
    # fastest repetition. Job CPU and the trace count the first one only.
    export_s: list[float] = []
    while not export_s or (not tracer and sum(export_s) < EXPORT_MIN_S):
        cpu = time.process_time()
        start = time.monotonic()
        if args.base_url:
            records = export_over_cli(tree_dir, out)
            loaded = None
        else:
            loaded, records = export_in_process(config, tree_dir, out)
        export_s.append(time.monotonic() - start)
        if len(export_s) == 1:
            result["cpu_s"] = gen_cpu + time.process_time() - cpu
            if tracer:
                tracer.write(out / "spans.jsonl")
    result.update(export_s=export_s, records=records,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    # untimed: what the correctness gate needs
    if loaded is None:
        loaded = load_tree(config, tree_dir)
    manifest = json.loads((tree_dir / "manifest.json").read_text(encoding="utf-8"))
    result.update(
        status=manifest["status"],
        generated_digest=tree_digest(generated) if generated is not None else None,
        loaded_digest=tree_digest(loaded),
        nodes=loaded.non_root_count(),
        leaves=len(loaded.layer_ids(config.depth)),
        expected_leaves=expected_leaf_count(config),
        nodes_bytes=(tree_dir / "nodes.jsonl").stat().st_size,
        nodes_sha=file_sha256(tree_dir / "nodes.jsonl"),
        export_sha=export_sha(out),
    )
    result["valid"] = None
    if result["export_sha"] != args.validated:
        for name in EXPORTS:
            corpus.validate_sharegpt_file(out / name)
        result["valid"] = True
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="job directory (created)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--base-url", help="grow through treegen generate --backend http")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--shipped-mocks", action="store_true")
    parser.add_argument("--validated", default="",
                        help="export digest already validated in this run")
    args = parser.parse_args(argv)
    try:
        result = run_job(args)
    except Exception as exc:  # the harness counts the job as failed
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
