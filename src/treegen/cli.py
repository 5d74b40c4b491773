"""Command-line entry point for reproducible tree runs and exports.

Exit codes are fixed for scripting: 0 success, 1 hard error, 2 resumable
abort, 64 usage error. stdout carries only machine-readable JSON; human
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .analysis import compute_stats
from .backends import (API_BASE_ENV, HttpEmbedder, HttpTextBackend, MockEmbedder,
                       MockTextBackend)
from .corpus import (TurnPolicy, build_corpus, export_jsonl, export_pt,
                     export_sharegpt, gaussian_turn_policy, sample_to_size,
                     validate_sharegpt_file)
from .errors import ConfigError, ResumableRunError, TreeGenError
from .scheduler import CheckpointStore, TreeRunner
from .templates import resolve_template
from .tree import Mode, load_config, validate_config

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_RESUMABLE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, ensure_ascii=False, indent=2)
    sys.stdout.write("\n")


def _build_backends(args):
    if args.backend == "mock":
        return MockTextBackend(), MockEmbedder()
    generator = HttpTextBackend(base_url=args.base_url, model=args.model)
    embedder = HttpEmbedder(base_url=args.base_url,
                            model=args.embedding_model or generator.model)
    return generator, embedder


def cmd_generate(args) -> int:
    config = load_config(args.config)
    report = validate_config(config)
    if not report.ok:
        raise ConfigError("invalid config: " + "; ".join(report.errors))
    for warning in report.warnings:
        log.warning("config warning: %s", warning)

    template = resolve_template(args.template) if args.template else None
    generator, embedder = _build_backends(args)
    try:
        store = CheckpointStore(args.out)
        if args.resume and not store.exists():
            raise ConfigError(f"no checkpoint to resume in {args.out}")
        if not args.resume and store.exists():
            raise ConfigError(
                f"{args.out} already holds a checkpoint; pass --resume to continue it")
        runner = TreeRunner(config, generator, embedder, store,
                            template=template, workers=args.workers)
        try:
            tree = runner.run()
        except KeyboardInterrupt:
            log.error("interrupted; checkpoint in %s is resumable", args.out)
            return EXIT_RESUMABLE
    finally:  # whether or not the run succeeded
        generator.close()
        embedder.close()
    _emit({
        "status": "complete",
        "out": str(args.out),
        "nodes_committed": tree.non_root_count(),
        "shortfalls": tree.shortfall_total,
        "dedup_drops": store.manifest["dedup_drops"],
        "leaf_count": len(tree.leaf_paths(permissive=True)),
        "config_hash": store.manifest["config_hash"],
    })
    return EXIT_OK


def _parse_policy(spec: str, seed: int) -> TurnPolicy:
    if spec == "full":
        return TurnPolicy.fixed()
    if spec == "gturn":
        return gaussian_turn_policy(sample_seed=seed)
    if spec.startswith("fixed:"):
        try:
            return TurnPolicy.fixed(int(spec.split(":", 1)[1]))
        except ValueError:
            raise _UsageError(f"bad --turn-policy value {spec!r}") from None
    raise _UsageError(f"bad --turn-policy value {spec!r} "
                      "(expected full, fixed:K, or gturn)")


def cmd_export(args) -> int:
    store = CheckpointStore(args.tree)
    tree = store.load(store.stored_config())  # load writes nothing and opens no file
    if args.format == "pt":
        if tree.config.mode is not Mode.PT:
            raise ConfigError("--format pt needs a PT-mode tree")
        out = export_pt(tree, args.out, permissive=args.permissive)
        with open(out, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        _emit({"out": str(out), "lines": lines})
        return EXIT_OK

    policy = _parse_policy(args.turn_policy, args.policy_seed)
    records = build_corpus(tree, policy, permissive=args.permissive)
    if args.target_size is not None:
        records = sample_to_size(records, args.target_size, args.sample_seed)
    if args.format == "sharegpt":
        out = export_sharegpt(records, args.out, inline_system=args.inline_system)
    else:
        out = export_jsonl(records, args.out, inline_system=args.inline_system)
    _emit({"out": str(out), "records": len(records)})
    return EXIT_OK


def cmd_stats(args) -> int:
    records = validate_sharegpt_file(args.corpus)
    stats = compute_stats(records)
    _emit(stats.to_dict())
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    report = validate_config(config)
    _emit(report.to_dict())
    return EXIT_OK if report.ok else EXIT_HARD


def build_parser() -> _Parser:
    parser = _Parser(prog="treegen",
                     description="Grow a dialogue tree against an LLM backend and "
                                 "export conversation corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="expand a tree per a config file")
    gen.add_argument("--config", required=True, help="TreeConfig JSON path")
    gen.add_argument("--out", required=True, help="checkpoint directory")
    gen.add_argument("--backend", choices=("http", "mock"), default="mock")
    gen.add_argument("--workers", type=int, default=8)
    gen.add_argument("--resume", action="store_true",
                     help="continue an interrupted run from its checkpoint")
    gen.add_argument("--template", default=None,
                     help="template id or JSON file; overrides the config's template_id")
    gen.add_argument("--model", default=None, help="model name for the HTTP backend")
    gen.add_argument("--embedding-model", default=None)
    gen.add_argument("--base-url", default=None,
                     help=f"HTTP API base URL (default: ${API_BASE_ENV})")
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("export", help="export corpora from a completed tree")
    exp.add_argument("--tree", required=True, help="checkpoint directory")
    exp.add_argument("--format", required=True, choices=("sharegpt", "jsonl", "pt"))
    exp.add_argument("--out", required=True, help="output file path")
    exp.add_argument("--turn-policy", default="full",
                     help="full | fixed:K | gturn (ignored for --format pt)")
    exp.add_argument("--policy-seed", type=int, default=0)
    exp.add_argument("--target-size", type=int, default=None,
                     help="downsample to this many records")
    exp.add_argument("--sample-seed", type=int, default=0)
    exp.add_argument("--inline-system", action="store_true",
                     help="prepend the system prompt to the first human turn")
    exp.add_argument("--permissive", action="store_true",
                     help="allow exporting from an incomplete tree")
    exp.set_defaults(func=cmd_export)

    st = sub.add_parser("stats", help="print corpus statistics as JSON")
    st.add_argument("--corpus", required=True, help="exported sharegpt/jsonl file")
    st.set_defaults(func=cmd_stats)

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResumableRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUMABLE
    except TreeGenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
