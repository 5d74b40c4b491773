"""Command-line entry point for reproducible tree runs and exports.

Exit codes are fixed for scripting: 0 success, 1 hard error, 2 resumable
abort (a backend failure, or SIGINT or SIGTERM during ``generate``), 64
usage error. stdout carries only machine-readable JSON; human diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
from pathlib import Path
from typing import Callable

from .backends import API_BASE_ENV, HttpBackend, MockEmbedder, MockTextBackend
from .corpus import (TurnPolicy, build_corpus, compute_stats, export_jsonl, export_pt,
                     export_sharegpt, gaussian_turn_policy, sample_to_size,
                     validate_sharegpt_file)
from .errors import ConfigError, ResumableRunError, TreeGenError
from .scheduler import CheckpointStore, TreeRunner
from .tree import Tree, load_config, utf8_can_hold, validate_config

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
    backend = HttpBackend(base_url=args.base_url, model=args.model,
                          embedding_model=args.embedding_model)
    return backend, backend


def cmd_generate(args) -> int:
    """A flag that the chosen backend does not read is a usage error, not ignored."""
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1 (got {args.workers})")
    # the flags only the HTTP backend reads; each defaults to None
    given = {f"--{dest.replace('_', '-')}": getattr(args, dest)
             for dest in ("model", "embedding_model", "base_url")
             if getattr(args, dest) is not None}
    if args.backend == "mock" and given:
        raise _UsageError(f"{', '.join(given)}: for --backend http only, not for --backend mock")
    config = load_config(args.config)
    generator, embedder = _build_backends(args)
    try:
        store = CheckpointStore(args.out)
        if args.resume and not store.exists():
            raise ConfigError(f"no checkpoint to resume in {args.out}")
        if not args.resume and store.exists():
            raise ConfigError(
                f"{args.out} already holds a checkpoint; pass --resume to continue it")
        runner = TreeRunner(config, generator, embedder, store, workers=args.workers)
        # SIGTERM, what a supervisor sends, stops the run as Ctrl-C does
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            runner.run()
        except KeyboardInterrupt:
            log.error("interrupted; checkpoint in %s is resumable", args.out)
            return EXIT_RESUMABLE
        finally:
            signal.signal(signal.SIGTERM, previous)
    finally:  # whether or not the run succeeded
        for backend in {generator, embedder}:  # the HTTP backend is both
            backend.close()
    _emit({**store.manifest, "out": str(args.out)})
    return EXIT_OK


def _parse_policy(spec: str, seed: int) -> Callable[[Tree], TurnPolicy | None]:
    """The policy ``spec`` names, given the tree; a bad spec is a usage error."""
    if spec == "full":
        return lambda tree: None  # every leaf path
    if spec == "gturn":
        # the paper's 1-4 turns, cut to those the tree exports and renormalized
        # (build_corpus refuses an incomplete tree exported without --permissive)
        return lambda tree: gaussian_turn_policy(sample_seed=seed, turn_counts=range(
            1, max(1, min(4, tree.export_depth(permissive=True) // 2)) + 1))
    if spec.startswith("fixed:"):
        try:
            turns = int(spec.split(":", 1)[1])
        except ValueError:
            turns = 0
        if turns >= 1:
            return lambda tree: TurnPolicy.fixed(turns)
    raise _UsageError(f"bad --turn-policy value {spec!r} "
                      "(expected full, fixed:K with K >= 1, or gturn)")


# the export flags that shape a conversation corpus, by argparse dest; each
# defaults to None (False for --inline-system), so a given flag can be told
_CONVERSATION_FLAGS = {"turn_policy": "--turn-policy", "policy_seed": "--policy-seed",
                       "target_size": "--target-size", "sample_seed": "--sample-seed",
                       "inline_system": "--inline-system"}


def cmd_export(args) -> int:
    """A flag that cannot change the output is a usage error, not ignored, and
    so is an ``--out`` that is one of the checkpoint's own files."""
    if args.format == "pt":
        given = [flag for dest, flag in _CONVERSATION_FLAGS.items()
                 if getattr(args, dest) not in (None, False)]
        if given:
            raise _UsageError(f"{', '.join(given)}: for sharegpt and jsonl exports only, "
                              "not for --format pt")
    spec = "full" if args.turn_policy is None else args.turn_policy
    if args.policy_seed is not None and spec != "gturn":
        raise _UsageError(f"--policy-seed applies to --turn-policy gturn only, not {spec}")
    if args.sample_seed is not None and args.target_size is None:
        raise _UsageError("--sample-seed applies only with --target-size")
    if args.target_size is not None and args.target_size < 0:
        raise _UsageError(f"--target-size must be >= 0 (got {args.target_size})")
    policy = _parse_policy(spec, args.policy_seed or 0)
    store, target = CheckpointStore(args.tree), Path(args.out)
    for path in (store.config_path, store.nodes_path, store.manifest_path):
        # the file by any name: a path that resolves to it, or a hard link
        if target.resolve() == path.resolve() or (
                target.exists() and path.exists() and target.samefile(path)):
            raise _UsageError(f"--out {args.out} would overwrite the checkpoint's {path}")
    tree = store.load()  # load writes nothing and opens no file
    if args.format == "pt":
        out = export_pt(tree, args.out, permissive=args.permissive)
        depth = tree.export_depth(args.permissive)  # one line per leaf path, none at depth 0
        _emit({"out": str(out), "lines": len(tree.layer_ids(depth)) if depth else 0})
        return EXIT_OK

    records = build_corpus(tree, policy(tree), permissive=args.permissive)
    if args.target_size is not None:
        records = sample_to_size(records, args.target_size, args.sample_seed or 0)
    if args.format == "sharegpt":
        out = export_sharegpt(records, args.out, inline_system=args.inline_system)
    else:
        out = export_jsonl(records, args.out, inline_system=args.inline_system)
    _emit({"out": str(out), "records": len(records)})
    return EXIT_OK


def cmd_stats(args) -> int:
    _emit(compute_stats(validate_sharegpt_file(args.corpus)))
    return EXIT_OK


def cmd_validate(args) -> int:
    report = validate_config(load_config(args.config))
    _emit(report)
    return EXIT_HARD if report["errors"] else EXIT_OK


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
    gen.add_argument("--model", default=None, help="model name for the HTTP backend")
    gen.add_argument("--embedding-model", default=None, help="embedding model (default: --model)")
    gen.add_argument("--base-url", default=None,
                     help=f"HTTP API base URL (default: ${API_BASE_ENV})")
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("export", help="export corpora from a completed tree")
    exp.add_argument("--tree", required=True, help="checkpoint directory")
    exp.add_argument("--format", required=True, choices=("sharegpt", "jsonl", "pt"))
    exp.add_argument("--out", required=True, help="output file path")
    exp.add_argument("--turn-policy", default=None,
                     help="full | fixed:K | gturn (default: full; not for --format pt)")
    exp.add_argument("--policy-seed", type=int, default=None,
                     help="seed of the gturn draw (default: 0; only with "
                          "--turn-policy gturn)")
    exp.add_argument("--target-size", type=int, default=None,
                     help="downsample to this many records (not for --format pt)")
    exp.add_argument("--sample-seed", type=int, default=None,
                     help="seed of the downsampling (default: 0; only with --target-size)")
    exp.add_argument("--inline-system", action="store_true",
                     help="prepend the system prompt to the first human turn "
                          "(not for --format pt)")
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
    try:
        args = build_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if not isinstance(value, str):
                continue
            flag = f"--{dest.replace('_', '-')}"
            if not utf8_can_hold(value):  # argv bytes that are not UTF-8 decode to lone surrogates
                raise _UsageError(f"{flag} {value!r} is not text UTF-8 can hold")
            if "\0" in value:  # no file name holds one
                raise _UsageError(f"{flag} {value!r} holds a NUL character")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResumableRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUMABLE
    except (TreeGenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
