"""Check that the tests catch known defects: each mutant must fail its tests.

    python tests/mutants.py [NAME ...]

Needs only the standard library; pytest does not collect it. For each mutant
(all of them, or those named) it copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the mutant's edits to
that copy, never to this checkout, and runs ``python -m pytest -x -q`` on the
tests named for it there. It prints one line per mutant: ``killed`` when a
test fails, ``survived`` when they all pass. A control run first checks that
the unmutated copy passes every named test. Exits 1 if a mutant survived, an
edit no longer matches the source, or the control fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
DEDUP = "src/treegen/dedup.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    edits: tuple[tuple[str, str, int], ...]  # (old, new, occurrences of old)
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("sum() in _dots", DEDUP,
           (("    dots: list[float] = []\n",
             "    return [sum(x * y for x, y in zip(a, row)) for row in rows]\n"
             "    dots: list[float] = []\n", 1),),
           # sum() of floats is compensated from Python 3.12 on only
           ("tests/test_crossver.py",)),
    Mutant("> for >= at the cutoff", DEDUP,
           (("sim >= threshold", "sim > threshold", 3),),
           ("tests/test_dedup.py::test_selection_equals_per_pair_reference_bitwise[duplicate]",)),
    Mutant("first-pick ties broken high", DEDUP,
           (("first = max(range(len(relevance))", "first = max(reversed(range(len(relevance)))",
             1),),
           ("tests/test_dedup.py::test_k1_returns_argmax_relevance",)),
    Mutant("backfill walked in ascending score", DEDUP,
           (("walk.append((-selection.pool_score(i), i))",
             "walk.append((selection.pool_score(i), i))", 1),
            ("(-selection.pool_score(i), i) < stop", "(selection.pool_score(i), i) < stop", 1)),
           ("tests/test_dedup.py::test_filter_backfill_respects_score_order",)),
    Mutant("set-aside reads i in unblocked", DEDUP,
           (("if i not in unblocked or", "if i in unblocked or", 1),),
           ("tests/test_dedup.py::test_hand_example_filter_backfills",)),
    Mutant("early stop deleted", DEDUP,
           (("        if not unblocked:", "        if False:", 1),),
           ("tests/test_dedup.py::test_selection_equals_per_pair_reference_bitwise",)),
)


def copy_checkout(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def apply(mutant: Mutant, copy: Path) -> None:
    """Applies ``mutant``'s edits to ``copy``; ``SystemExit`` if one no longer matches."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    for old, new, count in mutant.edits:
        if text.count(old) != count:
            sys.exit(f"{mutant.name}: {old!r} occurs {text.count(old)} times in "
                     f"{mutant.path}, not {count}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, capture_output=True, timeout=600).returncode


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    if len(mutants) < len(set(names)):
        sys.exit(f"unknown mutant; the mutants are: {', '.join(m.name for m in MUTANTS)}")
    failed = False
    with tempfile.TemporaryDirectory(prefix="treegen-mutants-") as work:
        control = Path(work) / "control"
        copy_checkout(control)
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if run_tests(control, tests) != 0:
            print("control: the unmutated copy fails the named tests")
            return 1
        for n, mutant in enumerate(mutants):
            copy = Path(work) / f"mutant-{n}"
            copy_checkout(copy)
            apply(mutant, copy)
            start = time.monotonic()
            code = run_tests(copy, mutant.tests)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failed |= code != 1
            print(f"{verdict:<10} {mutant.name} ({time.monotonic() - start:.1f} s): "
                  f"{' '.join(mutant.tests)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
