"""The selection arithmetic, the JSON text treegen writes without the json
module and a run's bytes are the same under every Python the project
supports: ``crossver_check.py`` passes, with the same output, under this
interpreter and under each other Python >= 3.10 it can start.

The other interpreters are the paths that ``TREEGEN_CROSSVER_PYTHONS`` lists,
separated by ``os.pathsep``, else ``~/.pyenv/versions/*/bin/python``. One
that cannot start, or that is older than 3.10, is skipped, never passed.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHECK = Path(__file__).resolve().parent / "crossver_check.py"
PYTHONS_ENV = "TREEGEN_CROSSVER_PYTHONS"
VERSION_PROBE = "import sys; print('%d.%d' % sys.version_info[:2])"  # Python 2 parses it too


def other_pythons() -> list[str]:
    listed = os.environ.get(PYTHONS_ENV)
    paths = (listed.split(os.pathsep) if listed
             else sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin/python"))))
    here = os.path.realpath(sys.executable)
    return [path for path in paths if path and os.path.realpath(path) != here]


def run_check(python: str) -> str:
    proc = subprocess.run([python, str(CHECK)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"{python}: {proc.stdout}{proc.stderr}"
    return proc.stdout


@pytest.fixture(scope="module")
def output_here() -> str:
    return run_check(sys.executable)


def test_crossver_check_passes_under_this_interpreter(output_here):
    assert output_here.startswith("arithmetic sha256 ")


@pytest.mark.parametrize("python", other_pythons())
def test_crossver_check_gives_the_same_output_under(python, output_here):
    try:
        probe = subprocess.run([python, "-c", VERSION_PROBE], capture_output=True, text=True,
                               timeout=30)
    except OSError as exc:
        pytest.skip(f"{python} cannot start: {exc}")
    if probe.returncode != 0:
        pytest.skip(f"{python} cannot start: exit {probe.returncode}")
    version = probe.stdout.strip()
    if tuple(map(int, version.split("."))) < (3, 10):
        pytest.skip(f"{python} is Python {version}, older than 3.10")
    assert run_check(python) == output_here
