"""The benchmark's jobs run on this source tree and give the recorded bytes.

``treebench/job.py`` imports the stand-in backends of ``treebench/standins.py``
and reads treegen's names directly; a change that breaks one of them would
only show as a failed benchmark run. This runs the job for each workload at
seed 0, as three parallel subprocesses, and checks each against the export
digest ``treebench/digests.json`` records. The wide-http job grows and exports
its tree through ``treegen generate`` and ``treegen export`` against the
benchmark's stub server, which runs as a fourth subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
IN_PROCESS = ("balance-shortfall", "select-d1024")
# stub and job talk over 127.0.0.1, never through a proxy from the environment
LOCAL_ENV = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")


def start(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(REPO / "treebench" / script), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=LOCAL_ENV)


def test_benchmark_jobs_complete_with_the_recorded_digests(tmp_path):
    digests = json.loads((REPO / "treebench" / "digests.json").read_text(encoding="utf-8"))
    stub = start("stub_server.py")
    jobs: dict[str, subprocess.Popen] = {}
    try:
        port = stub.stdout.readline().strip()
        assert port.isdigit(), f"stub server did not start: {stub.stderr.read()}"
        jobs = {workload: start("job.py", "--workload", workload, "--seed", "0",
                                "--out", str(tmp_path / workload))
                for workload in IN_PROCESS}
        jobs["wide-http"] = start("job.py", "--workload", "wide-http", "--seed", "0",
                                  "--out", str(tmp_path / "wide-http"),
                                  "--base-url", f"http://127.0.0.1:{port}/v1")
        for workload, job in jobs.items():
            out, err = job.communicate(timeout=120)
            assert job.returncode == 0, f"{workload}: {err}"
            result = json.loads(out.strip().splitlines()[-1])
            assert result["status"] == "complete", workload
            if workload in IN_PROCESS:
                assert result["generated_digest"] == result["loaded_digest"], workload
            assert result["export_sha"] == digests[workload]["0"], workload
    finally:  # a failed check leaves no process running and no pipe open
        for proc in (*jobs.values(), stub):
            proc.terminate()
            proc.communicate()


def test_the_stand_ins_keep_their_contract():
    # selfcheck's contract checks only: its stub checks and CPU-share checks
    # time what they run, so they depend on the machine
    code = (f"import json, sys; sys.path.insert(0, {str(REPO / 'treebench')!r})\n"
            "import selfcheck\n"
            "selfcheck.check_standins()\n"
            "print(json.dumps(selfcheck.failures))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *checks, failures = proc.stdout.splitlines()
    assert checks and all(line.startswith("PASS") for line in checks), proc.stdout
    assert json.loads(failures) == []
