"""The benchmark's in-process jobs run on this source tree and give the
recorded bytes.

``treebench/job.py`` imports the stand-in backends of ``treebench/standins.py``
and reads treegen's names directly; a change that breaks one of them would
only show as a failed benchmark run. This runs the job for the two in-process
workloads at seed 0, as two parallel subprocesses, and checks each against
the export digest ``treebench/digests.json`` records.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("balance-shortfall", "select-d1024")


def test_in_process_jobs_complete_with_the_recorded_digests(tmp_path):
    digests = json.loads((REPO / "treebench" / "digests.json").read_text(encoding="utf-8"))
    jobs = {workload: subprocess.Popen(
                [sys.executable, str(REPO / "treebench" / "job.py"), "--workload", workload,
                 "--seed", "0", "--out", str(tmp_path / workload)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for workload in WORKLOADS}
    try:
        for workload, job in jobs.items():
            out, err = job.communicate(timeout=120)
            assert job.returncode == 0, f"{workload}: {err}"
            result = json.loads(out.strip().splitlines()[-1])
            assert result["status"] == "complete", workload
            assert result["generated_digest"] == result["loaded_digest"], workload
            assert result["export_sha"] == digests[workload]["0"], workload
    finally:  # a failed check leaves no job running
        for job in jobs.values():
            job.kill()
            job.communicate()
