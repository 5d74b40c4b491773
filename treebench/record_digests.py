"""Record the export digests that every benchmark job is checked against.

    python3 treebench/record_digests.py --seeds 0-49

For each workload and seed this grows the tree once (untimed, ``job.py``),
exports it as ``run.py`` does, validates the exports and stores
``sha256(ShareGPT full):sha256(JSONL fixed:1)`` in ``digests.json``. The
wide-http entry comes from the shipped mocks in-process: the tree grown
through the HTTP stub must export the same bytes.

Only exports are recorded. A declared checkpoint format change may alter
``nodes.jsonl``; it must not alter an export. Re-record only for a change
that alters exports on purpose, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import DIGESTS, WORK_ROOT, run_job
from workloads import WORKERS, WORKLOADS


def record(workload: str, seed: int, work: Path) -> str:
    args = ["--workload", workload, "--seed", str(seed), "--workers", str(WORKERS),
            "--out", str(work / f"{workload}-{seed}")]
    if workload == "wide-http":
        args.append("--shipped-mocks")
    try:
        result = run_job(args)[1]
    finally:
        shutil.rmtree(work / f"{workload}-{seed}", ignore_errors=True)
    if "error" in result or result["status"] != "complete" or not result["valid"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return result["export_sha"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args()
    low, high = (int(x) for x in args.seeds.split("-"))
    tasks = [(w, s) for w in WORKLOADS for s in range(low, high + 1)]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:  # two job processes at a time
            shas = list(pool.map(lambda task: record(*task, work), tasks))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for (workload, seed), sha in zip(tasks, shas):
        digests.setdefault(workload, {})[str(seed)] = sha
    digests = {w: dict(sorted(digests[w].items(), key=lambda kv: int(kv[0])))
               for w in sorted(digests)}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(tasks)} digests in {DIGESTS}")


if __name__ == "__main__":
    main()
