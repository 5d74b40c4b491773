"""treegen benchmark harness.

    python3 treebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs closed-loop batch jobs, one tree per job, one job at a time, each in a
fresh process (``job.py``) with ``--workers 2``, until ``--seconds`` of jobs
have run. Every job grows the tree for ``--seed`` and must pass the correctness gate; each metric is the median over the jobs.
With ``--trace 1`` it instead runs one untraced job, one traced job and one
job at ``--workers 1``, and reports per-layer metrics from the traced job.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Work files go to ``.bench_work/`` in the checkout and are removed at exit.
See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import tracing
from workloads import BENCH_DIR, ROOT, SRC, WORKERS, WORKLOADS

WORK_ROOT = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"
MIN_JOBS = 3
PROBE_REPEATS = 5
# the probe's time on a fast CPU of the machine the README's numbers come from
PROBE_REFERENCE_S = 0.003
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "nodes_per_s": "1/s", "records_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# stub and job talk over 127.0.0.1; never through a proxy from the environment
_NO_PROXY = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def job_env() -> dict:
    env = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    env.pop("PYTHONPATH", None)  # job.py puts this checkout's src first itself
    return env


def run_job(job_args: list[str]) -> tuple[float, dict]:
    """Spawn one job; returns (spawn time, its JSON result or an error)."""
    spawn_t = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "job.py"), *job_args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=job_env(), text=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return spawn_t, {"error": f"job timed out after {JOB_TIMEOUT_S} s"}
    except BaseException:  # interrupted or terminated: leave no job behind
        proc.kill()
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"job exited {proc.returncode} without a result"}
    if "error" in result:
        sys.stderr.write(err[-4000:])
    return spawn_t, result


class CpuChooser:
    """Pins this process, and so the next job it spawns, to the CPU that runs
    a probe fastest at that moment, and times the probe.

    Each CPU of this host slows by up to a half in spells of seconds to
    minutes, independently of the other, and a CPU-bound job slows with it.
    A spell often outlasts a job, so the CPU that is fast when a job starts
    is usually fast for most of it. One CPU per job, because a job's threads
    that hand the GIL back and forth across two CPUs wait for the other CPU
    to wake: identical balance-shortfall jobs then took 1.1 to 1.9 s of wall
    time for 1.1 to 1.35 s of CPU time.

    The probe is a JSON round trip of 400 records (130 kB), about 3 ms: it
    allocates and parses like treegen's store and exporters do. A pure
    arithmetic loop tracked the spells' effect on the jobs less well.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._payload = json.dumps([{"id": i, "text": "quick silver fox " * 12,
                                     "values": [i * 0.37] * 12} for i in range(400)])

    def probe_once(self) -> float:
        start = time.perf_counter()
        json.dumps(json.loads(self._payload))
        return time.perf_counter() - start

    def probe_s(self) -> float:
        """Best of PROBE_REPEATS probe times on the current CPU."""
        return min(self.probe_once() for _ in range(PROBE_REPEATS))

    def pin_fastest(self) -> set[int]:
        """Pins to the fastest CPU; returns the others."""
        probes = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            probes.append((self.probe_s(), cpu))
        fastest = min(probes)[1]
        os.sched_setaffinity(0, {fastest})
        return set(self.cpus) - {fastest}


class Stub:
    """The HTTP stub server, in a child process on a free localhost port."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "stub_server.py")],
                                     stdout=subprocess.PIPE, cwd=ROOT, env=job_env(),
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub server did not start")
        self.origin = f"http://127.0.0.1:{int(line)}"
        self.base_url = self.origin + "/v1"

    def pin(self, cpus: set[int]) -> None:
        """Moves the stub's main thread, and so the connection threads it
        starts next, to ``cpus``."""
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)

    def get(self, path: str) -> dict:
        with _NO_PROXY.open(self.origin + path, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.cpus = CpuChooser()
        self.seed = seed
        self.work = work
        self.jobs = 0
        self.stub: Stub | None = None
        # what every job must reproduce: set by the reference (wide-http) or
        # by the first job
        self.reference: dict = {}
        self.validated = ""
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.recorded_export = recorded.get(workload, {}).get(str(seed))
        if self.recorded_export is None:
            print(f"note: no export digest recorded for {workload} seed {seed}; "
                  "that check is skipped", file=sys.stderr)

    # -- set-up (untimed) ------------------------------------------------------

    def set_up(self) -> None:
        # compile every module once, so no job pays for it
        subprocess.run([sys.executable, str(BENCH_DIR / "job.py"), "--help"], cwd=ROOT,
                       env=job_env(), stdout=subprocess.DEVNULL, check=True)
        if self.workload == "wide-http":
            self.stub = Stub()
            # the same tree grown in-process with the shipped mocks
            self.reference = run_job(self.common_args(self.work / "reference", WORKERS)
                                     + ["--shipped-mocks"])[1]
            problems = self.check(self.reference, reference=False)
            if problems:
                raise RuntimeError(f"reference tree failed its checks: {problems}")

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    # -- jobs --------------------------------------------------------------------

    def common_args(self, out: Path, workers: int) -> list[str]:
        return ["--workload", self.workload, "--seed", str(self.seed), "--out", str(out),
                "--workers", str(workers), "--validated", self.validated]

    def job(self, workers: int = WORKERS, trace: bool = False) -> tuple[dict, list[str]]:
        self.jobs += 1
        out = self.work / f"job{self.jobs}"
        args = self.common_args(out, workers)
        if trace:
            args.append("--trace")
        others = self.cpus.pin_fastest()
        if self.stub is not None:
            self.stub.pin(others)
            self.stub.get("/bench/reset")
            args += ["--base-url", self.stub.base_url]
        # timed again: the probe that won the choice reads fast by selection
        before = self.cpus.probe_s()
        spawn_t, result = run_job(args)
        result["slowdown"] = (before + self.cpus.probe_s()) / (2 * PROBE_REFERENCE_S)
        if self.stub is not None and "error" not in result:
            result["first_call"] = self.stub.get("/bench/stats")["first_arrival"]
        result["spawn_t"] = spawn_t
        result["wall"] = time.monotonic() - spawn_t
        problems = self.check(result)
        if trace and not problems:
            result["spans"] = [json.loads(line) for line in
                               (out / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
        shutil.rmtree(out, ignore_errors=True)
        return result, problems

    def check(self, r: dict, reference: bool = True) -> list[str]:
        """The correctness gate; returns what failed."""
        if "error" in r:
            return [r["error"]]
        problems = []
        if r["status"] != "complete":
            problems.append(f"manifest status {r['status']!r}")
        if r.get("standin_pending"):
            problems.append(f"{r['standin_pending']} stand-in vectors were never handed out")
        expected_tree = r["generated_digest"] or self.reference.get("loaded_digest")
        if r["loaded_digest"] != expected_tree:
            problems.append("reloaded tree differs from the generated tree")
        if r["valid"] is None and r["export_sha"] != self.validated:
            problems.append("export was not validated")
        if self.recorded_export is not None and r["export_sha"] != self.recorded_export:
            problems.append("export digest differs from the recorded digest")
        if reference:
            if not self.reference:
                self.reference = r
            for key in ("nodes_sha", "export_sha"):
                if r[key] != self.reference[key]:
                    problems.append(f"{key} differs from the reference run")
        if not problems:
            self.validated = r["export_sha"]
        return problems


def generate_wall(r: dict) -> float:
    return r["gen_end"] - r["first_call"]


def job_metrics(r: dict, workload: str) -> dict:
    """The job's end-to-end metrics, CPU-bound ones at the reference CPU speed.

    Each time of a CPU-bound phase is divided by the job's slowdown: the mean
    of the probe's time on the job's CPU just before and just after the job,
    over PROBE_REFERENCE_S. The probe's speed follows the host's spells
    (see CpuChooser), so this removes most of their effect, and it does not
    depend on treegen, so it scales two commits alike. The wide-http generate
    phase waits on the stub's fixed service times and is not scaled.
    """
    slowdown = r["slowdown"]
    nodes_per_s = r["nodes"] / generate_wall(r)
    if workload != "wide-http":
        nodes_per_s *= slowdown
    return {
        "setup_s": (r["first_call"] - r["spawn_t"]) / slowdown,
        "nodes_per_s": nodes_per_s,
        "records_per_s": r["records"] / min(r["export_s"]) * slowdown,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def timed_wall(r: dict, workload: str) -> float:
    """Wall time of the job's timed phases, first export repetition only,
    scaled as in ``job_metrics``."""
    generate = generate_wall(r) if workload == "wide-http" else generate_wall(r) / r["slowdown"]
    return r["export_s"][0] / r["slowdown"] + generate


def measure(bench: Bench, seconds: float) -> tuple[int, int, dict]:
    start = time.monotonic()
    per_job: list[dict] = []
    failed = attempted = 0
    while True:
        attempted += 1
        result, problems = bench.job()
        if problems:
            failed += 1
            print(f"job {attempted} failed: {problems}", file=sys.stderr)
        else:
            per_job.append(job_metrics(result, bench.workload))
        elapsed = time.monotonic() - start
        if attempted >= MIN_JOBS and elapsed + result["wall"] > seconds:
            break
    metrics = {name: {"value": statistics.median(m[name] for m in per_job) if per_job else 0.0,
                      "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    print(f"{bench.workload} seed {bench.seed}: {attempted} jobs in "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return attempted, failed, metrics


def measure_traced(bench: Bench) -> tuple[int, int, dict]:
    """One untraced job, one traced job, and the workers=1 determinism check."""
    plain, plain_problems = bench.job()
    traced, traced_problems = bench.job(trace=True)
    single_problems = bench.job(workers=1)[1]
    problems = [p for p in (plain_problems, traced_problems, single_problems) if p]
    for p in problems:
        print(f"traced run check failed: {p}", file=sys.stderr)
    if plain_problems or traced_problems:
        return 3, len(problems), {}

    phase_wall = generate_wall(traced)
    metrics = tracing.summarize(traced["spans"], WORKERS, phase_wall)
    metrics.update({
        "store.nodes_bytes": traced["nodes_bytes"],
        "tree.nodes": traced["nodes"],
        "tree.leaves": traced["leaves"],
        "tree.expected_leaves": traced["expected_leaves"],
        "tree.embedding_floats": traced.get("embedding_floats", 0),
        "job.cpu_s": traced["cpu_s"],
        "trace.overhead_s": (timed_wall(traced, bench.workload)
                             - timed_wall(plain, bench.workload)),
    })
    print("shares: " + json.dumps(tracing.shares(traced["spans"], metrics, traced, WORKERS, phase_wall)),
          file=sys.stderr)
    return 3, len(problems), {name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
                              for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="treegen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treegen" / "__init__.py").is_file():
        print(f"error: no treegen sources under {SRC}", file=sys.stderr)
        return 1
    # a terminated harness still stops its stub and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    bench = Bench(args.workload, args.seed, work)
    try:
        bench.set_up()
        if args.trace:
            attempted, failed, metrics = measure_traced(bench)
        else:
            attempted, failed, metrics = measure(bench, args.seconds)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
