"""The benchmark's own tests.

    python3 treebench/selfcheck.py

Checks that the stand-ins keep their contract (deterministic, MockEmbedder's
results at d=16, unit vectors at d=1024) and that the stub answers like the
in-process mocks without delayed-ACK stalls. Then runs the traced benchmark
on the CPU workloads (seed 1) and checks each predicted dominant layer: the
stand-ins under a tenth of ``job.cpu_s`` on both, and ``dedup.*`` over half
of it on select-d1024. Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import http.client
import json
import math
import subprocess
import sys
import time

from workloads import BENCH_DIR, ROOT, use_checkout_src

use_checkout_src()

from standins import (BagOfWordsEmbedder, SignVectorEmbedder,  # noqa: E402
                      StandinTextBackend, WordCorpus)
from treegen.backends import (MOCK_VOCAB, GenerationRequest,  # noqa: E402
                              MockEmbedder, MockTextBackend)

import run  # noqa: E402
import stub_server  # noqa: E402

failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(name)


def check_standins() -> None:
    corpus = WordCorpus()
    embedder = BagOfWordsEmbedder(corpus, (64, 256))
    generator = StandinTextBackend(corpus, embedder)
    request = GenerationRequest(prompt="[INST] a prompt", max_tokens=256, temperature=0.7,
                                n_samples=8, stop=(), request_seed=42)
    texts = [c.text for c in generator.generate(request).completions]
    # a long prompt (hashed in pieces) and many windows of a second length
    many = [c.text for seed in range(64) for c in generator.generate(GenerationRequest(
        prompt="[INST] " + texts[0] * 2, max_tokens=64, temperature=1.0, n_samples=16,
        stop=(), request_seed=seed)).completions]
    again = [c.text for c in StandinTextBackend(corpus).generate(request).completions]
    check("generator is keyed by seed, prompt and sample index",
          texts == again and len(set(texts)) == len(texts))
    vocab = set(MOCK_VOCAB)
    check("texts are max_tokens words from MOCK_VOCAB",
          all(len(t.split()) == 256 and set(t.split()) <= vocab for t in texts))
    mock = MockEmbedder()
    check("bag-of-words stand-in equals MockEmbedder (handed-over texts)",
          embedder.embed(texts) == mock.embed(texts)
          and embedder.embed(many) == mock.embed(many))
    others = ["", "You are a helpful assistant.", texts[0]]
    check("bag-of-words stand-in equals MockEmbedder (other texts)",
          embedder.embed(others) == mock.embed(others) and embedder.pending() == 0)
    signs = SignVectorEmbedder()
    a, b = signs.embed([texts[0], texts[1]])
    check("sign vectors are unit, keyed by text and near-orthogonal",
          abs(math.fsum(x * x for x in a.values) - 1.0) < 1e-12
          and signs.embed([texts[0]])[0] == a
          and abs(sum(x * y for x, y in zip(a.values, b.values))) < 0.2)


def check_stub() -> None:
    stub = run.Stub()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", int(stub.origin.rsplit(":", 1)[1]))
        payload = {"model": "stub", "prompt": "p", "max_tokens": 8, "temperature": 1.0,
                   "n": 2, "seed": 7}
        started = time.monotonic()
        for _ in range(20):  # keep-alive; a delayed-ACK stall costs ~40 ms each
            conn.request("POST", "/v1/embeddings", json.dumps({"input": ["a b", "c"]}),
                         {"Content-Type": "application/json"})
            conn.getresponse().read()
        per_request_ms = (time.monotonic() - started) * 50.0
        conn.request("POST", "/v1/completions", json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        expected = MockTextBackend().generate(GenerationRequest(
            prompt="p", max_tokens=8, temperature=1.0, n_samples=2, stop=(), request_seed=7))
        check("stub completions equal the in-process mock",
              [c["text"] for c in body["choices"]] == [c.text for c in expected.completions])
        service = float(response.getheader("X-Service-Time-Ms", "nan"))
        expected = stub_server.completion_service_s(7, "p") * 1000.0
        check("stub holds each completion for its deterministic service time",
              expected <= service < expected + 5.0,
              f"{service:.1f} ms for {expected:.1f} ms")
        check("stub keep-alive requests do not stall", per_request_ms < 15.0,
              f"{per_request_ms:.1f} ms per request")
    finally:
        stub.close()


def traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(f"{workload}: traced run passes the correctness gate", result["correct"])
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_shares() -> None:
    for workload in ("balance-shortfall", "select-d1024"):
        m = traced(workload)
        if not m:
            continue
        backends = (m["backends.generate.cpu_s"] + m["backends.embed.cpu_s"]) / m["job.cpu_s"]
        check(f"{workload}: stand-ins under a tenth of job.cpu_s", backends < 0.1,
              f"{backends:.3f}")
        if workload == "select-d1024":
            dedup = (m["dedup.mmr.cpu_s"] + m["dedup.dupfilter.cpu_s"]) / m["job.cpu_s"]
            check("select-d1024: dedup over half of job.cpu_s", dedup > 0.5, f"{dedup:.3f}")


def main() -> int:
    check_standins()
    check_stub()
    check_shares()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
