"""OpenAI-compatible stub server backed by the shipped mocks.

Serves ``POST /v1/completions`` from ``MockTextBackend`` and
``POST /v1/embeddings`` from ``MockEmbedder``, so a tree grown through it
equals the same tree grown in-process with the mocks. Each response is sent
at its arrival time plus a deterministic service time: 20 ms +/- 50% for a
completion, keyed like the mock's own latency by the forwarded seed and the
prompt, and 5 ms for an embedding. The stub computes first and then sleeps
until that deadline, so the host's CPU speed does not change the service
time while the computation fits inside it. Each response carries its service
time in ``X-Service-Time-Ms``.

Every response goes out in one write on a socket with ``TCP_NODELAY``. A
stub that wrote headers and body separately stalled on delayed ACKs: the
wide-http generate phase took 7.7 s instead of 3.7 s.

``GET /bench/reset`` and ``GET /bench/stats`` let the benchmark read when
the first backend call of a job arrived (``time.monotonic``, which is one
clock for every process on the host).

Run: ``python3 treebench/stub_server.py`` prints the port it listens on
(a free port on 127.0.0.1) and serves until it is terminated.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import (STUB_EMBED_LATENCY_MS, STUB_LATENCY_JITTER, STUB_LATENCY_MS,
                       use_checkout_src)

use_checkout_src()

from treegen.backends import (GenerationRequest, MockEmbedder,  # noqa: E402
                              MockTextBackend, _prompt_state)


def completion_service_s(seed: int, prompt: str) -> float:
    """STUB_LATENCY_MS spread by STUB_LATENCY_JITTER, keyed by seed and prompt."""
    unit = _prompt_state(seed, prompt) / 2**64  # [0, 1)
    return STUB_LATENCY_MS * (1.0 + STUB_LATENCY_JITTER * (2.0 * unit - 1.0)) / 1000.0


class StubState:
    def __init__(self):
        self.generator = MockTextBackend()
        self.embedder = MockEmbedder()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.first_arrival = None

    def arrived(self, when: float) -> None:
        with self.lock:
            if self.first_arrival is None:
                self.first_arrival = when


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True
    state: StubState

    def log_message(self, format, *args):
        pass

    def _reply(self, status: int, payload: dict | bytes, service_ms: float = 0.0) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Service-Time-Ms: {service_ms!r}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/bench/reset":
            self.state.reset()
            self._reply(200, {})
        elif self.path == "/bench/stats":
            self._reply(200, {"first_arrival": self.state.first_arrival})
        else:
            self._reply(404, {"error": self.path})

    def do_POST(self):
        arrival = time.monotonic()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.state.arrived(arrival)
        if self.path == "/v1/completions":
            request = GenerationRequest(
                prompt=body["prompt"], max_tokens=body["max_tokens"],
                temperature=body["temperature"], n_samples=body["n"],
                stop=tuple(body.get("stop", ())), request_seed=body["seed"])
            result = self.state.generator.generate(request)
            payload = {"choices": [{"index": i, "text": c.text, "finish_reason": c.finish_reason}
                                   for i, c in enumerate(result.completions)]}
            deadline = arrival + completion_service_s(request.request_seed, request.prompt)
        elif self.path == "/v1/embeddings":
            vectors = self.state.embedder.embed(body["input"])
            payload = {"data": [{"index": i, "embedding": list(v.values)}
                                for i, v in enumerate(vectors)]}
            deadline = arrival + STUB_EMBED_LATENCY_MS / 1000.0
        else:
            self._reply(404, {"error": self.path})
            return
        reply = json.dumps(payload).encode("utf-8")
        time.sleep(max(0.0, deadline - time.monotonic()))
        self._reply(200, reply, (time.monotonic() - arrival) * 1000.0)


def main() -> None:
    Handler.state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    sys.exit(main())
