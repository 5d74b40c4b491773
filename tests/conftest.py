"""Shared helpers: config builders and instrumented mock backends."""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple, Sequence, Union

import pytest

from treegen.backends import (MOCK_VOCAB, Completion, EmbeddingVector, GenerationRequest,
                              GenerationResult, MockEmbedder, MockTextBackend, _prompt_state)
from treegen.errors import BackendError
from treegen.tree import (ANSWER_TEMPERATURE, QUESTION_TEMPERATURE, LayerSpec, Mode,
                          Role, Tree, TreeConfig, TreeNode, child_id, config_to_dict,
                          role_for_layer)

import reference


def sft_config(branching: Sequence[int], q_tokens: int = 8, a_tokens: int = 12,
               a_step: int = 4, seed: int = 7, dedup_threshold: float = 0.95,
               oversample: float = 2.0, mmr_lambda: float = 0.5,
               template_id: str = "plain", system_prompt: str = "You are a helpful assistant.",
               stop_markers: Sequence[str] = ()) -> TreeConfig:
    """SFT config with constant question budgets and increasing answer budgets."""
    layers = []
    answer_rank = 0
    for i, n in enumerate(branching, start=1):
        role = role_for_layer(Mode.SFT, i)
        if role is Role.QUESTION:
            tokens, temp = q_tokens, QUESTION_TEMPERATURE
        else:
            tokens, temp = a_tokens + a_step * answer_rank, ANSWER_TEMPERATURE
            answer_rank += 1
        layers.append(LayerSpec(branching=n, max_tokens=tokens, role=role,
                                temperature=temp, stop_markers=tuple(stop_markers)))
    return TreeConfig(mode=Mode.SFT, system_prompt=system_prompt, layers=tuple(layers),
                      oversample_factor=oversample, mmr_lambda=mmr_lambda,
                      dedup_threshold=dedup_threshold, seed=seed,
                      template_id=template_id)


def pt_config(branching: Sequence[int], max_tokens: int = 10, seed: int = 3,
              system_prompt: str = "Here are some useful world knowledge:",
              dedup_threshold: float = 0.95) -> TreeConfig:
    layers = tuple(
        LayerSpec(branching=n, max_tokens=max_tokens, role=Role.CONTINUATION,
                  temperature=QUESTION_TEMPERATURE)
        for n in branching
    )
    return TreeConfig(mode=Mode.PT, system_prompt=system_prompt, layers=layers,
                      dedup_threshold=dedup_threshold, seed=seed, template_id="plain")


# config JSON values that config_from_dict must reject with a ConfigError:
# case -> (layer index, or None for the top level; key; value; text the error names)
BAD_CONFIG_VALUES = {
    "layer-not-object": (None, "layers", [5, 6], "layer 1"),
    "seed-not-number": (None, "seed", "x", "'seed'"),
    "oversample-not-number": (None, "oversample_factor", "x", "'oversample_factor'"),
    "mmr-lambda-null": (None, "mmr_lambda", None, "'mmr_lambda'"),
    "dedup-threshold-list": (None, "dedup_threshold", [0.9], "'dedup_threshold'"),
    "temperature-not-number": (1, "temperature", "hot", "layer 2: 'temperature'"),
    "branching-infinite": (0, "branching", float("inf"), "layer 1: 'branching'"),
    "stop-markers-not-list": (0, "stop_markers", 5, "layer 1: 'stop_markers'"),
    "branching-fraction": (0, "branching", 2.7, "layer 1: 'branching'"),
    "branching-boolean": (1, "branching", True, "layer 2: 'branching'"),
    "max-tokens-string": (0, "max_tokens", "4", "layer 1: 'max_tokens'"),
    "seed-fraction": (None, "seed", 1.9, "'seed'"),
    "mmr-lambda-boolean": (None, "mmr_lambda", True, "'mmr_lambda'"),
    "temperature-string": (0, "temperature", "0.7", "layer 1: 'temperature'"),
    "oversample-nan": (None, "oversample_factor", float("nan"), "'oversample_factor'"),
    "dedup-threshold-infinite": (None, "dedup_threshold", float("inf"), "'dedup_threshold'"),
    "temperature-huge-integer": (1, "temperature", 10**400, "layer 2: 'temperature'"),
    "system-prompt-null": (None, "system_prompt", None, "'system_prompt'"),
    "template-id-number": (None, "template_id", 3, "'template_id'"),
    "stop-marker-null": (1, "stop_markers", [None, "</s>"], "layer 2: 'stop_markers' item 0"),
    "stop-marker-number": (0, "stop_markers", ["</s>", 3], "layer 1: 'stop_markers' item 1"),
    # JSON spells a lone surrogate, which UTF-8 cannot hold
    "system-prompt-lone-surrogate": (None, "system_prompt", "bad \ud800", "'system_prompt'"),
    "template-id-lone-surrogate": (None, "template_id", "plain\udfff", "'template_id'"),
    "stop-marker-lone-surrogate": (1, "stop_markers", ["</s>", "\ud83d"],
                                   "layer 2: 'stop_markers' item 1"),
}


def bad_config_dict(case: str) -> tuple[dict, str]:
    """A [2, 2] SFT config dict holding ``case``'s bad value, and the text
    its ConfigError must name."""
    layer, key, value, names = BAD_CONFIG_VALUES[case]
    raw = config_to_dict(sft_config([2, 2]))
    (raw if layer is None else raw["layers"][layer])[key] = value
    return raw, names


def reference_cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Selection's cosine of two embedding vectors, bit for bit: ``reference.cosine``."""
    return reference.cosine(a.values, b.values)


class OptionMock(MockTextBackend):
    """The mock with the options tests set: the first ``vocab_size`` words of
    MOCK_VOCAB, one ``fixed_text`` for every completion (degenerate duplicate
    pools), and a sleep of ``latency_ms`` per call, spread by
    ``latency_jitter`` over [mean*(1-j), mean*(1+j)] and keyed by the
    request."""

    def __init__(self, vocab_size: int | None = None, latency_ms: float = 0.0,
                 latency_jitter: float = 0.0, fixed_text: str | None = None):
        if vocab_size is not None:
            self.vocab = MOCK_VOCAB[:vocab_size]
        self.latency_ms = latency_ms
        self.latency_jitter = latency_jitter
        self.fixed_text = fixed_text

    def generate(self, request):
        if self.latency_ms > 0:
            unit = _prompt_state(request.request_seed, request.prompt) / 2**64  # [0, 1)
            delay = self.latency_ms * (1.0 + self.latency_jitter * (2.0 * unit - 1.0))
            time.sleep(delay / 1000.0)
        result = super().generate(request)
        if self.fixed_text is None:
            return result
        return GenerationResult(
            completions=tuple(Completion(text=self.fixed_text, finish_reason="stop")
                              for _ in result.completions),
            latency_ms=result.latency_ms)


class CountingBackend(OptionMock):
    """Mock that logs every call (thread-safe) for scheduling assertions."""

    def __init__(self, *args, seed_to_layer: dict[int, int] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self.calls: list[dict] = []
        self.in_flight = 0
        self.max_in_flight = 0
        self.seed_to_layer = seed_to_layer or {}

    def generate(self, request):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            entry = {
                "start": time.monotonic(),
                "n_samples": request.n_samples,
                "layer": self.seed_to_layer.get(request.request_seed),
                "request_seed": request.request_seed,
            }
            self.calls.append(entry)
        try:
            return super().generate(request)
        finally:
            with self._lock:
                self.in_flight -= 1
                entry["end"] = time.monotonic()


class FlakyBackend(OptionMock):
    """Fails generate() call number ``fail_on_call`` and counts every call."""

    def __init__(self, fail_on_call: int, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self.fail_on_call = fail_on_call
        self.seen = 0

    def generate(self, request):
        with self._lock:
            self.seen += 1
            if self.seen == self.fail_on_call:
                raise BackendError("injected backend failure", attempts=3)
        return super().generate(request)


def node_records(nodes_jsonl: str | bytes) -> list[dict]:
    """The node records of a nodes.jsonl text in file order: every block's
    ``children``, one block a line."""
    return [record for block in map(json.loads, nodes_jsonl.splitlines())
            for record in block["children"]]


def build_full_tree(config) -> Tree:
    """Hand-expand a tree breadth-first with synthetic texts (no backend)."""
    tree = Tree(config)
    frontier = ["root"]
    for layer_index, layer in enumerate(config.layers, start=1):
        next_frontier = []
        for pid in frontier:
            children = [
                TreeNode(id=child_id(pid, rank), parent_id=pid, layer=layer_index,
                         role=layer.role, text=f"{layer.role.value}-{pid}-{rank}")
                for rank in range(layer.branching)
            ]
            tree.add_children(pid, children)
            next_frontier.extend(c.id for c in children)
        frontier = next_frontier
    return tree


# --- a scripted OpenAI-compatible server ----------------------------------------

def mock_reply(path: str, payload) -> tuple[int, bytes]:
    """The reply of a server that answers as the shipped mocks do."""
    if path.endswith("/embeddings"):
        vectors = MockEmbedder().embed(payload["input"])
        body = {"data": [{"index": i, "embedding": list(v.values)}
                         for i, v in enumerate(vectors)]}
    else:
        result = MockTextBackend().generate(GenerationRequest(
            prompt=payload["prompt"], max_tokens=payload["max_tokens"],
            temperature=payload["temperature"], n_samples=payload["n"], stop=(),
            request_seed=payload["seed"] % 2**64))
        body = {"choices": [{"index": i, "text": c.text}
                            for i, c in enumerate(result.completions)]}
    return 200, json.dumps(body).encode()


class SeenRequest(NamedTuple):
    method: str
    target: str  # the request target as sent: origin- or absolute-form
    headers: dict
    body: bytes


# (status, body) or (status, body, extra headers)
Reply = Union[tuple[int, bytes], tuple[int, bytes, dict]]


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # no delayed-ACK stall between head and body

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status, reply, *extra = self.server.answer(
            SeenRequest("POST", self.path, dict(self.headers), body))
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)
        # closed after the reply without a "Connection: close" header
        self.close_connection = self.server.close_after_reply

    def do_CONNECT(self):  # a proxy that refuses every tunnel
        self.server.answer(SeenRequest("CONNECT", self.path, dict(self.headers), b""))
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()


class ScriptedServer(ThreadingHTTPServer):
    """A local HTTP/1.1 server on 127.0.0.1 that answers each POST from a
    script: ``replies`` is a list of replies served in turn, the last one
    repeating, or a function of (path, JSON payload) that returns one.

    ``seen`` lists every request; ``connections`` counts the connections
    accepted. With ``close_after_reply`` each connection is closed after its
    first reply, unannounced, and ``closed`` is released once it is.
    """

    daemon_threads = True  # a kept-alive connection never blocks stop()

    def __init__(self, replies: list[Reply] | Callable[[str, object], Reply]):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.replies = replies
        self.seen: list[SeenRequest] = []
        self.connections = 0
        self.close_after_reply = False
        self.closed = threading.Semaphore(0)
        self._lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        # a short poll interval keeps stop() quick
        threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True).start()

    @property
    def calls(self) -> int:
        return sum(1 for seen in self.seen if seen.method == "POST")

    def answer(self, seen: SeenRequest) -> Reply:
        with self._lock:
            self.seen.append(seen)
            if seen.method != "POST":
                return 0, b""
            if callable(self.replies):
                return self.replies(seen.target, json.loads(seen.body))
            return self.replies[min(self.calls, len(self.replies)) - 1]

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


def record_connections(monkeypatch) -> tuple[list, list]:
    """Lists every ``http.client`` connection made, and every one closed."""
    opened, closed = [], []
    real_init, real_close = http.client.HTTPConnection.__init__, http.client.HTTPConnection.close

    def init(connection, *args, **kwargs):
        real_init(connection, *args, **kwargs)
        opened.append(connection)

    def close(connection):
        closed.append(connection)
        real_close(connection)

    monkeypatch.setattr(http.client.HTTPConnection, "__init__", init)
    monkeypatch.setattr(http.client.HTTPConnection, "close", close)
    return opened, closed


@pytest.fixture
def scripted_server():
    """Starts ScriptedServer(replies) for the test and stops it after."""
    servers: list[ScriptedServer] = []

    def start(replies) -> ScriptedServer:
        servers.append(ScriptedServer(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def mock_backend():
    return MockTextBackend()


@pytest.fixture
def mock_embedder():
    return MockEmbedder()
