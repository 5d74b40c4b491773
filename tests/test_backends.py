"""Mock determinism, the counting embedder, and the HTTP wire client."""

from __future__ import annotations

import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from treegen.backends import (GenerationRequest, HttpEmbedder, HttpTextBackend,
                              MockEmbedder, MockTextBackend)
from treegen.errors import BackendError, ConfigError, StatusError

from conftest import reference_cosine

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211


def reference_fnv(data: bytes) -> int:
    """Independent FNV-1a 64 from the published constants."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) % 2**64
    return h


def request(prompt="p", n=1, seed=42, max_tokens=16, temperature=1.0, stop=()):
    return GenerationRequest(prompt=prompt, max_tokens=max_tokens,
                             temperature=temperature, n_samples=n,
                             stop=tuple(stop), request_seed=seed)


# --- mock text generation ------------------------------------------------------

def mock_sample(seed, prompt, sample_index, max_tokens):
    """Sample ``sample_index`` of one mock request."""
    result = MockTextBackend().generate(request(prompt, n=sample_index + 1, seed=seed,
                                                max_tokens=max_tokens))
    return result.completions[sample_index].text


def test_mock_text_is_deterministic():
    a = mock_sample(7, "prompt", 0, 16)
    b = mock_sample(7, "prompt", 0, 16)
    assert a == b


def test_mock_text_varies_with_each_key_component():
    base = mock_sample(7, "prompt", 0, 16)
    assert mock_sample(8, "prompt", 0, 16) != base
    assert mock_sample(7, "prompt!", 0, 16) != base
    assert mock_sample(7, "prompt", 1, 16) != base


def test_mock_text_no_collisions_over_1000_random_keys():
    rng = random.Random(5)
    seen = set()
    for _ in range(1000):
        text = mock_sample(rng.getrandbits(64), "p", rng.randrange(64), 12)
        seen.add(text)
    assert len(seen) == 1000


def test_mock_text_minimal_length():
    text = mock_sample(1, "p", 0, 1)
    assert text and len(text.split()) == 1


def test_mock_text_length_tracks_max_tokens():
    assert len(mock_sample(1, "p", 0, 24).split()) == 24


def test_mock_backend_returns_n_completions(mock_backend):
    result = mock_backend.generate(request(n=4))
    assert len(result.completions) == 4
    assert len({c.text for c in result.completions}) == 4


def test_mock_backend_respects_sample_cap():
    backend = MockTextBackend(sample_cap=8)
    with pytest.raises(ConfigError):
        backend.generate(request(n=9))


def test_mock_backend_fixed_text_repeats():
    backend = MockTextBackend(fixed_text="same words")
    result = backend.generate(request(n=3))
    assert {c.text for c in result.completions} == {"same words"}


def test_mock_latency_jitter_is_deterministic():
    backend = MockTextBackend(latency_ms=1.0, latency_jitter=0.8)
    # the sleep duration derives from the request key; just check call works
    result = backend.generate(request(n=1))
    assert result.latency_ms >= 0.0


# --- mock embedder ---------------------------------------------------------------

def test_embedder_hand_computed_buckets():
    embedder = MockEmbedder(dim=16)
    [v] = embedder.embed(["a a b"])
    bucket_a = reference_fnv(b"a") % 16
    bucket_b = reference_fnv(b"b") % 16
    expected = [0.0] * 16
    expected[bucket_a] = 2 / math.sqrt(5)
    expected[bucket_b] = 1 / math.sqrt(5)
    assert list(v.values) == pytest.approx(expected)


def test_embedder_identical_texts_cosine_one():
    embedder = MockEmbedder()
    a, b = embedder.embed(["hello world", "hello world"])
    assert a == b
    assert reference_cosine(a, b) == pytest.approx(1.0)


def test_embedder_empty_text_is_basis_vector():
    embedder = MockEmbedder(dim=8)
    [v] = embedder.embed(["   "])
    assert v.values == (1.0,) + (0.0,) * 7


def test_embedder_is_case_insensitive():
    embedder = MockEmbedder()
    a, b = embedder.embed(["Hello World", "hello world"])
    assert a == b


def test_embedder_unit_norm():
    embedder = MockEmbedder()
    for text in ("a", "a b c", "x " * 50):
        [v] = embedder.embed([text])
        assert sum(x * x for x in v.values) == pytest.approx(1.0, abs=1e-9)


def test_embedder_values_non_negative():
    embedder = MockEmbedder()
    [v] = embedder.embed(["some words here"])
    assert all(x >= 0 for x in v.values)


# --- HTTP backends against a canned fixture server ---------------------------------

class _FixtureHandler(BaseHTTPRequestHandler):
    fail_next = 0
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append({"path": self.path, "payload": payload})
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b'{"error": "boom"}')
            return
        if self.path.endswith("/completions"):
            n = payload.get("n", 1)
            body = {"choices": [
                {"index": i, "text": f"fixture completion {i}", "finish_reason": "stop"}
                for i in range(n)
            ]}
        elif self.path.endswith("/embeddings"):
            texts = payload["input"]
            body = {"data": [
                {"index": i, "embedding": [float(i + 1), 0.5, 0.25]}
                for i in range(len(texts))
            ]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        raw = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def fixture_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FixtureHandler.fail_next = 0
    _FixtureHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()


def test_http_generate_parses_fixture(fixture_server):
    backend = HttpTextBackend(base_url=fixture_server, api_key="k", model="m")
    result = backend.generate(request(n=3))
    backend.close()
    assert [c.text for c in result.completions] == [
        "fixture completion 0", "fixture completion 1", "fixture completion 2"]
    sent = _FixtureHandler.requests_seen[-1]["payload"]
    assert sent["model"] == "m" and sent["n"] == 3 and sent["seed"] == 42


def test_http_generate_sends_stop_and_max_tokens(fixture_server):
    backend = HttpTextBackend(base_url=fixture_server, api_key="k", model="m")
    backend.generate(request(n=1, max_tokens=33, stop=("\n\n",)))
    backend.close()
    sent = _FixtureHandler.requests_seen[-1]["payload"]
    assert sent["max_tokens"] == 33 and sent["stop"] == ["\n\n"]


def test_http_retries_then_succeeds(fixture_server):
    _FixtureHandler.fail_next = 2
    backend = HttpTextBackend(base_url=fixture_server, api_key="k", model="m",
                              backoff_base=0.01)
    result = backend.generate(request(n=1))
    backend.close()
    assert result.completions[0].text == "fixture completion 0"


def test_http_gives_up_after_bounded_retries(fixture_server):
    _FixtureHandler.fail_next = 10
    backend = HttpTextBackend(base_url=fixture_server, api_key="k", model="m",
                              backoff_base=0.01, max_retries=3)
    with pytest.raises(StatusError) as exc_info:
        backend.generate(request(n=1))
    backend.close()
    assert exc_info.value.status == 500
    assert exc_info.value.attempts == 3
    assert "boom" in exc_info.value.body


def test_http_transport_failure_is_retryable_error():
    backend = HttpTextBackend(base_url="http://127.0.0.1:9", api_key="k", model="m",
                              backoff_base=0.01, max_retries=2, timeout=0.2)
    with pytest.raises(BackendError) as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 2


class _ScriptedSession:
    """Answers POSTs with 200 and the given bodies in turn; the last repeats."""

    def __init__(self, *bodies: bytes):
        self.bodies = bodies
        self.calls = 0

    def post(self, url, **kwargs):
        response = requests.Response()
        response.status_code = 200
        response._content = self.bodies[min(self.calls, len(self.bodies) - 1)]
        self.calls += 1
        return response


def test_http_non_json_body_is_retried_backend_error():
    session = _ScriptedSession(b"<html>upstream proxy error</html>")
    backend = HttpTextBackend(base_url="http://127.0.0.1:9", api_key="k", model="m",
                              backoff_base=0.0, max_retries=3, session=session)
    with pytest.raises(BackendError, match="non-JSON") as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 3
    assert session.calls == 3


GOOD_CHOICES = b'{"choices": [{"index": 0, "text": "fine", "finish_reason": "stop"}]}'
GOOD_DATA = b'{"data": [{"index": 0, "embedding": [1.0, 0.0]}]}'
GOOD_CHOICES_2 = b'{"choices": [{"index": 1, "text": "b"}, {"index": 0, "text": "a"}]}'
GOOD_DATA_2 = (b'{"data": [{"index": 1, "embedding": [0.0, 1.0]}, '
               b'{"index": 0, "embedding": [1.0, 0.0]}]}')
BAD_COUNT_CASES = pytest.mark.parametrize("backend_class, bad, good", [
    (HttpTextBackend, b'{"choices": []}', GOOD_CHOICES),
    (HttpEmbedder, b'{"data": []}', GOOD_DATA),
], ids=["generate", "embed"])


def _call(backend, n=1):
    if isinstance(backend, HttpEmbedder):
        return backend.embed(["a"] * n)
    return backend.generate(request(n=n)).completions


def _item_count(body: bytes) -> int:
    [items] = json.loads(body).values()
    return len(items)


@BAD_COUNT_CASES
def test_http_wrong_item_count_is_retried(backend_class, bad, good):
    session = _ScriptedSession(bad, good)
    backend = backend_class(base_url="http://127.0.0.1:9", api_key="k", model="m",
                            backoff_base=0.0, max_retries=3, session=session)
    assert len(_call(backend)) == 1
    assert session.calls == 2


@BAD_COUNT_CASES
def test_http_wrong_item_count_gives_up_after_bounded_retries(backend_class, bad, good):
    session = _ScriptedSession(bad)
    backend = backend_class(base_url="http://127.0.0.1:9", api_key="k", model="m",
                            backoff_base=0.0, max_retries=3, session=session)
    with pytest.raises(BackendError, match="expected 1") as exc_info:
        _call(backend)
    assert exc_info.value.attempts == 3
    assert session.calls == 3


BAD_ITEM_CASES = pytest.mark.parametrize("backend_class, bad, good", [
    (HttpTextBackend, b'{"choices": [7]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": 5}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": "0", "text": "a"}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "caf\\ud83d"}]}', GOOD_CHOICES),
    (HttpEmbedder, b'{"data": [7]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0}]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": ["x", 1]}]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": []}]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [true, 1]}]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [NaN, 1]}]}', GOOD_DATA),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [1e999, 1]}]}', GOOD_DATA),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "a"}, {"index": 0, "text": "b"}]}',
     GOOD_CHOICES_2),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "a"}, {"index": 2, "text": "b"}]}',
     GOOD_CHOICES_2),
    (HttpTextBackend, b'{"choices": [{"index": 1, "text": "a"}, {"text": "b"}]}',
     GOOD_CHOICES_2),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [1.0]}, '
                   b'{"index": 0, "embedding": [2.0]}]}', GOOD_DATA_2),
    (HttpEmbedder, b'{"data": [{"index": -1, "embedding": [1.0]}, '
                   b'{"index": 0, "embedding": [2.0]}]}', GOOD_DATA_2),
    (HttpEmbedder, b'{"data": [{"index": 1, "embedding": [1.0]}, {"embedding": [2.0]}]}',
     GOOD_DATA_2),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [1.0]}, '
                   b'{"index": 1, "embedding": [1.0, 2.0]}]}', GOOD_DATA_2),
    (HttpEmbedder, b'{"data": [{"index": 0, "embedding": [1%s, 1]}]}' % (b"0" * 400),
     GOOD_DATA),
], ids=["choice-not-object", "choice-no-text", "choice-text-not-string",
        "choice-index-not-int", "choice-text-lone-surrogate", "data-not-object",
        "data-no-embedding", "embedding-string-value", "embedding-empty", "embedding-bool-value",
        "embedding-nan", "embedding-inf", "choice-index-repeated",
        "choice-index-out-of-range", "choice-index-partly-absent", "data-index-repeated",
        "data-index-out-of-range", "data-index-partly-absent", "embedding-mixed-dimensions",
        "embedding-huge-integer"])


@BAD_ITEM_CASES
def test_http_malformed_item_is_retried(backend_class, bad, good):
    session = _ScriptedSession(bad, good)
    backend = backend_class(base_url="http://127.0.0.1:9", api_key="k", model="m",
                            backoff_base=0.0, max_retries=3, session=session)
    assert len(_call(backend, _item_count(good))) == _item_count(good)
    assert session.calls == 2


@BAD_ITEM_CASES
def test_http_malformed_item_gives_up_after_bounded_retries(backend_class, bad, good):
    session = _ScriptedSession(bad)
    backend = backend_class(base_url="http://127.0.0.1:9", api_key="k", model="m",
                            backoff_base=0.0, max_retries=3, session=session)
    with pytest.raises(BackendError, match="malformed") as exc_info:
        _call(backend, _item_count(good))
    assert exc_info.value.attempts == 3
    assert session.calls == 3


def test_http_items_are_returned_in_index_order():
    backend = HttpTextBackend(base_url="http://127.0.0.1:9", api_key="k", model="m",
                              session=_ScriptedSession(GOOD_CHOICES_2))
    assert [c.text for c in _call(backend, 2)] == ["a", "b"]
    embedder = HttpEmbedder(base_url="http://127.0.0.1:9", api_key="k", model="m",
                            session=_ScriptedSession(GOOD_DATA_2))
    assert [v.values for v in _call(embedder, 2)] == [(1.0, 0.0), (0.0, 1.0)]


def test_http_embedder_round_trip(fixture_server):
    embedder = HttpEmbedder(base_url=fixture_server, api_key="k", model="m")
    vectors = embedder.embed(["a", "b"])
    embedder.close()
    assert vectors[0].values == (1.0, 0.5, 0.25)
    assert vectors[1].values == (2.0, 0.5, 0.25)
    assert all(v.dim == 3 for v in vectors)


def test_close_closes_the_session_of_every_thread(fixture_server, monkeypatch):
    opened, closed = [], []
    real_init, real_close = requests.Session.__init__, requests.Session.close

    def init(session):
        real_init(session)
        opened.append(session)

    def close(session):
        closed.append(session)
        real_close(session)

    monkeypatch.setattr(requests.Session, "__init__", init)
    monkeypatch.setattr(requests.Session, "close", close)
    backend = HttpTextBackend(base_url=fixture_server, api_key="k", model="m")
    threads = [threading.Thread(target=backend.generate, args=(request(n=1),))
               for _ in range(3)]
    for thread in threads:
        thread.start()
        thread.join()
    assert len(opened) == 3  # one session per thread
    backend.close()
    assert {id(s) for s in closed} == {id(s) for s in opened}
    supplied = requests.Session()
    HttpEmbedder(base_url=fixture_server, api_key="k", model="m", session=supplied).close()
    assert supplied not in closed  # the caller's to close
    supplied.close()


@pytest.mark.parametrize("backend_class", [HttpTextBackend, HttpEmbedder])
def test_fewer_than_one_attempt_is_a_config_error(backend_class):
    with pytest.raises(ConfigError, match="max_retries must be >= 1, got 0"):
        backend_class(base_url="http://127.0.0.1:9", api_key="k", model="m", max_retries=0)


def test_missing_configuration_names_the_variable(monkeypatch):
    monkeypatch.delenv("TG_API_BASE", raising=False)
    monkeypatch.delenv("TG_API_KEY", raising=False)
    with pytest.raises(ConfigError, match="TG_API_BASE"):
        HttpTextBackend(model="m")
    with pytest.raises(ConfigError, match="TG_API_KEY"):
        HttpTextBackend(base_url="http://x", model="m")
