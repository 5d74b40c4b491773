"""Mock determinism, the counting embedder, and the HTTP wire client."""

from __future__ import annotations

import base64
import json
import math
import random
import re
import threading

import pytest

from treegen import backends
from treegen.backends import (GenerationRequest, HttpEmbedder, HttpTextBackend,
                              MockEmbedder, MockTextBackend)
from treegen.errors import BackendError, ConfigError

import conftest
from conftest import OptionMock, record_connections, reference_cosine

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


def test_mock_backend_respects_sample_cap(mock_backend):
    assert mock_backend.sample_cap == backends.DEFAULT_SAMPLE_CAP == 64
    assert len(mock_backend.generate(request(n=64)).completions) == 64
    with pytest.raises(ConfigError):
        mock_backend.generate(request(n=65))


def test_mock_backend_fixed_text_repeats():
    backend = OptionMock(fixed_text="same words")
    result = backend.generate(request(n=3))
    assert {c.text for c in result.completions} == {"same words"}


def test_mock_latency_jitter_is_deterministic(monkeypatch):
    delays = []
    monkeypatch.setattr(conftest.time, "sleep", delays.append)
    backend = OptionMock(latency_ms=1.0, latency_jitter=0.8)
    first = backend.generate(request(n=1))
    assert backend.generate(request(n=1)).completions == first.completions
    backend.generate(request(prompt="other", n=1))
    # the sleep is keyed by the request: the same request sleeps as long
    assert delays[0] == delays[1] != delays[2]
    assert all(0.0002 <= d <= 0.0018 for d in delays)


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


# --- HTTP backends against a scripted local server ---------------------------------

@pytest.fixture(autouse=True)
def close_http_backends(monkeypatch):
    """Closes every HTTP backend a test builds once the test ends, pass or
    fail, so no socket is left for a later test's garbage collection."""
    built = []
    real_init = backends._HttpBase.__init__

    def init(backend, *args, **kwargs):
        real_init(backend, *args, **kwargs)
        built.append(backend)

    monkeypatch.setattr(backends._HttpBase, "__init__", init)
    yield
    for backend in built:
        backend.close()


def canned(path, payload):
    """Answers like an OpenAI-compatible server: ``n`` fixture completions, or
    one 3-dimensional embedding per input text."""
    if path.endswith("/completions"):
        body = {"choices": [
            {"index": i, "text": f"fixture completion {i}", "finish_reason": "stop"}
            for i in range(payload.get("n", 1))]}
    else:
        body = {"data": [{"index": i, "embedding": [float(i + 1), 0.5, 0.25]}
                         for i in range(len(payload["input"]))]}
    return 200, json.dumps(body).encode()


def failing(times):
    """``canned`` after ``times`` replies of 500."""
    calls = []

    def reply(path, payload):
        calls.append(path)
        return (500, b'{"error": "boom"}') if len(calls) <= times else canned(path, payload)

    return reply


def test_http_generate_parses_fixture(scripted_server):
    server = scripted_server(canned)
    backend = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m")
    result = backend.generate(request(n=3))
    assert [c.text for c in result.completions] == [
        "fixture completion 0", "fixture completion 1", "fixture completion 2"]
    sent = json.loads(server.seen[-1].body)
    assert sent["model"] == "m" and sent["n"] == 3 and sent["seed"] == 42


def test_http_generate_sends_stop_and_max_tokens(scripted_server):
    server = scripted_server(canned)
    backend = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m")
    backend.generate(request(n=1, max_tokens=33, stop=("\n\n",)))
    sent = json.loads(server.seen[-1].body)
    assert sent["max_tokens"] == 33 and sent["stop"] == ["\n\n"]


def test_http_request_bytes_are_the_json_payload(scripted_server):
    server = scripted_server(canned)
    backend = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m")
    backend.generate(request(prompt="caf\u00e9 \U0001f600 \"q\"", n=2, stop=("\n",)))
    embedder = HttpEmbedder(base_url=server.url + "/v1", api_key="k", model="e")
    embedder.embed(["a", "\u00fc"])
    payloads = [{"model": "m", "prompt": "caf\u00e9 \U0001f600 \"q\"", "max_tokens": 16,
                 "temperature": 1.0, "n": 2, "seed": 42, "stop": ["\n"]},
                {"model": "e", "input": ["a", "\u00fc"]}]
    assert [seen.body for seen in server.seen] == [
        json.dumps(payload, allow_nan=False).encode() for payload in payloads]
    assert [seen.target for seen in server.seen] == ["/v1/completions", "/v1/embeddings"]
    for seen in server.seen:
        assert seen.headers["Authorization"] == "Bearer k"
        assert seen.headers["Content-Type"] == "application/json"


def test_http_retries_then_succeeds(scripted_server):
    server = scripted_server(failing(2))
    backend = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m",
                              backoff_base=0.01)
    result = backend.generate(request(n=1))
    assert result.completions[0].text == "fixture completion 0"


def test_http_gives_up_after_bounded_retries(scripted_server):
    server = scripted_server(failing(10))
    backend = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m",
                              backoff_base=0.01, max_retries=3)
    with pytest.raises(BackendError, match="HTTP 500: .*boom") as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 3


def test_http_transport_failure_is_retryable_error():
    backend = HttpTextBackend(base_url="http://127.0.0.1:9", api_key="k", model="m",
                              backoff_base=0.01, max_retries=2, timeout=0.2)
    with pytest.raises(BackendError) as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 2


def _ok(*bodies: bytes) -> list:
    return [(200, body) for body in bodies]


def test_http_non_json_body_is_retried_backend_error(scripted_server):
    server = scripted_server(_ok(b"<html>upstream proxy error</html>"))
    backend = HttpTextBackend(base_url=server.url, api_key="k", model="m",
                              backoff_base=0.0, max_retries=3)
    with pytest.raises(BackendError, match="non-JSON") as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 3
    assert server.calls == 3


def test_http_body_nested_too_deeply_is_retried_backend_error(scripted_server):
    # json.loads raises RecursionError here, not ValueError
    server = scripted_server(_ok(b"[" * 100_000))
    backend = HttpTextBackend(base_url=server.url, api_key="k", model="m",
                              backoff_base=0.0, max_retries=3)
    with pytest.raises(BackendError, match="non-JSON") as exc_info:
        backend.generate(request(n=1))
    assert exc_info.value.attempts == 3
    assert server.calls == 3


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
def test_http_wrong_item_count_is_retried(scripted_server, backend_class, bad, good):
    server = scripted_server(_ok(bad, good))
    backend = backend_class(base_url=server.url, api_key="k", model="m",
                            backoff_base=0.0, max_retries=3)
    assert len(_call(backend)) == 1
    assert server.calls == 2


@BAD_COUNT_CASES
def test_http_wrong_item_count_gives_up_after_bounded_retries(scripted_server, backend_class,
                                                              bad, good):
    server = scripted_server(_ok(bad))
    backend = backend_class(base_url=server.url, api_key="k", model="m",
                            backoff_base=0.0, max_retries=3)
    with pytest.raises(BackendError, match="expected 1") as exc_info:
        _call(backend)
    assert exc_info.value.attempts == 3
    assert server.calls == 3


BAD_ITEM_CASES = pytest.mark.parametrize("backend_class, bad, good", [
    (HttpTextBackend, b'{"choices": [7]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": 5}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": "0", "text": "a"}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "caf\\ud83d"}]}', GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "a", "finish_reason": ["length"]}]}',
     GOOD_CHOICES),
    (HttpTextBackend, b'{"choices": [{"index": 0, "text": "a", "finish_reason": true}]}',
     GOOD_CHOICES),
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
        "choice-index-not-int", "choice-text-lone-surrogate", "choice-finish-reason-list",
        "choice-finish-reason-bool", "data-not-object",
        "data-no-embedding", "embedding-string-value", "embedding-empty", "embedding-bool-value",
        "embedding-nan", "embedding-inf", "choice-index-repeated",
        "choice-index-out-of-range", "choice-index-partly-absent", "data-index-repeated",
        "data-index-out-of-range", "data-index-partly-absent", "embedding-mixed-dimensions",
        "embedding-huge-integer"])


@BAD_ITEM_CASES
def test_http_malformed_item_is_retried(scripted_server, backend_class, bad, good):
    server = scripted_server(_ok(bad, good))
    backend = backend_class(base_url=server.url, api_key="k", model="m",
                            backoff_base=0.0, max_retries=3)
    assert len(_call(backend, _item_count(good))) == _item_count(good)
    assert server.calls == 2


@BAD_ITEM_CASES
def test_http_malformed_item_gives_up_after_bounded_retries(scripted_server, backend_class,
                                                            bad, good):
    server = scripted_server(_ok(bad))
    backend = backend_class(base_url=server.url, api_key="k", model="m",
                            backoff_base=0.0, max_retries=3)
    with pytest.raises(BackendError, match="malformed") as exc_info:
        _call(backend, _item_count(good))
    assert exc_info.value.attempts == 3
    assert server.calls == 3


def test_http_items_are_returned_in_index_order(scripted_server):
    backend = HttpTextBackend(base_url=scripted_server(_ok(GOOD_CHOICES_2)).url,
                              api_key="k", model="m")
    assert [c.text for c in _call(backend, 2)] == ["a", "b"]
    embedder = HttpEmbedder(base_url=scripted_server(_ok(GOOD_DATA_2)).url,
                            api_key="k", model="m")
    assert [v.values for v in _call(embedder, 2)] == [(1.0, 0.0), (0.0, 1.0)]


def test_http_finish_reason_absent_null_or_empty_is_stop(scripted_server):
    body = (b'{"choices": [{"index": 0, "text": "a"}, {"index": 1, "text": "b", '
            b'"finish_reason": null}, {"index": 2, "text": "c", "finish_reason": ""}, '
            b'{"index": 3, "text": "d", "finish_reason": "length"}]}')
    backend = HttpTextBackend(base_url=scripted_server(_ok(body)).url, api_key="k", model="m")
    assert [c.finish_reason for c in _call(backend, 4)] == ["stop", "stop", "stop", "length"]


def test_http_embedder_round_trip(scripted_server):
    embedder = HttpEmbedder(base_url=scripted_server(canned).url + "/v1", api_key="k",
                            model="m")
    vectors = embedder.embed(["a", "b"])
    assert vectors[0].values == (1.0, 0.5, 0.25)
    assert vectors[1].values == (2.0, 0.5, 0.25)
    assert all(len(v.values) == 3 for v in vectors)


def test_close_closes_the_session_of_every_thread(scripted_server, monkeypatch):
    opened, closed = record_connections(monkeypatch)
    backend = HttpTextBackend(base_url=scripted_server(canned).url + "/v1", api_key="k",
                              model="m")
    threads = [threading.Thread(target=backend.generate, args=(request(n=1),))
               for _ in range(3)]
    for thread in threads:
        thread.start()
        thread.join()
    assert len(opened) == 3  # one connection per thread
    backend.close()
    assert {id(c) for c in closed} == {id(c) for c in opened}


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


@pytest.mark.parametrize("status, retry_after, wait", [
    (429, "2", 2.0),
    (503, "  7 ", 5.0),  # no longer than the timeout
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # an HTTP-date: the backoff
    (503, "1.5", 0.25),
    (429, "\u0662", 0.25),  # a digit, but not an ASCII one
    (500, "2", 0.25),  # only 429 and 503 are followed
    (429, None, 0.25),
], ids=["429-seconds", "503-capped-at-timeout", "http-date", "fraction", "non-ascii-digit",
        "500-ignored", "absent"])
def test_http_retry_after_replaces_the_backoff(scripted_server, monkeypatch,
                                               status, retry_after, wait):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    server = scripted_server([(status, b'{"error": "busy"}', headers), (200, GOOD_CHOICES)])
    sleeps = []
    monkeypatch.setattr(backends.time, "sleep", sleeps.append)
    backend = HttpTextBackend(base_url=server.url, api_key="k", model="m", timeout=5.0,
                              backoff_base=0.25)
    assert [c.text for c in _call(backend)] == ["fine"]
    assert sleeps == [wait]
    assert server.calls == 2


def test_http_connection_the_server_closed_idle_is_reopened_for_free(scripted_server,
                                                                     monkeypatch):
    server = scripted_server([(200, GOOD_CHOICES)])
    server.close_after_reply = True
    sleeps = []
    monkeypatch.setattr(backends.time, "sleep", sleeps.append)
    backend = HttpTextBackend(base_url=server.url, api_key="k", model="m")
    for _ in range(5):
        assert [c.text for c in _call(backend)] == ["fine"]
        assert server.closed.acquire(timeout=10)  # closed while the client is idle
    assert sleeps == []  # no attempt was spent on a dead connection
    assert (server.calls, server.connections) == (5, 5)


def _clear_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY",
                 "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)


def test_http_proxy_gets_an_absolute_form_target_unless_no_proxy(scripted_server,
                                                                 monkeypatch):
    server = scripted_server([(200, GOOD_CHOICES)])
    _clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", server.url.replace("//", "//u%3A:p%40ss@"))
    # nothing listens on 127.0.0.2:9: only the proxy can answer
    proxied = HttpTextBackend(base_url="http://127.0.0.2:9/v1", api_key="k", model="m",
                              max_retries=1)
    assert [c.text for c in _call(proxied)] == ["fine"]
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = HttpTextBackend(base_url=server.url + "/v1", api_key="k", model="m",
                             max_retries=1)
    assert [c.text for c in _call(direct)] == ["fine"]
    via_proxy, bypassed = server.seen
    assert via_proxy.target == "http://127.0.0.2:9/v1/completions"
    assert via_proxy.headers["Host"] == "127.0.0.2:9"
    assert via_proxy.headers["Proxy-Authorization"] == "Basic " + base64.b64encode(
        b"u::p@ss").decode()
    assert bypassed.target == "/v1/completions"
    assert "Proxy-Authorization" not in bypassed.headers


def test_https_proxy_is_asked_for_a_tunnel(scripted_server, monkeypatch):
    server = scripted_server([])  # answers CONNECT with 502
    _clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTPS_PROXY", server.url.replace("//", "//u:p@"))
    backend = HttpTextBackend(base_url="https://127.0.0.2:8443/v1", api_key="k", model="m",
                              max_retries=1)
    with pytest.raises(BackendError, match="transport failure.*502"):
        _call(backend)
    [seen] = server.seen
    assert (seen.method, seen.target) == ("CONNECT", "127.0.0.2:8443")
    assert seen.headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"u:p").decode()


@pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080", "http://127.0.0.1:x"])
def test_unusable_proxy_is_a_config_error(monkeypatch, proxy):
    _clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", proxy)
    with pytest.raises(ConfigError, match="proxy"):
        HttpTextBackend(base_url="http://127.0.0.2:9/v1", api_key="k", model="m")


@pytest.mark.parametrize("base_url", [
    "localhost:8000/v1", "ftp://h/v1", "http:///v1", "http://h:99999/v1", "http://h:x/v1",
    "http://u:p@h/v1", "http://h/v1?x=1", "http://h/v1#top", "http://[::1/v1"])
def test_base_url_that_is_not_http_host_port_path_is_a_config_error(base_url):
    with pytest.raises(ConfigError, match=re.escape(repr(base_url))):
        HttpTextBackend(base_url=base_url, api_key="k", model="m")
