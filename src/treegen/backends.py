"""Text generation and embedding backends.

Two implementations ship here: a fully deterministic mock pair (hash-keyed,
so an entire tree run is a pure function of its config) and one HTTP client
that serves both interfaces, speaking the OpenAI-compatible
completions/embeddings wire shapes over one connection per thread. Backends
must tolerate concurrent in-flight calls; ordering is the scheduler's job.
"""

from __future__ import annotations

import json
import os
import select
import sys
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar
from urllib.parse import SplitResult, quote, unquote, urlsplit

from .errors import BackendError, ConfigError
from .fnv import fnv1a64, splitmix64, u64_bytes
from .tree import utf8_can_hold

# http.client, ssl and urllib.request are imported where the HTTP backend
# uses them: they add about 30 ms to the start of a process that never opens a
# connection, such as every mock run.

API_BASE_ENV = "TG_API_BASE"
API_KEY_ENV = "TG_API_KEY"
MODEL_ENV = "TG_MODEL"

DEFAULT_SAMPLE_CAP = 64
DEFAULT_TIMEOUT = 120.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5

T = TypeVar("T")


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_tokens: int
    temperature: float
    n_samples: int
    stop: tuple[str, ...]
    request_seed: int


@dataclass(frozen=True)
class Completion:
    text: str
    finish_reason: str  # "stop" | "length" | "error"


@dataclass(frozen=True)
class GenerationResult:
    completions: tuple[Completion, ...]
    latency_ms: float


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]


class GenerationBackend(ABC):
    backend_id: str = "generation"
    sample_cap: int = DEFAULT_SAMPLE_CAP

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Return exactly ``request.n_samples`` completions."""

    def close(self) -> None:
        """Release the connections the backend opened; the mock opens none."""

    def check_request(self, request: GenerationRequest) -> None:
        if request.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if request.n_samples > self.sample_cap:
            raise ConfigError(
                f"n_samples {request.n_samples} exceeds backend cap {self.sample_cap}")
        if request.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")


class EmbeddingBackend(ABC):
    @abstractmethod
    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """One vector per input text, same order, uniform dimension."""

    def close(self) -> None:
        """Release the connections the backend opened; the mock opens none."""


# --- deterministic mocks ----------------------------------------------------

MOCK_VOCAB = (
    "the quick silver fox jumps over lazy rivers while distant mountains "
    "echo with morning light and ancient forests hold their quiet secrets "
    "beneath turning stars a traveler maps unknown roads through valleys "
    "where stone bridges cross cold water and small villages trade salt "
    "grain copper cloth stories about weather harvest festivals music "
    "engines circuits glass towers humming markets busy harbors carrying "
    "ships toward islands rich in spice coral pearl timber iron honey"
).split()


def _prompt_state(seed: int, prompt: str) -> int:
    """FNV-1a state after folding (seed, prompt); per-sample keys extend it."""
    return fnv1a64(prompt.encode("utf-8"), fnv1a64(u64_bytes(seed)))


def _words_from_key(key: int, max_tokens: int, vocab: Sequence[str]) -> str:
    stream = splitmix64(key)
    n = len(vocab)
    return " ".join(vocab[next(stream) % n] for _ in range(max(1, max_tokens)))


class MockTextBackend(GenerationBackend):
    """Hash-keyed generator: same (seed, prompt, index) -> identical bytes.

    Sample ``i`` of a request is pseudo-text keyed by FNV-1a-64 of (request
    seed, prompt, i), one ``vocab`` word per token of ``max_tokens``.
    """

    backend_id = "mock"
    vocab: Sequence[str] = MOCK_VOCAB

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        start = time.monotonic()
        # hash the prompt once per request; per-sample keys extend the state
        state = _prompt_state(request.request_seed, request.prompt)
        completions = tuple(
            Completion(text=_words_from_key(fnv1a64(u64_bytes(i), state),
                                            request.max_tokens, self.vocab),
                       finish_reason="stop")
            for i in range(request.n_samples))
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=completions, latency_ms=elapsed)


class MockEmbedder(EmbeddingBackend):
    """Token-counting embedder: lowercase, whitespace-tokenize, bucket each
    token by FNV-1a-64 mod dim, then L2-normalize. Empty text maps to e0.

    Hand-computable by construction, which is what makes the MMR examples and
    the dedup acceptance checks verifiable without a model.
    """

    def __init__(self, dim: int = 16):
        if dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        self.dim = dim
        self._bucket_cache: dict[str, int] = {}

    def _bucket(self, token: str) -> int:
        bucket = self._bucket_cache.get(token)
        if bucket is None:
            bucket = fnv1a64(token.encode("utf-8")) % self.dim
            self._bucket_cache[token] = bucket
        return bucket

    def embed_one(self, text: str) -> EmbeddingVector:
        tokens = text.lower().split()
        if not tokens:
            values = [0.0] * self.dim
            values[0] = 1.0
            return EmbeddingVector(values=tuple(values))
        counts = [0] * self.dim
        for token in tokens:
            counts[self._bucket(token)] += 1
        norm = sum(c * c for c in counts) ** 0.5
        return EmbeddingVector(values=tuple(c / norm for c in counts))

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ConfigError("embed() needs at least one text")
        return [self.embed_one(t) for t in texts]


# --- OpenAI-compatible HTTP backend -----------------------------------------

def _require(value: str | None, env_name: str, what: str) -> str:
    value = value or os.environ.get(env_name)
    if not value:
        raise ConfigError(f"{what} is not configured: set {env_name} or pass it explicitly")
    if not utf8_can_hold(value):  # environment bytes that are not UTF-8 decode to lone surrogates
        raise ConfigError(f"{what} is not text UTF-8 can hold: check {env_name} or the "
                          "value given")
    return value


def _split_base_url(base_url: str) -> SplitResult:
    """``base_url`` split, if it is http(s)://host[:port][/path]; else a
    ConfigError naming it."""
    try:
        parts = urlsplit(base_url)
        parts.port  # raises ValueError unless a number in 0..65535
    except ValueError:
        parts = None
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or parts.username is not None or parts.query or parts.fragment):
        raise ConfigError(f"API base URL {base_url!r} is not http(s)://host[:port][/path]")
    return parts


def _proxy_for(url: SplitResult) -> tuple[tuple[str, int] | None, dict[str, str]]:
    """The (host, port) of the proxy that HTTP_PROXY/HTTPS_PROXY name for
    ``url`` and the headers it takes; (None, {}) when there is none or
    NO_PROXY bypasses it."""
    import base64
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.netloc):
        return None, {}
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        port = parts.port or 80
    except ValueError:
        port = None
    if parts.scheme != "http" or not parts.hostname or port is None:
        raise ConfigError(f"proxy {proxy!r} for {url.scheme} URLs is not http://host[:port]")
    headers = {}
    if parts.username is not None:
        credentials = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
        token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
        headers["Proxy-Authorization"] = f"Basic {token}"
    return (parts.hostname, port), headers


def _readable(sock) -> bool:
    """True if ``sock`` has something to read now. An idle kept-alive socket
    only does once the server closed it (or sent bytes nobody asked for)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retry_after(value: str | None, limit: float) -> float | None:
    """The wait a ``Retry-After`` of delta-seconds asks for, at most ``limit``;
    None for no header, an HTTP-date or anything else."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), limit)


def _items(body, key: str, n: int) -> list[dict]:
    """The reply's ``key`` items in index order.

    Raises ValueError unless there are exactly ``n``, each is an object, and
    their ``index`` values are integers that are all absent or 0..n-1 in some
    order.
    """
    items = body.get(key) if isinstance(body, dict) else None
    if not isinstance(items, list) or len(items) != n:
        got = len(items) if isinstance(items, list) else "none"
        raise ValueError(f"expected {n} {key!r} items, got {got}")
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(f"malformed {key!r} item: not an object: {item!r:.80}")
    indices = [item["index"] for item in items if "index" in item]
    # a non-integer index is left out, so the sorted list falls short
    if indices and sorted(i for i in indices if type(i) is int) != list(range(n)):
        raise ValueError(f"malformed {key!r} reply: 'index' values are not integers "
                         f"0..{n - 1} in some order: {indices!r:.80}")
    return sorted(items, key=lambda item: item.get("index", 0))


class HttpBackend(GenerationBackend, EmbeddingBackend):
    """OpenAI-compatible client of both endpoints: /completions (prompt mode;
    prompts arrive pre-rendered) with ``model``, /embeddings with
    ``embedding_model``, which defaults to ``model``. Each generate request is
    one call that sends the native ``n`` and ``request_seed`` as the API
    ``seed``, a signed 64-bit integer; only the mock guarantees determinism.

    Both endpoints share one keep-alive ``http.client`` connection per worker
    thread. It goes through the proxy that HTTP_PROXY/HTTPS_PROXY name at
    construction, unless NO_PROXY bypasses it: an http:// URL as an
    absolute-form request to the proxy, an https:// one through a CONNECT
    tunnel. HTTPS verifies against the system's CA certificates (or
    SSL_CERT_FILE).
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, embedding_model: str | None = None,
                 timeout: float = DEFAULT_TIMEOUT):
        self.base_url = _require(base_url, API_BASE_ENV, "API base URL").rstrip("/")
        url = _split_base_url(self.base_url)
        self.api_key = _require(api_key, API_KEY_ENV, "API key")
        self.model = _require(model, MODEL_ENV, "model name")
        self.embedding_model = embedding_model or self.model
        self.backend_id = f"http:{self.model}"
        self.timeout = timeout
        self._headers = {"Authorization": f"Bearer {self.api_key}",
                         "Content-Type": "application/json"}
        # the request target of each endpoint is this prefix, "/" and its path
        self._target = quote(url.path, safe="/%:@!$&'()*+,;=~")
        self._origin = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        self._tls = None
        if url.scheme == "https":
            import ssl
            self._tls = ssl.create_default_context()
        self._proxy, self._proxy_headers = _proxy_for(url)
        if self._proxy is not None and self._tls is None:
            # a plain HTTP proxy takes the absolute URL, and its credentials
            # with every request
            self._target = f"http://{url.netloc}{self._target}"
            self._headers.update(self._proxy_headers)
        # connections are not safe to share across threads: keep one per
        # thread, and list them all for close()
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._opened_lock = threading.Lock()

    def _open(self) -> http.client.HTTPConnection:
        import http.client

        host, port = self._proxy or self._origin
        if self._tls is None:
            return http.client.HTTPConnection(host, port, timeout=self.timeout)
        connection = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                                 context=self._tls)
        if self._proxy is not None:
            connection.set_tunnel(*self._origin, headers=self._proxy_headers)
        return connection

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection. A socket the server closed while it was
        idle is dropped first, so the request reconnects without spending an
        attempt."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._open()
            with self._opened_lock:
                self._opened.append(connection)
        elif connection.sock is not None and _readable(connection.sock):
            connection.close()
        return connection

    def close(self) -> None:
        """Close the connection of every thread; a later request reconnects."""
        with self._opened_lock:
            opened = list(self._opened)
        for connection in opened:
            connection.close()

    def _exchange(self, target: str, body: bytes) -> tuple[int, str | None, bytes]:
        """One POST on this thread's connection: (status, Retry-After, body)."""
        connection = self._connection()
        try:
            connection.request("POST", target, body, self._headers)
            reply = connection.getresponse()
            return reply.status, reply.getheader("Retry-After"), reply.read()
        except BaseException:
            connection.close()  # its state is unknown; the next request reconnects
            raise

    def _post(self, path: str, payload: dict, parse: Callable[[object], T]) -> T:
        """POST ``payload`` and return ``parse`` of the JSON reply.

        A transport failure, a 429 or 5xx status, a non-JSON body (one nested
        too deeply for ``json.loads`` included) and a reply that ``parse``
        rejects with ``ValueError`` are retried, for ``DEFAULT_RETRIES``
        attempts in all, after a backoff of ``DEFAULT_BACKOFF`` seconds that
        doubles, or after the delta-seconds of a 429's or 503's
        ``Retry-After`` (at most ``timeout``); any other status fails at once.
        """
        import http.client

        url = f"{self.base_url}/{path}"
        target = f"{self._target}/{path}"
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        wait = None
        for attempt in range(1, DEFAULT_RETRIES + 1):
            if attempt > 1:
                time.sleep(DEFAULT_BACKOFF * 2 ** (attempt - 2) if wait is None else wait)
            wait = None
            try:
                status, retry_after, data = self._exchange(target, body)
            except (OSError, http.client.HTTPException) as exc:
                error = BackendError(f"transport failure calling {url}: {exc}",
                                     attempts=attempt)
                continue
            if not 200 <= status < 300:
                error = BackendError(f"HTTP {status}: {data.decode('utf-8', 'replace')[:500]}",
                                     attempts=attempt)
                if status < 500 and status != 429:
                    raise error  # client errors are not retryable
                if status in (429, 503):
                    wait = _retry_after(retry_after, self.timeout)
                continue
            try:
                reply = json.loads(data)
            except (ValueError, RecursionError) as exc:
                error = BackendError(f"non-JSON response body from {url}: {exc}",
                                     attempts=attempt)
                continue
            try:
                return parse(reply)
            except ValueError as exc:
                error = BackendError(f"unusable reply from {url}: {exc}", attempts=attempt)
        raise error

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        start = time.monotonic()
        seed = request.request_seed
        payload: dict = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "n": request.n_samples,
            # the API types seed as a signed 64-bit integer: send the request
            # seed's two's-complement value, which % 2**64 maps back
            "seed": seed - 2**64 if seed >= 2**63 else seed,
        }
        if request.stop:
            payload["stop"] = list(request.stop)

        def parse(body) -> tuple[Completion, ...]:
            choices = _items(body, "choices", request.n_samples)
            for choice in choices:
                text = choice.get("text")
                if not isinstance(text, str):
                    raise ValueError("malformed 'choices' item: 'text' is not a string: "
                                     f"{text!r:.80}")
                reason = choice.get("finish_reason")
                if reason is not None and not isinstance(reason, str):
                    raise ValueError("malformed 'choices' item: 'finish_reason' is not a "
                                     f"string: {reason!r:.80}")
                for key, value in (("text", text), ("finish_reason", reason or "")):
                    if not utf8_can_hold(value):  # JSON can spell one; nodes.jsonl is UTF-8
                        raise ValueError(f"malformed 'choices' item: {key!r} cannot be written "
                                         f"as UTF-8 (a lone surrogate): {value!r:.80}")
            return tuple(Completion(text=c["text"], finish_reason=c.get("finish_reason") or "stop")
                         for c in choices)

        completions = self._post("completions", payload, parse)
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=completions, latency_ms=elapsed)

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ConfigError("embed() needs at least one text")

        def parse(body) -> list[EmbeddingVector]:
            embeddings = [item.get("embedding") for item in _items(body, "data", len(texts))]
            for embedding in embeddings:
                # a bool is not a number; NaN, infinities and ints beyond the
                # float range fail the comparison, which converts nothing
                if not (isinstance(embedding, list) and embedding
                        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                                for v in embedding)):
                    raise ValueError("malformed 'data' item: 'embedding' is not a non-empty "
                                     f"list of finite numbers: {embedding!r:.80}")
            dims = sorted({len(embedding) for embedding in embeddings})
            if len(dims) > 1:
                raise ValueError(f"malformed 'data' reply: embedding dimensions differ "
                                 f"within the batch: {dims}")
            return [EmbeddingVector(values=tuple(map(float, embedding)))
                    for embedding in embeddings]

        payload = {"model": self.embedding_model, "input": list(texts)}
        return self._post("embeddings", payload, parse)
