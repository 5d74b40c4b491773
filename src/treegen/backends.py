"""Text generation and embedding backends.

Two implementations of each interface ship here: a fully deterministic mock
pair (hash-keyed, so an entire tree run is a pure function of its config) and
an HTTP pair speaking the OpenAI-compatible completions/embeddings wire
shapes. Backends must tolerate concurrent in-flight calls; ordering is the
scheduler's job.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import requests

from .errors import BackendError, ConfigError, StatusError
from .fnv import fnv1a64, splitmix64, u64_bytes

log = logging.getLogger(__name__)

API_BASE_ENV = "TG_API_BASE"
API_KEY_ENV = "TG_API_KEY"
MODEL_ENV = "TG_MODEL"

DEFAULT_SAMPLE_CAP = 64
DEFAULT_TIMEOUT = 120.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5


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

    @property
    def dim(self) -> int:
        return len(self.values)


class GenerationBackend(ABC):
    backend_id: str = "generation"
    sample_cap: int = DEFAULT_SAMPLE_CAP

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Return exactly ``request.n_samples`` completions."""

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
    seed, prompt, i), one vocabulary word per token of ``max_tokens``.

    ``latency_ms`` injects a per-call sleep for scheduling experiments;
    ``latency_jitter`` spreads it deterministically (keyed by the request)
    over [mean*(1-j), mean*(1+j)]. ``fixed_text`` forces every completion to
    one string, which is how tests construct degenerate duplicate pools.
    """

    backend_id = "mock"

    def __init__(self, vocab_size: int | None = None, latency_ms: float = 0.0,
                 latency_jitter: float = 0.0, fixed_text: str | None = None,
                 sample_cap: int = DEFAULT_SAMPLE_CAP):
        if vocab_size is not None and not 1 <= vocab_size <= len(MOCK_VOCAB):
            raise ConfigError(f"vocab_size must be in [1, {len(MOCK_VOCAB)}]")
        self.vocab = MOCK_VOCAB[:vocab_size] if vocab_size else MOCK_VOCAB
        self.latency_ms = latency_ms
        self.latency_jitter = latency_jitter
        self.fixed_text = fixed_text
        self.sample_cap = sample_cap

    def _sleep(self, request: GenerationRequest) -> None:
        if self.latency_ms <= 0:
            return
        delay = self.latency_ms
        if self.latency_jitter > 0:
            state = fnv1a64(u64_bytes(request.request_seed))
            key = fnv1a64(request.prompt.encode("utf-8"), state)
            unit = key / 2**64  # [0, 1)
            delay *= 1.0 + self.latency_jitter * (2.0 * unit - 1.0)
        time.sleep(delay / 1000.0)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        start = time.monotonic()
        self._sleep(request)
        completions = []
        if self.fixed_text is not None:
            completions = [Completion(text=self.fixed_text, finish_reason="stop")
                           for _ in range(request.n_samples)]
        else:
            # hash the prompt once per request; per-sample keys extend the state
            state = _prompt_state(request.request_seed, request.prompt)
            for i in range(request.n_samples):
                key = fnv1a64(u64_bytes(i), state)
                completions.append(Completion(
                    text=_words_from_key(key, request.max_tokens, self.vocab),
                    finish_reason="stop"))
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=tuple(completions), latency_ms=elapsed)


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


# --- OpenAI-compatible HTTP backends ----------------------------------------

def _require(value: str | None, env_name: str, what: str) -> str:
    if value:
        return value
    env_value = os.environ.get(env_name)
    if env_value:
        return env_value
    raise ConfigError(f"{what} is not configured: set {env_name} or pass it explicitly")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


class _HttpBase:
    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = DEFAULT_TIMEOUT,
                 max_retries: int = DEFAULT_RETRIES, backoff_base: float = DEFAULT_BACKOFF,
                 session: requests.Session | None = None):
        self.base_url = _require(base_url, API_BASE_ENV, "API base URL").rstrip("/")
        self.api_key = _require(api_key, API_KEY_ENV, "API key")
        self.model = _require(model, MODEL_ENV, "model name")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        # sessions are not safe to share across threads; keep one per thread
        # unless the caller supplies one explicitly (tests)
        self._shared_session = session
        self._local = threading.local()

    def _session(self) -> requests.Session:
        if self._shared_session is not None:
            return self._shared_session
        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        return self._local.session

    def _item_problem(self, item) -> str | None:
        """Why one reply item is unusable, or None; subclasses check their fields."""
        if not isinstance(item, dict):
            return f"not an object: {item!r:.80}"
        index = item.get("index", 0)
        if not isinstance(index, int) or isinstance(index, bool):
            return f"'index' is not an integer: {index!r:.80}"
        return None

    def _batch_problem(self, items: list[dict]) -> str | None:
        """Why a reply of well-formed items is unusable as a whole, or None.
        Its ``index`` values must be all absent or 0..n-1 in some order."""
        indices = [item["index"] for item in items if "index" in item]
        if indices and sorted(indices) != list(range(len(items))):
            return (f"'index' values are not a permutation of 0..{len(items) - 1}: "
                    f"{indices!r:.80}")
        return None

    def _post(self, path: str, payload: dict, key: str, expected: int) -> list[dict]:
        """POST ``payload`` and return the reply's ``key`` items in index order.

        A transport failure, a 429 or 5xx status, a non-JSON body, a reply
        without exactly ``expected`` items, an item that ``_item_problem``
        rejects and a reply that ``_batch_problem`` rejects are all retried
        with backoff.
        """
        url = f"{self.base_url}/{path.lstrip('/')}"
        headers = {"Authorization": f"Bearer {self.api_key}",
                   "Content-Type": "application/json"}
        last_exc: Exception | None = None
        for attempt in range(1, self.max_retries + 1):
            try:
                resp = self._session().post(url, json=payload, headers=headers,
                                            timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_exc = BackendError(f"transport failure calling {url}: {exc}",
                                        attempts=attempt)
            else:
                if 200 <= resp.status_code < 300:
                    try:
                        body = resp.json()
                    except ValueError as exc:  # requests.JSONDecodeError
                        last_exc = BackendError(f"non-JSON response body from {url}: {exc}",
                                                attempts=attempt)
                    else:
                        items = body.get(key) if isinstance(body, dict) else None
                        if not isinstance(items, list) or len(items) != expected:
                            last_exc = BackendError(
                                f"expected {expected} {key!r} items from {url}, got "
                                f"{len(items) if isinstance(items, list) else 'none'}",
                                attempts=attempt)
                        else:
                            problems = [p for p in map(self._item_problem, items) if p]
                            if problems:
                                last_exc = BackendError(f"malformed {key!r} item from {url}: "
                                                        f"{problems[0]}", attempts=attempt)
                            elif problem := self._batch_problem(items):
                                last_exc = BackendError(f"malformed {key!r} reply from {url}: "
                                                        f"{problem}", attempts=attempt)
                            else:
                                return sorted(items, key=lambda item: item.get("index", 0))
                else:
                    last_exc = StatusError(resp.status_code, resp.text, attempts=attempt)
                    if resp.status_code < 500 and resp.status_code != 429:
                        raise last_exc  # client errors are not retryable
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
        raise last_exc  # type: ignore[misc]


class HttpTextBackend(_HttpBase, GenerationBackend):
    """OpenAI-compatible /completions client (prompt mode; prompts arrive
    pre-rendered). Each request is one call that sends the native ``n`` and
    forwards ``request_seed`` as the API ``seed``; only the mock guarantees
    determinism.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.backend_id = f"http:{self.model}"

    def _item_problem(self, item) -> str | None:
        problem = super()._item_problem(item)
        if problem is None and not isinstance(item.get("text"), str):
            problem = f"'text' is not a string: {item.get('text')!r:.80}"
        return problem

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        start = time.monotonic()
        payload: dict = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "n": request.n_samples,
            "seed": request.request_seed,
        }
        if request.stop:
            payload["stop"] = list(request.stop)
        choices = self._post("completions", payload, "choices", request.n_samples)
        completions = tuple(Completion(text=c["text"],
                                       finish_reason=str(c.get("finish_reason") or "stop"))
                            for c in choices)
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=completions, latency_ms=elapsed)


class HttpEmbedder(_HttpBase, EmbeddingBackend):
    """OpenAI-compatible /embeddings client."""

    def _item_problem(self, item) -> str | None:
        problem = super()._item_problem(item)
        if problem is None:
            embedding = item.get("embedding")
            if not isinstance(embedding, list) or not embedding:
                problem = f"'embedding' is not a non-empty list: {embedding!r:.80}"
            elif not all(map(_is_finite_number, embedding)):
                problem = "'embedding' holds a value that is not a finite number"
        return problem

    def _batch_problem(self, items: list[dict]) -> str | None:
        dims = sorted({len(item["embedding"]) for item in items})
        if len(dims) > 1:
            return f"embedding dimensions differ within the batch: {dims}"
        return super()._batch_problem(items)

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ConfigError("embed() needs at least one text")
        data = self._post("embeddings", {"model": self.model, "input": list(texts)},
                          "data", len(texts))
        return [EmbeddingVector(values=tuple(float(v) for v in d["embedding"]))
                for d in data]
