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


def mock_generate_text(seed: int, prompt: str, sample_index: int, max_tokens: int,
                       vocab: Sequence[str] = MOCK_VOCAB) -> str:
    """Deterministic pseudo-text keyed by FNV-1a-64 of (seed, prompt, index).

    Length is proportional to ``max_tokens`` (one vocabulary word per token).
    """
    key = fnv1a64(u64_bytes(sample_index), _prompt_state(seed, prompt))
    return _words_from_key(key, max_tokens, vocab)


class MockTextBackend(GenerationBackend):
    """Hash-keyed generator: same (seed, prompt, index) -> identical bytes.

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

    def _post(self, path: str, payload: dict) -> dict:
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
                        return resp.json()
                    except ValueError as exc:  # requests.JSONDecodeError
                        last_exc = BackendError(f"non-JSON response body from {url}: {exc}",
                                                attempts=attempt)
                else:
                    last_exc = StatusError(resp.status_code, resp.text, attempts=attempt)
                    if resp.status_code < 500 and resp.status_code != 429:
                        raise last_exc  # client errors are not retryable
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
        raise last_exc  # type: ignore[misc]


class HttpTextBackend(_HttpBase, GenerationBackend):
    """OpenAI-compatible /completions client (prompt mode; prompts arrive
    pre-rendered). ``request_seed`` is forwarded as the API seed field when
    ``forward_seed`` is set; only the mock guarantees determinism.

    Servers that reject the native ``n`` parameter can be driven with
    ``use_native_n=False``, which issues n single-sample calls whose seeds are
    derived from (request_seed, sample_index) — the observable contract is the
    same either way.
    """

    sample_cap = DEFAULT_SAMPLE_CAP

    def __init__(self, *args, forward_seed: bool = True, use_native_n: bool = True,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.forward_seed = forward_seed
        self.use_native_n = use_native_n
        self.backend_id = f"http:{self.model}"

    def _payload(self, request: GenerationRequest, n: int, seed: int) -> dict:
        payload: dict = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "n": n,
        }
        if request.stop:
            payload["stop"] = list(request.stop)
        if self.forward_seed:
            payload["seed"] = seed
        return payload

    def _choices_to_completions(self, body: dict, expected: int) -> list[Completion]:
        choices = body.get("choices", [])
        if len(choices) != expected:
            raise BackendError(
                f"backend returned {len(choices)} completions, expected {expected}")
        ordered = sorted(choices, key=lambda c: c.get("index", 0))
        return [Completion(text=str(c.get("text", "")),
                           finish_reason=str(c.get("finish_reason") or "stop"))
                for c in ordered]

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        start = time.monotonic()
        completions: list[Completion] = []
        if self.use_native_n:
            body = self._post("completions",
                              self._payload(request, request.n_samples,
                                            request.request_seed))
            completions = self._choices_to_completions(body, request.n_samples)
        else:
            for i in range(request.n_samples):
                seed = fnv1a64(u64_bytes(i), fnv1a64(u64_bytes(request.request_seed)))
                body = self._post("completions", self._payload(request, 1, seed))
                completions.extend(self._choices_to_completions(body, 1))
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=tuple(completions), latency_ms=elapsed)


class HttpEmbedder(_HttpBase, EmbeddingBackend):
    """OpenAI-compatible /embeddings client."""

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ConfigError("embed() needs at least one text")
        body = self._post("embeddings", {"model": self.model, "input": list(texts)})
        data = sorted(body.get("data", []), key=lambda d: d.get("index", 0))
        if len(data) != len(texts):
            raise BackendError(
                f"backend returned {len(data)} embeddings, expected {len(texts)}")
        vectors = [EmbeddingVector(values=tuple(float(v) for v in d["embedding"]))
                   for d in data]
        dims = {v.dim for v in vectors}
        if len(dims) > 1:
            raise BackendError(f"embedding dimensions differ within a batch: {sorted(dims)}")
        for vector in vectors:
            if not all(math.isfinite(v) for v in vector.values):
                raise BackendError("embedding contains non-finite values")
        return vectors
