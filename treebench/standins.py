"""Stand-in backends for the CPU-bound workloads.

The shipped mocks spend their time in pure-Python per-token (splitmix) and
per-byte (FNV-1a) loops: on a 32x8x8x8 tree they took 81% of the thread CPU,
which hid the pipeline under test. These stand-ins keep their contract
(deterministic, keyed by seed + prompt + sample index, or by text; words from
``MOCK_VOCAB``; exactly ``max_tokens`` words per text) at a fraction of the
cost, so that the pipeline's own work dominates a job:

- a text is a window of ``max_tokens`` words cut out of one fixed
  pseudo-random ``WordCorpus`` at an offset keyed by blake2b, so drawing it is
  one string slice;
- ``BagOfWordsEmbedder`` builds the vector of every window of each text
  length up front, and the generator hands it each window as it draws it,
  so no text is tokenised when it is embedded;
- ``SignVectorEmbedder`` builds each 1024-float vector with one struct unpack.

Memory they hold, all of it allocated before the first backend call: the
corpus (32768 words, about 0.3 MB with its offsets), the window vectors
(4,096 per text length, about 3 MB each: 9 MB for the three lengths of
balance-shortfall), and the vectors of the texts generated and not yet embedded (the
pools in flight, tens of entries).
"""

from __future__ import annotations

import hashlib
import struct
import time
from array import array
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Iterable, Sequence

from treegen.backends import (MOCK_VOCAB, Completion, EmbeddingBackend,
                              EmbeddingVector, GenerationBackend,
                              GenerationRequest, GenerationResult, MockEmbedder)

# byte -> word; 256 is not a multiple of 72, so the first 40 words are drawn
# slightly more often, which is harmless for a stand-in
_WORD_FOR_BYTE = tuple(MOCK_VOCAB[b % len(MOCK_VOCAB)] for b in range(256))
CORPUS_WORDS = 1 << 15
BOW_DIM = 16  # MockEmbedder's default: long texts become near-duplicates
SIGN_DIM = 1024
# Texts start on every WINDOW_STRIDE-th corpus word: 4,096 distinct texts of
# each length, few enough that their vectors can all be built up front.
WINDOW_STRIDE = 8


def _u64(value: int) -> bytes:
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")


class WordCorpus:
    """A fixed text of ``CORPUS_WORDS`` words, one shake-128 byte per word."""

    def __init__(self):
        self.codes = hashlib.shake_128(b"treebench word corpus").digest(CORPUS_WORDS)
        tokens = [_WORD_FOR_BYTE[b] for b in self.codes]
        self.text = " ".join(tokens)
        self.starts = array("I", accumulate((len(t) + 1 for t in tokens), initial=0))

    def __len__(self) -> int:
        return len(self.codes)


class StandinTextBackend(GenerationBackend):
    """Sample ``i`` is the corpus window that starts at word
    ``WINDOW_STRIDE * (k mod windows)``, where ``k`` is the ``i``-th u64 of
    shake-128(blake2b(prompt, salted with the seed)).

    ``first_call`` is the monotonic time of the first ``generate`` call; the
    benchmark takes it as the end of a job's set-up. Given a
    ``BagOfWordsEmbedder``, each text is embedded as it is drawn, and the
    embedder hands the vector out when asked.
    """

    backend_id = "standin"

    def __init__(self, corpus: WordCorpus, embedder: "BagOfWordsEmbedder | None" = None):
        self.corpus = corpus
        self.embedder = embedder
        self.first_call: float | None = None

    def generate(self, request: GenerationRequest) -> GenerationResult:
        if self.first_call is None:
            self.first_call = time.monotonic()
        self.check_request(request)
        start = time.monotonic()
        key = hashlib.blake2b(digest_size=16, salt=_u64(request.request_seed))
        prompt = request.prompt.encode("utf-8")
        # hashlib releases the GIL for inputs of 2048 bytes or more, which
        # hands the CPU to another worker mid-sample; smaller pieces do not
        for i in range(0, len(prompt), 2047):
            key.update(prompt[i:i + 2047])
        n = request.n_samples
        keys = struct.unpack(f">{n}Q", hashlib.shake_128(key.digest()).digest(8 * n))
        count = min(request.max_tokens, len(self.corpus))
        windows = (len(self.corpus) - count) // WINDOW_STRIDE + 1
        firsts = [k % windows * WINDOW_STRIDE for k in keys]
        text, starts = self.corpus.text, self.corpus.starts
        texts = [text[starts[f]:starts[f + count] - 1] for f in firsts]
        if self.embedder is not None:
            self.embedder.prepare(texts, firsts, count)
        completions = tuple(map(Completion, texts, repeat("stop")))
        elapsed = (time.monotonic() - start) * 1000.0
        return GenerationResult(completions=completions, latency_ms=elapsed)


class BagOfWordsEmbedder(EmbeddingBackend):
    """The shipped ``MockEmbedder`` at d=``BOW_DIM``, with equal results.

    The vector of every corpus window of each text length the tree asks for
    is computed up front, so ``prepare`` only looks windows up; ``embed``
    hands those vectors out and passes any other text to the
    ``MockEmbedder`` it holds. ``pending()`` counts the prepared vectors not
    yet handed out: the benchmark fails a job that ends with any, because each
    one would be a text embedded the slow way and a vector kept for the whole
    job.
    """

    def __init__(self, corpus: WordCorpus, lengths: Iterable[int]):
        self._mock = MockEmbedder(BOW_DIM)
        self._prepared: dict[int, tuple[str, EmbeddingVector]] = {}
        # prefixes[k][w]: how many of the corpus' first w words fall in bucket k
        buckets = corpus.codes.translate(bytes(self._mock._bucket(w) for w in _WORD_FOR_BYTE))
        prefixes = [array("I", accumulate(buckets.translate(bytes(int(b == k) for b in range(256))),
                                          initial=0))
                    for k in range(BOW_DIM)]
        # _windows[n][i] is the vector of the n words from word i * WINDOW_STRIDE on
        self._windows: dict[int, list[EmbeddingVector]] = {}
        for n in set(lengths):
            columns = [map(sub, p[n::WINDOW_STRIDE], p[:len(p) - n:WINDOW_STRIDE])
                       for p in prefixes]
            vectors = self._windows[n] = []
            for counts in zip(*columns):
                norm = sum(map(mul, counts, counts)) ** 0.5  # as MockEmbedder computes it
                vectors.append(EmbeddingVector(tuple(map(norm.__rtruediv__, counts))))

    def prepare(self, texts: Sequence[str], firsts: Sequence[int], count: int) -> None:
        """Look up the vectors of corpus windows ``[first, first + count)``
        ahead of ``embed``.

        Entries are keyed by the text object's identity (hashing a 3 kB text
        would cost as much as embedding it) and removed when handed out.
        """
        vectors, prepared = self._windows[count], self._prepared
        for text, first in zip(texts, firsts):
            prepared[id(text)] = (text, vectors[first // WINDOW_STRIDE])

    def pending(self) -> int:
        return len(self._prepared)

    def _embed_one(self, text: str) -> EmbeddingVector:
        prepared = self._prepared.pop(id(text), None)
        if prepared is not None and prepared[0] is text:
            return prepared[1]
        return self._mock.embed_one(text)

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self._embed_one(t) for t in texts]


class SignVectorEmbedder(EmbeddingBackend):
    """Unit vectors of components +-1/sqrt(SIGN_DIM), signs keyed by the text.

    At d=1024 two texts' cosine has a standard deviation of 1/32, so the
    near-duplicate cutoff keeps every candidate and the selection cost is all
    arithmetic at a real embedding width.
    """

    def __init__(self):
        self._format = f"<{SIGN_DIM}d"
        magnitude = struct.pack("<d", SIGN_DIM ** -0.5)
        self._template = magnitude * SIGN_DIM
        # a key byte's low bit picks the sign byte (the top byte of a double)
        self._sign_byte = bytes(magnitude[7] | (b & 1) << 7 for b in range(256))

    def _embed_one(self, text: str) -> EmbeddingVector:
        key = hashlib.blake2b(text.encode("utf-8")).digest()
        doubles = bytearray(self._template)
        doubles[7::8] = hashlib.shake_128(key).digest(SIGN_DIM).translate(self._sign_byte)
        return EmbeddingVector(values=struct.unpack(self._format, doubles))

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self._embed_one(t) for t in texts]
