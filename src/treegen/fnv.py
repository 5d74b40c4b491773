"""FNV-1a 64-bit hashing, the deterministic keying primitive used throughout.

Config hashes, mock-backend text keys, and expansion request seeds all reduce
to FNV-1a over a canonical byte encoding: UTF-8 for text, big-endian u64 for
integers. Keeping one primitive here means every derived value is reproducible
across processes and machines.
"""

from __future__ import annotations

from typing import Iterator

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
U64_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes, state: int = FNV_OFFSET) -> int:
    """Fold ``data`` into a running FNV-1a state (streaming-composable)."""
    h = state
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & U64_MASK
    return h


def u64_bytes(value: int) -> bytes:
    return (value & U64_MASK).to_bytes(8, "big")


def hash_text(text: str) -> int:
    return fnv1a64(text.encode("utf-8"))


def combine(*parts: int | str) -> int:
    """FNV-1a of the concatenated canonical encodings of ``parts``."""
    h = FNV_OFFSET
    for part in parts:
        if isinstance(part, str):
            h = fnv1a64(part.encode("utf-8"), h)
        else:
            h = fnv1a64(u64_bytes(part), h)
    return h


def splitmix64(seed: int) -> Iterator[int]:
    """Infinite deterministic u64 stream seeded by ``seed``."""
    state = seed & U64_MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & U64_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64_MASK
        yield z ^ (z >> 31)
