"""Shared helpers: config builders and instrumented mock backends."""

from __future__ import annotations

import threading
import time
from typing import Sequence

import pytest

from treegen.backends import MockEmbedder, MockTextBackend
from treegen.errors import BackendError
from treegen.tree import (ANSWER_TEMPERATURE, QUESTION_TEMPERATURE, LayerSpec, Mode,
                          Role, Tree, TreeConfig, TreeNode, child_id, role_for_layer)


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


class CountingBackend(MockTextBackend):
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


class FlakyBackend(MockTextBackend):
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


def build_full_tree(config) -> Tree:
    """Hand-expand a tree breadth-first with synthetic texts (no backend)."""
    tree = Tree(config)
    frontier = ["root"]
    for layer_index, layer in enumerate(config.layers, start=1):
        next_frontier = []
        for pid in frontier:
            children = [
                TreeNode(id=child_id(pid, rank), parent_id=pid, layer=layer_index,
                         role=layer.role, text=f"{layer.role.value}-{pid}-{rank}",
                         token_count=2)
                for rank in range(layer.branching)
            ]
            tree.add_children(pid, children)
            next_frontier.extend(c.id for c in children)
        frontier = next_frontier
    return tree


@pytest.fixture
def mock_backend():
    return MockTextBackend()


@pytest.fixture
def mock_embedder():
    return MockEmbedder()
