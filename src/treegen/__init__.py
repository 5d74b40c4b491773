"""treegen: dialogue-tree corpus synthesis.

Expands a prompt tree against a pluggable text-generation backend, keeps
sibling candidates diverse with MMR plus a near-duplicate cutoff, and exports
the root-to-leaf paths as conversation (SFT) or plain continuation (PT)
training corpora. Runs are checkpointed, resumable, and — under the mock
backend — byte-deterministic regardless of worker count.

The names below are the library API that README's "Library use" shows; every
other name is imported from its submodule.
"""

from .backends import MockEmbedder, MockTextBackend
from .corpus import build_corpus, export_sharegpt
from .scheduler import CheckpointStore, TreeRunner
from .tree import load_config

__version__ = "0.1.0"
