"""Cross-version check of the selection arithmetic and of a run's bytes.

    python tests/crossver_check.py

Needs nothing but the standard library, this checkout's ``src/`` and
``tests/reference.py``, so any Python >= 3.10 runs it. It checks, bit for bit
(``float.hex``), that ``dedup._dots``, ``dedup._finite_roots``, a pool's
relevance, every ``pool_score`` and the near-duplicate filter's kept picks
equal ``reference.py``'s, which sums each dot product sequentially, in index
order, on seeded pools at d = 1, 3, 16 and 1024. ``sum()`` of floats is
compensated from Python 3.12 on, so a kernel built on it passes under 3.10
and 3.11 and fails here under 3.12 and later.

It checks that ``tree.json_escape`` and ``tree.block_line`` write what the
json module writes on strings that take each of their branches: the json
module's C escapers are not the same code in every version.

It then grows a small tree whose long answers near-duplicate one another
under the mock embedder (so its expansions drop candidates and retry), and
exports it with the G-Turn policy. It prints one sha256 of every checked
arithmetic value and one of every checked JSON text, then the run's counts
and the sha256 of ``nodes.jsonl`` and of the export. Its stdout is the same
under every interpreter; ``tests/test_crossver.py`` compares it across
interpreters. Exits 1, naming the first difference, when a check fails.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treegen.backends import EmbeddingVector, MockEmbedder, MockTextBackend  # noqa: E402
from treegen.corpus import build_corpus, export_sharegpt, gaussian_turn_policy  # noqa: E402
from treegen.dedup import (_dots, _finite_roots, mmr_select,  # noqa: E402
                           near_duplicate_filter)
from treegen.scheduler import NODES_FILE, CheckpointStore, TreeRunner  # noqa: E402
from treegen.tree import (GenMeta, Role, TreeNode, block_line, config_from_dict,  # noqa: E402
                          json_escape, node_to_record)

from reference import cosine, dedup_filter, dot, mmr  # noqa: E402

DIMENSIONS = (1, 3, 16, 1024)
POOL_SIZES = (1, 2, 3, 4, 5, 6, 7, 9)  # every remainder of _dots' four-row passes
LAMBDA = 0.5


# strings that take each branch of json_escape: clean and dirty, ASCII and
# not, U+007F, line separators, non-BMP characters and lone surrogates
JSON_TEXTS = ("", "plain ascii text", "\x7f", "ascii with a DEL \x7f inside", "a DEL \x7f\n",
              "caf\u00e9", "\u6f22\u5b57 \U0001f600", "a line\u2028separator\u2029", "\ud800",
              "a\udfffb", 'a "quoted" word', "a \\ backslash", "two\nlines", "a\ttab",
              "".join(map(chr, range(0x20))), "\x1f\u00e9", "\u00e9\n\ud83d",
              "".join(map(chr, range(0x7f, 0x800))), "x" * 5000 + '"')


class Checker:
    def __init__(self):
        self.digest = hashlib.sha256()

    def same(self, what: str, got, want) -> None:
        """``got`` and ``want``, lists of floats or ints, must be equal bit for bit."""
        hexed, wanted = ([x.hex() if isinstance(x, float) else str(x) for x in values]
                         for values in (got, want))
        if hexed != wanted:
            sys.exit(f"FAIL {what}: got {hexed}, want {wanted}")
        self.digest.update(f"{what}:{','.join(hexed)};".encode("utf-8", "surrogatepass"))


def check_arithmetic(check: Checker) -> None:
    rng = random.Random(20240617)
    for dim in DIMENSIONS:
        for size in POOL_SIZES:
            where = f"d={dim} n={size}"
            query = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            # every other pool leans on one direction, so cosines crowd a cutoff
            lean = [rng.gauss(0.0, 1.0) for _ in range(dim)] if size % 2 else [0.0] * dim
            pool = [[rng.gauss(0.0, 1.0) + 3.0 * x for x in lean] for _ in range(size)]
            check.same(f"{where} _dots", _dots(query, pool), [dot(query, v) for v in pool])
            check.same(f"{where} _finite_roots", _finite_roots(pool),
                       [dot(v, v) ** 0.5 for v in pool])
            vectors = [EmbeddingVector(tuple(v)) for v in pool]
            k = max(1, size // 2)
            selection = mmr_select(vectors, EmbeddingVector(tuple(query)), k, LAMBDA)
            check.same(f"{where} relevance", selection.similarity.relevance,
                       [cosine(query, v) for v in pool])
            picks, _, scores = mmr(pool, query, k, LAMBDA)
            check.same(f"{where} picks", selection.selected, picks)
            check.same(f"{where} pool_score",
                       [selection.pool_score(i) for i in range(size)], scores)
            for threshold in (0.3, 0.9):
                fresh = mmr_select(vectors, EmbeddingVector(tuple(query)), k, LAMBDA)
                kept = near_duplicate_filter(vectors, fresh, threshold).selected
                check.same(f"{where} kept at {threshold}", kept,
                           dedup_filter(pool, picks, scores, threshold)[0])


def check_json_text(check: Checker) -> None:
    for n, text in enumerate(JSON_TEXTS):
        check.same(f"json_escape {n}", [json_escape(text)],
                   [json.dumps(text, ensure_ascii=False)[1:-1]])
    nodes = [TreeNode(f"0.{rank}", text, rank, Role.ANSWER, text,
                      gen_meta=None if rank % 3 == 0 else GenMeta(text, text[::-1], -rank))
             for rank, text in enumerate(JSON_TEXTS)]
    for parent_id in JSON_TEXTS:
        record = {"parent_id": parent_id, "children": list(map(node_to_record, nodes))}
        check.same(f"block_line {parent_id!r:.20}", [block_line(parent_id, nodes)],
                   [json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"])


# long answers look alike to the mock's 16-dimensional embedder
CONFIG = {
    "mode": "sft", "system_prompt": "You are a helpful assistant.", "seed": 7,
    "layers": [{"branching": 4, "max_tokens": 8}, {"branching": 3, "max_tokens": 200},
               {"branching": 2, "max_tokens": 8}, {"branching": 2, "max_tokens": 300}],
}


def run_digests() -> list[str]:
    config = config_from_dict(CONFIG)
    with tempfile.TemporaryDirectory() as work:
        store = CheckpointStore(Path(work) / "tree")
        tree = TreeRunner(config, MockTextBackend(), MockEmbedder(), store, workers=2).run()
        manifest = store.manifest
        records = build_corpus(tree, gaussian_turn_policy(sample_seed=0, turn_counts=(1, 2)))
        export = export_sharegpt(records, Path(work) / "gturn.json")
        return [f"leaves {manifest['leaf_count']} of {manifest['expected_leaves']}, "
                f"dedup_drops {manifest['dedup_drops']}, retries {manifest['retries']}",
                "nodes.jsonl sha256 "
                + hashlib.sha256((store.directory / NODES_FILE).read_bytes()).hexdigest(),
                "gturn export sha256 " + hashlib.sha256(export.read_bytes()).hexdigest()]


def main() -> None:
    check = Checker()
    check_arithmetic(check)
    print("arithmetic sha256 " + check.digest.hexdigest())
    check = Checker()
    check_json_text(check)
    print("json text sha256 " + check.digest.hexdigest())
    for line in run_digests():
        print(line)


if __name__ == "__main__":
    main()
