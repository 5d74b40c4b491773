"""The benchmark's trace hooks still find what they patch.

``treebench/tracing.py`` wraps treegen's functions and methods by name, and
its span attributes read the arguments and results of the calls it wraps. A
rename or a changed signature would only show as a crashed ``--trace 1`` run,
so this grows one small tree and exports it under the hooks. The patches are
process-global, so it runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from treegen.tree import config_to_dict

from conftest import sft_config

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
from pathlib import Path
import tracing
from treegen import corpus
from treegen.backends import MockEmbedder, MockTextBackend
from treegen.corpus import TurnPolicy
from treegen.scheduler import CheckpointStore, TreeRunner
from treegen.tree import config_from_dict

config = config_from_dict(json.loads(sys.argv[1]))
tracer = tracing.Tracer()
generator, embedder = MockTextBackend(), MockEmbedder()
tracing.install(tracer, generator, embedder)
TreeRunner(config, generator, embedder, CheckpointStore(sys.argv[2]), workers=2).run()
store = CheckpointStore(sys.argv[2])
tree = store.load(config)
store.close()
# the export phase as the benchmark's job runs it
out = Path(sys.argv[3])
corpus.export_sharegpt(corpus.build_corpus(tree), out / "corpus.json")
corpus.export_jsonl(corpus.build_corpus(tree, TurnPolicy.fixed(1)), out / "turn1.jsonl")
spans = [span.to_dict() for span in tracer.spans]
print(json.dumps({"names": sorted({s["name"] for s in spans}),
                  "metrics": tracing.summarize(spans, workers=2, phase_wall=1.0)}))
"""


def test_trace_hooks_record_every_layer(tmp_path):
    config = sft_config([4, 2], dedup_threshold=0.95)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "treebench"),
                                                      str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(config_to_dict(config)),
         str(tmp_path / "tree"), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=120).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert {"dedup.mmr", "dedup.dupfilter", "scheduler.expand", "scheduler.commit",
            "templates.render", "templates.strip", "backends.generate", "backends.embed",
            "store.append", "store.manifest", "store.load", "corpus.build", "corpus.write",
            "tree.leaf_paths"} <= set(result["names"])
    metrics = result["metrics"]
    # the spans' attributes read the wrapped calls' arguments and results
    assert metrics["dedup.pool_mean"] > 0
    assert 0 < metrics["dedup.keep_ratio"] <= 1
    assert metrics["scheduler.expansions"] == 1 + 4
    # each hook still wraps a name the program calls: a renamed or bypassed
    # one would read 0, not fail
    assert metrics["store.append.calls"] == metrics["scheduler.expansions"]
    assert metrics["store.manifest.writes"] == 2  # the session's start and end
    assert metrics["scheduler.writer.wait_s"] > 0
    assert metrics["templates.strip.calls"] == metrics["backends.generate.samples"] > 0
    assert metrics["store.load.records"] == 1 + 4 + 8
    assert metrics["corpus.records"] == 8 + 8  # depth 2: one turn is the full depth
    assert metrics["corpus.bytes"] == sum((tmp_path / name).stat().st_size
                                          for name in ("corpus.json", "turn1.jsonl"))
