"""Print each function-body statement of src/treegen that no shipped workflow runs.

Traced in process (``sys.settrace``, ``threading.settrace``): ``validate`` of
every config; mock ``generate`` of three configs and of one whose long answers
fall short, so the near-duplicate filter backfills; a ``--resume`` of a cut
nodes.jsonl; an HTTP ``generate`` through ``treebench/stub_server.py``; seven
exports; two ``stats``. Run: ``python tests/reach.py`` (stdlib only).
"""

import ast, contextlib, io, json, logging, os, shutil, subprocess, sys, tempfile, threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE, CONFIGS = ROOT / "src" / "treegen", ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))
from treegen.cli import main  # noqa: E402

reached: set[tuple[str, int]] = set()


def trace(frame, event, arg):  # line events inside the package only
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if main([str(arg) for arg in argv]) != 0:
            raise SystemExit(f"workflow failed: treegen {' '.join(map(str, argv))}")


def workflows(tmp: Path, base_url: str) -> None:
    for config in sorted(CONFIGS.glob("*.json")):
        run("validate", "--config", config)
    short = json.loads((CONFIGS / "balance_8x4x2x2.json").read_text())
    for layer in short["layers"][1::2]:
        layer["max_tokens"] = 512  # long answers look alike to the mock embedder
    (tmp / "short.json").write_text(json.dumps(short))
    for name, config in (("sft", CONFIGS / "balance_8x4x2x2.json"), ("short", tmp / "short.json"),
                         ("wide", CONFIGS / "wide_64x1x1x1.json"),
                         ("pt", CONFIGS / "pt_world_knowledge.json")):
        run("generate", "--config", config, "--out", tmp / name, "--workers", "2")
    shutil.copytree(tmp / "sft", tmp / "cut")
    nodes = tmp / "cut" / "nodes.jsonl"
    nodes.write_bytes(nodes.read_bytes()[:nodes.stat().st_size // 2])
    run("generate", "--config", CONFIGS / "balance_8x4x2x2.json", "--out", tmp / "cut", "--resume")
    run("generate", "--config", CONFIGS / "wide_64x1x1x1.json", "--out", tmp / "http",
        "--backend", "http", "--base-url", base_url, "--model", "stub")
    for tree, out, *flags in (
            ("sft", "a.json", "sharegpt"), ("sft", "b.jsonl", "jsonl"), ("pt", "f.jsonl", "pt"),
            ("sft", "c.jsonl", "jsonl", "--turn-policy", "gturn"), ("http", "g.jsonl", "jsonl"),
            ("sft", "d.json", "sharegpt", "--turn-policy", "fixed:1", "--inline-system"),
            ("sft", "e.jsonl", "jsonl", "--target-size", "5")):
        run("export", "--tree", tmp / tree, "--out", tmp / out, "--format", *flags)
    for out in ("a.json", "c.jsonl"):
        run("stats", "--corpus", tmp / out)


def statements(path: Path) -> dict[int, range]:
    spans = {}  # a body statement's first line -> its lines (a compound one's header only)
    for function in ast.walk(ast.parse(path.read_text())):
        for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
            if isinstance(node, ast.stmt) and node is not function and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                spans[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return spans


if __name__ == "__main__":
    stub = subprocess.Popen([sys.executable, ROOT / "treebench" / "stub_server.py"],
                            stdout=subprocess.PIPE, text=True)
    os.environ.setdefault("TG_API_KEY", "reach")
    logging.disable(logging.CRITICAL)
    sys.settrace(trace), threading.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            workflows(Path(tmp), f"http://127.0.0.1:{int(stub.stdout.readline())}/v1")
    finally:
        sys.settrace(None), threading.settrace(None)
        stub.terminate(), stub.wait(timeout=10), stub.stdout.close()
    hits = totals = 0
    for path in sorted(PACKAGE.glob("*.py")):
        spans, lines = statements(path), path.read_text().splitlines()
        missed = [n for n, span in sorted(spans.items())
                  if not any((str(path), line) in reached for line in span)]
        print(*(f"{path.name}:{n}: {lines[n - 1].strip()[:80]}" for n in missed), sep="\n")
        print(f"== {path.name}: {len(spans) - len(missed)} of {len(spans)} reached\n")
        hits, totals = hits + len(spans) - len(missed), totals + len(spans)
    print(f"== src/treegen: {hits} of {totals} function-body statements reached")
