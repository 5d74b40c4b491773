"""The package's public names are exactly what README's "Library use" shows,
and ``treegen.errors`` defines exactly the error types it names."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import treegen
from treegen import errors

ROOT = Path(__file__).resolve().parent.parent


def library_use_block() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the block reads configs/ relative to the repo
    code = library_use_block().replace("/tmp/", f"{tmp_path}/")
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "run" / "nodes.jsonl").is_file()
    assert (tmp_path / "corpus.json").is_file()


def test_public_names_are_the_readme_imports():
    imported = {alias.name for node in ast.walk(ast.parse(library_use_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "treegen"
                for alias in node.names}
    public = {name for name, value in vars(treegen).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported


def test_error_types_are_the_four_a_caller_branches_on():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {"TreeGenError", "ConfigError", "BackendError", "ResumableRunError"}
