"""The README's "Library use" block runs as written, and names the whole public API."""

import ast
import re
from pathlib import Path

import snippetnet

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("graph snippetnet {")


def test_public_api_is_the_library_use_imports():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "snippetnet"
        for alias in node.names
    ]
    assert sorted(snippetnet.__all__) == sorted(imported + ["SnippetNetError"])
