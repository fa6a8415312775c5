"""The README's "Quick start" and "Library use" blocks run as written and print
what the README shows, and the "Library use" imports name the whole public API:
the package's exports, plus the pipeline, snippetnet.cli.extract."""

import ast
import re
import shlex
import shutil
from pathlib import Path

import snippetnet
from snippetnet.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_quick_start_prints_what_the_readme_says(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    command, printed = re.findall(r"```\n(.*?)```", section, re.DOTALL)[:2]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["snippetnet", "extract"]
    shutil.copytree(ROOT / "demo", tmp_path / "demo")
    monkeypatch.chdir(tmp_path)

    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == printed
    assert printed == "wrote network.json: 2 edges over 6 actors (19 backend calls, 0 cache hits)\n"
    assert main(argv[1:]) == 0
    assert "(0 backend calls, " in capsys.readouterr().out


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("graph snippetnet {")


def test_public_api_is_the_library_use_imports():
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(_library_use_block()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    from_package = [name for module, name in imports if module == "snippetnet"]
    others = [(module, name) for module, name in imports if module != "snippetnet"]
    assert sorted(snippetnet.__all__) == sorted(from_package + ["SnippetNetError"])
    assert others == [("snippetnet.cli", "extract")]
