"""Compare, file by file, what two source trees write for the same commands.

Usage:
    python tests/bytes_check.py OLD_TREE NEW_TREE [--input INPUT ...] [--expect-diff GLOB ...]

Each tree is a checkout that holds src/snippetnet. An input is ``demo``
(demo/actors.txt and demo/corpus.jsonl) or ``WORKLOAD:SEED``, the actors
and corpus that perfbench/corpusgen.py generates for that benchmark
workload's shape and seed (``cold-wide:3``); the default is ``demo``. On
every input each tree runs, each command in a fresh directory with a fresh
cache:

- ``extract --threshold 0 --dump-evidence`` at ``--variant`` sr and srwk, in
  every ``--format``;
- ``keywords``.

Every file a command leaves (output, evidence, report, cache journal,
ledger) is read with its timestamps masked by the test suite's pattern and
compared with the other tree's; so are the exit code and console output,
as the file ``console``. One JSON line is printed per file:
``{"input", "file", "equal", "expected"}``, where file is
``<command>/<name>`` and expected tells whether an ``--expect-diff`` glob
(fnmatch, on that name) names it. A file that differs also gets
``first_difference``: the first line that differs and, in a JSON network,
the first edge pair and key that differ, or the tree it is ``only_in``.
Exits 1 when a file differs, or is left by one tree only, and no glob
names it; 0 otherwise. pytest does not collect this file;
tests/test_bytes_check.py runs it.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from corpusdata import mask_timestamps

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "dot", "graphml")

# command name -> snippetnet arguments after the input flags
COMMANDS = {
    **{
        f"{variant}-{fmt}": ["extract", "--threshold", "0", "--dump-evidence", "--variant", variant,
                             "--format", fmt, "--out", f"network.{fmt}"]
        for variant in ("sr", "srwk")
        for fmt in FORMATS
    },
    "keywords": ["keywords", "--out", "keywords.json"],
}


def inputs_for(name: str, workdir: Path) -> tuple[Path, Path]:
    """(actors, corpus) of one input, generated under workdir when it is a workload."""
    if name == "demo":
        return ROOT / "demo" / "actors.txt", ROOT / "demo" / "corpus.jsonl"
    workload, _, seed = name.partition(":")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpusgen
    from run import WORKLOADS

    if workload not in WORKLOADS or not seed.isdigit():
        raise SystemExit(f"bytes_check: unknown input {name!r}; expected demo or WORKLOAD:SEED, "
                         f"WORKLOAD one of {sorted(WORKLOADS)}")
    return corpusgen.write(corpusgen.generate(WORKLOADS[workload].shape, int(seed)), workdir / name)


def run_tree(tree: Path, actors: Path, corpus: Path, workdir: Path) -> dict:
    """{"<command>/<file>": masked text} of every command run with tree's source."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    written = {}
    for command, argv in COMMANDS.items():
        cwd = workdir / command
        cwd.mkdir(parents=True)
        result = subprocess.run(
            [sys.executable, "-m", "snippetnet.cli", argv[0], "--actors", str(actors), "--corpus", str(corpus),
             "--cache", "cache.json", *argv[1:]],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        written[f"{command}/console"] = f"exit {result.returncode}\n{result.stdout}{result.stderr}"
        for path in sorted(cwd.iterdir()):
            written[f"{command}/{path.name}"] = mask_timestamps(path.read_text(encoding="utf-8", errors="replace"))
    return written


def first_difference(file: str, old: str | None, new: str | None) -> dict:
    """Where two texts of one file part: the first line, and for a JSON network the first edge pair and key."""
    if old is None or new is None:
        return {"only_in": "new" if old is None else "old"}
    old_lines, new_lines = old.splitlines(), new.splitlines()
    where = {"line": next((number for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1) if a != b),
                          min(len(old_lines), len(new_lines)) + 1)}
    if file.endswith("/network.json"):
        try:
            old_edges, new_edges = ({tuple(edge["pair"]): edge for edge in json.loads(text)["edges"]}
                                    for text in (old, new))
        except (KeyError, TypeError, ValueError):  # not a network: the line says enough
            return where
        for pair in sorted(old_edges.keys() | new_edges.keys()):
            a, b = old_edges.get(pair, {}), new_edges.get(pair, {})
            if a != b:
                where["pair"] = list(pair)
                where["key"] = next(key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key))
                break
    return where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree that holds src/snippetnet")
    parser.add_argument("new", type=Path, help="source tree that holds src/snippetnet")
    parser.add_argument("--input", action="append", dest="inputs",
                        help="demo, or WORKLOAD:SEED (repeatable; default demo)")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                        help="a <command>/<file> name allowed to differ (repeatable)")
    args = parser.parse_args(argv)
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="bytes_check-") as scratch:
        scratch = Path(scratch)
        for name in args.inputs or ["demo"]:
            actors, corpus = inputs_for(name, scratch / "inputs")
            old = run_tree(args.old.resolve(), actors, corpus, scratch / name / "old")
            new = run_tree(args.new.resolve(), actors, corpus, scratch / name / "new")
            for file in sorted(old.keys() | new.keys()):
                equal = old.get(file) == new.get(file)
                expected = any(fnmatch.fnmatchcase(file, glob) for glob in args.expect_diff)
                unexpected += not equal and not expected
                line = {"input": name, "file": file, "equal": equal, "expected": expected}
                if not equal:
                    line["first_difference"] = first_difference(file, old.get(file), new.get(file))
                print(json.dumps(line))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
