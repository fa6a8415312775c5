"""Byte-for-byte guard on what the CLI writes for the demo corpus.

Each case reruns one command over demo/ in a fresh directory and compares
every file it writes (network, evidence, keywords, cache journal) with
tests/golden/<case>/. Timestamps (generated_at in the JSON network,
fetched_at in the cache journal) are masked on both sides. The run report
and the budget sidecar are left out: the report's keys may grow and the
sidecar holds today's date; tests/test_cli.py pins the counts in both.

To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
import tempfile
from pathlib import Path

import pytest

from conftest import mask_timestamps
from snippetnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = Path(__file__).resolve().parent / "golden"

_DEMO_INPUTS = ["--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl")]

# case name -> (argv after the input flags, output file name)
CASES = {
    "sr-json": (["extract", "--threshold", "0.2", "--dump-evidence", "--format", "json"], "network.json"),
    "sr-dot": (["extract", "--threshold", "0.2", "--dump-evidence", "--format", "dot"], "network.dot"),
    "sr-graphml": (["extract", "--threshold", "0.2", "--dump-evidence", "--format", "graphml"], "network.graphml"),
    "srwk-json": (
        ["extract", "--threshold", "0.2", "--dump-evidence", "--variant", "srwk", "--format", "json"],
        "network.json",
    ),
    "keywords": (["keywords", "--top-k", "3"], "keywords.json"),
}


def run_case(case: str, workdir: Path) -> dict:
    """Run one case in workdir; returns {file name: masked text} of what it wrote."""
    command, out_name = CASES[case]
    argv = command[:1] + _DEMO_INPUTS + command[1:] + [
        "--cache", str(workdir / "cache.json"), "--out", str(workdir / out_name),
    ]
    assert main(argv) == 0
    return {
        path.name: mask_timestamps(path.read_text(encoding="utf-8"))
        for path in sorted(workdir.iterdir())
        if not path.name.endswith((".report.json", ".ledger"))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_demo_outputs_match_golden(case, tmp_path):
    written = run_case(case, tmp_path)
    expected_dir = GOLDEN / case
    expected = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(expected_dir.iterdir())
    }
    assert sorted(written) == sorted(expected)
    for name, text in expected.items():
        assert written[name] == text, f"{case}/{name} differs from the golden file"


def regenerate() -> None:
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            written = run_case(case, Path(scratch))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for name, text in written.items():
            (target / name).write_text(text, encoding="utf-8")
        print(f"wrote {target}: {', '.join(sorted(written))}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
