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

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import mask_timestamps, read_json
from snippetnet import FixtureBackend, SearchGateway, export, load_corpus
from snippetnet.cli import extract, load_actors, main

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


def case_argv(case: str, workdir: Path) -> list:
    command, out_name = CASES[case]
    return command[:1] + _DEMO_INPUTS + command[1:] + [
        "--cache", str(workdir / "cache.json"), "--out", str(workdir / out_name),
    ]


def written_files(workdir: Path) -> dict:
    """{file name: masked text} of what a case wrote in workdir."""
    return {
        path.name: mask_timestamps(path.read_text(encoding="utf-8"))
        for path in sorted(workdir.iterdir())
        if not path.name.endswith((".report.json", ".ledger"))
    }


def run_case(case: str, workdir: Path) -> dict:
    """Run one case in workdir; returns {file name: masked text} of what it wrote."""
    assert main(case_argv(case, workdir)) == 0
    return written_files(workdir)


def assert_matches_golden(case: str, written: dict) -> None:
    expected = {
        path.name: path.read_text(encoding="utf-8") for path in sorted((GOLDEN / case).iterdir())
    }
    assert sorted(written) == sorted(expected)
    for name, text in expected.items():
        assert written[name] == text, f"{case}/{name} differs from the golden file"


@pytest.mark.parametrize("case", sorted(CASES))
def test_demo_outputs_match_golden(case, tmp_path):
    assert_matches_golden(case, run_case(case, tmp_path))


@pytest.mark.parametrize("seed", ["1", "2"])
def test_srwk_output_does_not_depend_on_the_hash_seed(seed, tmp_path):
    # Document frequencies are counted over per-document sets of tokens, whose
    # order follows string hashing; PYTHONHASHSEED fixes that hashing per
    # interpreter, so each seed needs its own process.
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "snippetnet.cli", *case_argv("srwk-json", tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert_matches_golden("srwk-json", written_files(tmp_path))


@pytest.mark.parametrize("case, variant", [("sr-dot", "sr"), ("srwk-json", "srwk")])
def test_library_extract_is_the_command_line_pipeline(case, variant, tmp_path):
    # extract, called as the README's library example calls it, gives the
    # golden network and the stage counts the command's report gives.
    corpus = load_corpus(DEMO / "corpus.jsonl")
    gateway = SearchGateway(FixtureBackend(corpus))
    network, evidence, stage_counts = extract(
        load_actors(DEMO / "actors.txt"), gateway, threshold=0.2, variant=variant, corpus=corpus,
    )
    if case == "sr-dot":
        assert export(network, "dot").decode("utf-8") == (GOLDEN / case / "network.dot").read_text(encoding="utf-8")
    else:
        golden = read_json(GOLDEN / case / "network.json")
        written = json.loads(export(network, "json"))
        assert (written["nodes"], written["edges"]) == (golden["nodes"], golden["edges"])
    assert len(evidence) == 15

    run_case(case, tmp_path)
    report = read_json(tmp_path / f"{CASES[case][1]}.report.json")
    assert stage_counts == {key: report[key] for key in stage_counts}
    assert sorted(stage_counts) == ["doubleton_queries", "keyword_queries", "singleton_queries"]
    assert sum(stage_counts.values()) == gateway.backend_calls == report["backend_calls"]


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
