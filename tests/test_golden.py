"""Byte-for-byte guard on what the CLI writes for the demo corpus.

Each case reruns one command over demo/ in a fresh directory and compares
every file it writes (network, evidence, keywords, cache journal) with
tests/golden/<case>/. Timestamps (generated_at in the JSON network) are
masked on both sides. The run report
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
from snippetnet import Actor, FixtureBackend, SearchGateway, export, load_corpus
from snippetnet import cli
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
    # Document frequencies are counted over a set of snippets and per-snippet
    # sets of tokens, whose order follows string hashing; PYTHONHASHSEED fixes
    # that hashing per interpreter, so each seed needs its own process.
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
        load_actors(DEMO / "actors.txt"), gateway, threshold=0.2, variant=variant,
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


def test_library_extract_reads_an_iterator_of_actors_once():
    corpus = load_corpus(DEMO / "corpus.jsonl")
    gateway = SearchGateway(FixtureBackend(corpus))
    network, evidence, _ = extract(iter(load_actors(DEMO / "actors.txt")), gateway, threshold=0.2)
    assert export(network, "dot").decode("utf-8") == (GOLDEN / "sr-dot" / "network.dot").read_text(encoding="utf-8")
    assert len(evidence) == 15


# One case per argument extract checks; each must be refused before the first paid query.
@pytest.mark.parametrize(
    "names, arguments, message",
    [
        (None, {"variant": "srwk", "keywords": {"alice-nguyen": 'x"y', "bob-santos": "graph"}}, "double quote"),
        (None, {"variant": "srwk", "keywords": {"alice-nguyen": "graph", "nobody": "graph"}}, "nobody"),
        (None, {"variant": "srwk", "keywords": {"alice-nguyen": "  "}}, "blank phrase"),
        (None, {"variant": "srwk", "keywords": {"alice-nguyen": 7}}, "must be a string"),
        (None, {"threshold": 1.5}, r"threshold must be in \[0, 1\], got 1.5"),
        (None, {"threshold": -0.1}, r"threshold must be in \[0, 1\], got -0.1"),
        (None, {"threshold": float("nan")}, r"threshold must be in \[0, 1\], got nan"),
        (None, {"measure": "cosine"}, "unknown measure 'cosine'"),
        (None, {"variant": "srw"}, "unknown variant 'srw'"),
        (["Alice Nguyen"], {}, "need at least two actors"),
        (["Alice Nguyen", "Alice-Nguyen"], {}, "actor ids must be unique"),
        (None, {"variant": "sr", "keywords": {"alice-nguyen": "graph"}}, "keywords need variant 'srwk'"),
    ],
    ids=["double-quote", "unknown-id", "blank", "not-a-string", "threshold-above-1", "threshold-below-0",
         "threshold-nan", "unknown-measure", "unknown-variant", "one-actor", "duplicate-ids", "keywords-without-srwk"],
)
def test_library_extract_checks_keywords_before_any_query(names, arguments, message):
    corpus = load_corpus(DEMO / "corpus.jsonl")
    gateway = SearchGateway(FixtureBackend(corpus))
    actors = load_actors(DEMO / "actors.txt") if names is None else [Actor(name) for name in names]
    with pytest.raises(ValueError, match=message):
        extract(actors, gateway, **{"threshold": 0.2, **arguments})
    assert gateway.backend_calls == 0


def test_gateway_refuses_parallelism_below_1_before_any_query():
    # The fan-out width belongs to the gateway, so it is checked where it is
    # set: no gateway is built, so no query can be paid.
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        SearchGateway(FixtureBackend(load_corpus(DEMO / "corpus.jsonl")), parallelism=0)


def test_library_extract_takes_its_parallelism_from_the_gateway():
    gateway = SearchGateway(FixtureBackend(load_corpus(DEMO / "corpus.jsonl")))
    with pytest.raises(TypeError, match="parallelism"):
        extract(load_actors(DEMO / "actors.txt"), gateway, threshold=0.2, parallelism=2)
    assert gateway.backend_calls == 0


def test_library_extract_takes_its_corpus_from_the_backend():
    # The backend is the only holder of a corpus, and srwk ranks keywords
    # against the pages the run fetched, so there is no corpus to pass.
    gateway = SearchGateway(FixtureBackend(load_corpus(DEMO / "corpus.jsonl")))
    with pytest.raises(TypeError, match="corpus"):
        extract(load_actors(DEMO / "actors.txt"), gateway, threshold=0.2, variant="srwk", corpus=())
    assert gateway.backend_calls == 0


# The demo's two detected pairs score 0.4 and 2/3 (sr, jaccard); the other 13 are undetected.
@pytest.mark.parametrize(
    "threshold, pairs",
    [
        (0.0, [("alice-nguyen", "bob-santos"), ("david-kim", "erin-walsh")]),
        (0.4, [("alice-nguyen", "bob-santos"), ("david-kim", "erin-walsh")]),
        (0.5, [("david-kim", "erin-walsh")]),
    ],
    ids=["zero-keeps-only-detected-pairs", "score-equal-to-threshold-is-kept", "weak-edge-dropped"],
)
def test_library_extract_keeps_the_detected_pairs_at_or_above_the_threshold(threshold, pairs):
    gateway = SearchGateway(FixtureBackend(load_corpus(DEMO / "corpus.jsonl")))
    network, evidence, _ = extract(load_actors(DEMO / "actors.txt"), gateway, threshold=threshold)
    assert [edge.pair for edge in network.edges] == pairs
    assert all(edge.weight.value >= threshold for edge in network.edges)
    assert [item.pair for item in evidence if item.detected] == [
        ("alice-nguyen", "bob-santos"), ("david-kim", "erin-walsh"),
    ]
    assert [actor.id for actor in network.nodes] == [
        "alice-nguyen", "bob-santos", "carol-reyes", "david-kim", "erin-walsh", "farid-omar",
    ]


def test_library_extract_annotates_only_the_edges(monkeypatch):
    # alice-bob is detected but scores 0.4, below 0.5: it gets no usr and no labels.
    calls = {"usr": 0, "label_edge": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cli, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cli, name, counted)
    gateway = SearchGateway(FixtureBackend(load_corpus(DEMO / "corpus.jsonl")))
    network, _, _ = extract(load_actors(DEMO / "actors.txt"), gateway, threshold=0.5)
    assert [edge.pair for edge in network.edges] == [("david-kim", "erin-walsh")]
    assert calls == {"usr": 1, "label_edge": 1}


def test_backend_with_only_search_runs_srwk_and_pays_what_the_fixture_backend_pays():
    # The backend port is search alone: srwk reads nothing else of it.
    class SearchOnly:
        __slots__ = ("search",)

        def __init__(self):
            self.search = FixtureBackend(load_corpus(DEMO / "corpus.jsonl")).search

    actors = load_actors(DEMO / "actors.txt")
    runs = []
    for backend in (SearchOnly(), FixtureBackend(load_corpus(DEMO / "corpus.jsonl"))):
        gateway = SearchGateway(backend)
        network, _, stage_counts = extract(actors, gateway, threshold=0.2, variant="srwk")
        runs.append((export(network, "json"), stage_counts, gateway.backend_calls))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["edges"] == read_json(GOLDEN / "srwk-json" / "network.json")["edges"]
    assert runs[0][2] == 25


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
