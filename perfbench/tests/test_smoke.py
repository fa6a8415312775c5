"""Smoke test of the benchmark harness at the smallest corpus size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpusgen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def smoke_bench(monkeypatch, capsys):
    """Runs run.main with every workload shrunk to SMOKE; (stdout, result)."""
    small = {name: dataclasses.replace(w, shape=run.SMOKE) for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)

    def bench(*args):
        assert run.main(list(args)) == 0
        stdout = capsys.readouterr().out
        return stdout, json.loads(stdout.strip().splitlines()[-1])

    return bench


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_at_smoke_size(smoke_bench, workload):
    _, result = smoke_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_run_reports_every_layer(smoke_bench):
    stdout, result = smoke_bench("--workload", "deep-srwk", "--seed", "7", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "absent hooks (their layers read 0): none" in stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["backends.search_calls"] == metrics["cache.store_calls"] > 0
    assert 0 < metrics["gateway.hit_ratio"] < 1


@pytest.mark.parametrize("shape", [run.SMOKE, run.COLD_WIDE, run.DEEP], ids=["smoke", "cold-wide", "deep"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_corpus_has_the_shape_it_promises(shape, seed):
    corpus = corpusgen.generate(shape, seed)
    expected = oracle.Expected(corpus.names, corpus.documents)
    as_ids = lambda pairs: {tuple(sorted(oracle.slug(name) for name in pair)) for pair in pairs}
    assert len(corpus.names) == shape.actors
    assert len(corpus.documents) == shape.documents
    assert set(expected.detected) == as_ids(corpus.detected_pairs)
    assert len(expected.detected) == sum(shape.detected_per_community)
    assert len(expected.involved) == sum(shape.community_sizes)
    hit_only = {pair for pair, row in expected.evidence.items() if row["doubleton_count"] and not row["detected"]}
    assert hit_only == as_ids(corpus.hit_only_pairs)
    assert len(hit_only) == shape.hit_only_pairs


def test_a_missing_hook_is_reported_absent():
    absent = traced.Tracer().install((
        ("cache.gone", "snippetnet.cache", "QueryCache.no_such_method"),
        ("module.gone", "snippetnet.no_such_module", "anything"),
        ("function.gone", "snippetnet.cli", "no_such_function"),
    ))
    assert absent == [
        "snippetnet.cache:QueryCache.no_such_method",
        "snippetnet.no_such_module:anything",
        "snippetnet.cli:no_such_function",
    ]


def test_a_failed_command_counts_once(monkeypatch):
    # The first command runs out of budget after paying for some queries; the
    # second resumes on the same cache and must be checked against the
    # ledger as the failed command left it.
    workdir = ROOT / ".perfbench_work" / "failed-command"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        corpus = corpusgen.generate(run.SMOKE, 7)
        actors, docs = corpusgen.write(corpus, workdir)
        runner = run.Runner(workdir, actors, docs, oracle.Expected(corpus.names, corpus.documents))
        monkeypatch.setattr(run, "DAILY_LIMIT", 3)
        runner.run(run.PRIME, traced=False, warm=False)
        monkeypatch.undo()
        resumed = runner.run(run.PRIME, traced=False, warm=False)
        assert runner.attempted == 2
        assert len(runner.failures) == 1 and "exit code 3" in runner.failures[0][0]
        assert 0 < resumed.backend_calls
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _bench(bare, "--workload", "cold-wide", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
