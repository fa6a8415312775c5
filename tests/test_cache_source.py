"""A cache journal is bound to the backend and corpus that filled it.

A run whose journal holds answers parses the corpus only at the first query
the journal cannot answer, so a fully warm rerun parses none; a run whose
journal holds no answer parses it when the cache is opened, on the calling
thread. A journal filled from another corpus or backend exits 2 before any
query is paid, and a version-2 journal, which names no source, replays as it
is.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import read_json
from snippetnet import cli
from snippetnet.cache import QueryCache
from snippetnet.cli import main
from snippetnet.errors import ConfigError
from test_golden import CASES, GOLDEN, assert_matches_golden, run_case

DEMO = Path(__file__).resolve().parent.parent / "demo"


@pytest.fixture
def parses(monkeypatch):
    """The thread of every load_corpus call the command line makes."""
    threads = []

    def load_corpus(path, _load=cli.load_corpus):
        threads.append(threading.current_thread())
        return _load(path)

    monkeypatch.setattr(cli, "load_corpus", load_corpus)
    return threads


def extract_argv(workdir, corpus=DEMO / "corpus.jsonl", *flags):
    return ["extract", "--actors", str(DEMO / "actors.txt"), "--corpus", str(corpus),
            "--cache", str(workdir / "cache.json"), "--threshold", "0.2", "--variant", "srwk",
            *flags, "--out", str(workdir / "network.json")]


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "snippetnet.cli", *argv], capture_output=True, text=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fully_warm_rerun_parses_no_corpus_and_writes_the_golden_bytes(case, tmp_path, parses):
    run_case(case, tmp_path)
    assert len(parses) == 1
    journal = (tmp_path / "cache.json").read_bytes()
    assert_matches_golden(case, run_case(case, tmp_path))
    assert len(parses) == 1
    assert (tmp_path / "cache.json").read_bytes() == journal


def test_a_cold_run_parses_the_corpus_once_on_the_calling_thread(tmp_path, parses):
    # Parsed on a worker thread, the corpus would cost a second malloc arena.
    assert main(extract_argv(tmp_path, DEMO / "corpus.jsonl", "--parallelism", "4")) == 0
    assert parses == [threading.main_thread()]
    assert read_json(tmp_path / "network.json.report.json")["backend_calls"] == 25


def test_a_partly_warm_run_at_parallelism_4_parses_the_corpus_once(tmp_path, parses):
    assert main(extract_argv(tmp_path, DEMO / "corpus.jsonl", "--daily-limit", "7")) == 3
    parses.clear()
    assert main(extract_argv(tmp_path, DEMO / "corpus.jsonl", "--parallelism", "4")) == 0
    assert len(parses) == 1
    assert read_json(tmp_path / "network.json.report.json")["backend_calls"] == 25 - 7
    golden = read_json(GOLDEN / "srwk-json" / "network.json")
    assert read_json(tmp_path / "network.json")["edges"] == golden["edges"]


def test_a_journal_that_cache_clear_left_records_the_corpus_with_its_first_answer(tmp_path, parses, capsys):
    assert main(extract_argv(tmp_path)) == 0
    assert main(["cache", "clear", "--cache", str(tmp_path / "cache.json")]) == 0
    assert (tmp_path / "cache.json").read_bytes() == b'{"snippetnet_cache": 3}\n'
    assert main(extract_argv(tmp_path)) == 0  # holds no answer: parsed at open, and it pays every query
    assert main(extract_argv(tmp_path)) == 0  # holds every answer: parses nothing
    assert len(parses) == 2
    assert (tmp_path / "cache.json").read_bytes() == (GOLDEN / "srwk-json" / "cache.json").read_bytes()
    assert "(0 backend calls, 25 cache hits)" in capsys.readouterr().out


def test_a_version_2_journal_replays_unchanged_and_a_warm_rerun_parses_no_corpus(tmp_path, parses):
    lines = (GOLDEN / "sr-json" / "cache.json").read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) | {"fetched_at": "2026-08-18T00:00:00+00:00"} for line in lines[1:]]
    journal = ('{"snippetnet_cache": 2}\n' + "".join(json.dumps(record, sort_keys=True) + "\n"
                                                     for record in records)).encode("utf-8")
    (tmp_path / "cache.json").write_bytes(journal)
    built = []

    def backend(documents, _backend=cli.FixtureBackend):
        built.append(documents)
        return _backend(documents)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "FixtureBackend", backend)
        written = run_case("sr-json", tmp_path)
    assert parses == []
    assert callable(built[0])  # a function to parse the corpus at the first miss, which never comes
    assert (tmp_path / "cache.json").read_bytes() == journal
    assert read_json(tmp_path / "network.json.report.json")["backend_calls"] == 0
    expected = (GOLDEN / "sr-json" / "network.json").read_text(encoding="utf-8")
    assert written["network.json"] == expected


def test_a_corpus_edited_after_the_cold_run_exits_2_before_any_paid_query(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(DEMO / "corpus.jsonl", corpus)
    assert run_cli(extract_argv(tmp_path, corpus)).returncode == 0
    journal = (tmp_path / "cache.json").read_bytes()
    ledger = (tmp_path / "cache.json.ledger").read_bytes()
    corpus.write_bytes(corpus.read_bytes().replace(b"Alice Nguyen", b"Alice Ngyuen", 1))

    result = run_cli(extract_argv(tmp_path, corpus))
    assert result.returncode == 2
    assert result.stderr == (
        f"error: {tmp_path / 'cache.json'}: its answers came from another corpus than {corpus}, "
        "or from it before it changed; 'snippetnet cache clear' empties it for reuse\n")
    assert (tmp_path / "cache.json").read_bytes() == journal
    assert (tmp_path / "cache.json.ledger").read_bytes() == ledger


def test_a_missing_corpus_exits_2_on_a_warm_rerun(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(DEMO / "corpus.jsonl", corpus)
    assert run_cli(extract_argv(tmp_path, corpus)).returncode == 0
    journal = (tmp_path / "cache.json").read_bytes()
    corpus.unlink()

    result = run_cli(extract_argv(tmp_path, corpus))
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{corpus}'\n"
    assert (tmp_path / "cache.json").read_bytes() == journal


def test_a_journal_filled_by_the_live_backend_exits_2_in_a_fixture_run(tmp_path):
    journal = b'{"snippetnet_cache": 3, "backend": "live"}\n{"hit_count": 0, "query": "\\"x\\"", "snippets": []}\n'
    (tmp_path / "cache.json").write_bytes(journal)

    result = run_cli(extract_argv(tmp_path))
    assert result.returncode == 2
    assert result.stderr == (
        f"error: {tmp_path / 'cache.json'}: its answers came from the live backend, and this run asks "
        "the fixture backend; 'snippetnet cache clear' empties it for reuse\n")
    assert (tmp_path / "cache.json").read_bytes() == journal
    assert not (tmp_path / "cache.json.ledger").exists()


def test_opening_for_a_source_never_writes_and_the_first_answer_records_it(tmp_path):
    path = tmp_path / "cache.json"
    path.write_bytes(b'{"snippetnet_cache": 2}\n')  # a journal that holds no answer names no source
    cache = QueryCache.open(path, "fixture", DEMO / "corpus.jsonl")
    assert len(cache) == 0 and len(QueryCache.open(path, "live")) == 0  # any source may fill it
    assert path.read_bytes() == b'{"snippetnet_cache": 2}\n'
    golden_header = (GOLDEN / "sr-json" / "cache.json").read_bytes().split(b"\n")[0] + b"\n"
    cached = QueryCache.open(GOLDEN / "sr-json" / "cache.json")
    cache.store('"Alice Nguyen"', cached.lookup('"Alice Nguyen"'))
    assert path.read_bytes().startswith(golden_header)
    assert len(QueryCache.open(path, "fixture", DEMO / "corpus.jsonl")) == 1
    with pytest.raises(ConfigError, match="its answers came from the fixture backend"):
        QueryCache.open(path, "live")
    assert path.read_bytes().count(b"\n") == 2
