"""A demo run cut at any query and then rerun pays for no query twice and
writes the same bytes as a run that was never cut.

Each case cuts the run at every backend call k in 1..Q, either with
--daily-limit k (exit 3; exit 0 when k is Q) or with a BackendError raised
on backend call k (exit 4), and then reruns it with the default limit.
Backend calls are counted by wrapping FixtureBackend.search, not read from
the run report or the ledger. At --parallelism 4 the journal holds its
records in the order the queries completed, so its lines are compared as a
sorted list there; every other byte is compared as it is.
"""

import threading
from pathlib import Path

import pytest

from conftest import mask_timestamps
from snippetnet.backends import FixtureBackend
from snippetnet.cli import main
from snippetnet.errors import BackendError

DEMO = Path(__file__).resolve().parent.parent / "demo"

# Backend calls of a clean demo run per variant.
QUERIES = {"sr": 19, "srwk": 25}

WRITTEN = ("network.json", "network.json.evidence.jsonl", "cache.json")


class CountedSearch:
    """Counts FixtureBackend.search calls; call number fail_at raises BackendError."""

    def __init__(self):
        self.calls = 0
        self.fail_at = None
        self.lock = threading.Lock()  # worker threads count at once


@pytest.fixture
def counted(monkeypatch):
    counter = CountedSearch()
    search = FixtureBackend.search

    def counting_search(backend, query):
        with counter.lock:
            counter.calls += 1
            failing = counter.calls == counter.fail_at
        if failing:
            raise BackendError("injected failure")
        return search(backend, query)

    monkeypatch.setattr(FixtureBackend, "search", counting_search)
    return counter


def extract(workdir, variant, parallelism, *flags):
    return main([
        "extract", "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
        "--cache", str(workdir / "cache.json"), "--threshold", "0.2", "--variant", variant, "--parallelism", parallelism,
        "--dump-evidence", "--out", str(workdir / "network.json"), *flags,
    ])


def written(workdir, parallelism):
    files = {name: mask_timestamps((workdir / name).read_text(encoding="utf-8")) for name in WRITTEN}
    if parallelism != "1":
        files["cache.json"] = sorted(files["cache.json"].split("\n"))
    return files


@pytest.mark.parametrize("parallelism", ["1", "4"])
@pytest.mark.parametrize("cut", ["daily-limit", "backend-error"])
@pytest.mark.parametrize("variant", sorted(QUERIES))
def test_run_cut_at_any_query_resumes_to_the_same_bytes(tmp_path, counted, capsys, variant, cut, parallelism):
    clean = tmp_path / "clean"
    clean.mkdir()
    assert extract(clean, variant, parallelism) == 0
    total = counted.calls
    assert total == QUERIES[variant]
    expected = written(clean, parallelism)

    for k in range(1, total + 1):
        workdir = tmp_path / f"cut-{k}"
        workdir.mkdir()
        counted.calls = 0
        if cut == "daily-limit":
            assert extract(workdir, variant, parallelism, "--daily-limit", str(k)) == (0 if k == total else 3), k
            paid = total
        else:
            counted.fail_at = k
            assert extract(workdir, variant, parallelism) == 4, k
            counted.fail_at = None
            paid = total + 1  # the failed call is paid for and then asked again
        assert extract(workdir, variant, parallelism) == 0, k
        assert counted.calls == paid, k
        assert written(workdir, parallelism) == expected, k
