"""Every paid stage fans out through SearchGateway.execute_all.

Detection, contexts and srwk scoring each keep as many queries in flight as
the gateway's parallelism allows, no query is paid for twice, and an
interrupt of the calling thread stops every query not yet started, and a
thread the system refuses to start leaves its queries to the others. The
checks wait on barriers and counts, never on sleeps.
"""

import _thread
import signal
import sys
import threading
from pathlib import Path

import pytest

from conftest import FANOUT_ACTORS, FANOUT_KEYWORDS, StagedBackend, make_gateway, mask_timestamps
from snippetnet.budget import BudgetLedger
from snippetnet.cli import extract, main
from snippetnet.errors import BackendError
from snippetnet.gateway import SearchGateway
from snippetnet.queries import build_query
from snippetnet.relations import detect_all

DEMO = Path(__file__).resolve().parent.parent / "demo"


def extract_srwk(backend, parallelism):
    gateway = SearchGateway(backend, parallelism=parallelism)
    extract(FANOUT_ACTORS, gateway, threshold=0.0, variant="srwk", keywords=FANOUT_KEYWORDS)
    return gateway


class TestExecuteAll:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_results_in_the_order_asked_and_each_distinct_query_served_once(self, corpus20, parallelism):
        alice, bob = build_query(["Alice Nguyen"]), build_query(["Bob Santos"])
        gateway = make_gateway(corpus20, parallelism=parallelism)
        results = gateway.execute_all([alice, bob, alice, alice])
        assert [result.hit_count for result in results] == [4, 3, 4, 4]
        assert results[0] is results[2] is results[3]
        # A repeat inside one call is not paid again: it is a cache hit, as one at a time.
        assert (gateway.backend_calls, gateway.cache_hits) == (2, 2)
        assert gateway.execute_all([bob, alice]) == [results[1], results[0]]
        assert (gateway.backend_calls, gateway.cache_hits) == (2, 4)

    def test_width_is_set_on_the_gateway_not_per_call(self, corpus20):
        gateway = make_gateway(corpus20, parallelism=3)
        assert (gateway.parallelism, SearchGateway(gateway.backend).parallelism) == (3, 1)
        with pytest.raises(TypeError):
            gateway.execute_all([build_query(["Alice Nguyen"])], 2)
        assert gateway.backend_calls == 0

    def test_raises_the_error_of_the_earliest_failed_query_in_the_order_asked(self):
        first, second = build_query(["first"]), build_query(["second"])
        both_started = threading.Barrier(2, timeout=10)
        second_failed = threading.Event()

        class TwoFailures:
            def search(self, query):
                both_started.wait()
                if query == second:
                    second_failed.set()
                    raise BackendError("second")
                second_failed.wait(timeout=10)  # so the later query most likely fails first
                raise BackendError("first")

        with pytest.raises(BackendError, match="first"):
            SearchGateway(TwoFailures(), parallelism=2).execute_all([first, second])

    def test_every_query_is_served_when_the_calling_thread_finishes_first(self, corpus20):
        # The calling thread may run out of queries while a worker holds the
        # last one; that query must still be served, not dropped.
        queries = [build_query([f"term {i}"]) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to widen any race
        try:
            for _ in range(1000):
                gateway = make_gateway(corpus20, parallelism=2)
                assert len(gateway.execute_all(queries)) == 3
                assert gateway.backend_calls == 3
        finally:
            sys.setswitchinterval(interval)

    def test_parallelism_1_runs_on_the_calling_thread(self):
        threads = set()
        backend = StagedBackend(hook=lambda stage, n: threads.add(threading.current_thread()))
        extract_srwk(backend, parallelism=1)
        assert threads == {threading.current_thread()}


@pytest.mark.parametrize("refused_from", [1, 2], ids=["every-start", "second-start"])
def test_a_thread_the_system_refuses_leaves_its_queries_to_the_others(tmp_path, monkeypatch, refused_from):
    # As when the process may start no more threads: every Thread.start from
    # the refused_from-th on raises, as CPython's does then. The run must
    # still exit 0 and write what a serial run writes, counts included.
    def run(name, parallelism):
        out = tmp_path / f"{name}.json"
        assert main([
            "extract", "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
            "--cache", str(tmp_path / f"{name}-cache.json"), "--threshold", "0.2", "--variant", "srwk",
            "--parallelism", str(parallelism), "--dump-evidence", "--out", str(out),
        ]) == 0
        return [mask_timestamps(Path(f"{out}{suffix}").read_text(encoding="utf-8"))
                for suffix in ("", ".report.json", ".evidence.jsonl")]

    serial = run("serial", 1)
    start, asked = threading.Thread.start, []

    def refusing_start(thread):
        asked.append(thread)
        if len(asked) >= refused_from:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", refusing_start)
    assert run("refused", 4) == serial
    assert sum(thread.ident is not None for thread in asked) == refused_from - 1
    assert len(asked) > refused_from  # a later fan-out asked again, and was refused too


@pytest.mark.parametrize("stage", ["detection", "contexts", "scoring"])
def test_each_stage_has_parallelism_queries_in_flight(stage):
    k = 4
    barrier = threading.Barrier(k, timeout=10)
    threads = {}

    def meet(at, n):
        threads.setdefault(at, set()).add(threading.current_thread())
        if at == stage and n <= k:
            barrier.wait()  # breaks unless k queries of the stage are in flight at once

    extract_srwk(StagedBackend(hook=meet), parallelism=k)
    assert not barrier.broken
    assert len(threads[stage]) == k
    assert all(len(used) <= k for used in threads.values())


def test_no_query_is_paid_twice_at_parallelism_8():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to widen any race
    try:
        for _ in range(5):
            backend = StagedBackend()
            gateway = extract_srwk(backend, parallelism=8)
            # Each narrowed singleton is asked by 19 pairs and paid once.
            assert set(backend.queries.values()) == {1}
            assert backend.stages == {"detection": 190, "contexts": 20, "scoring": 210}
            assert gateway.backend_calls == 420
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("parallelism", [2, 4])
def test_interrupt_stops_queries_not_yet_started(parallelism):
    k = 30
    handled = threading.Event()

    def on_sigint(signum, frame):
        handled.set()
        raise KeyboardInterrupt

    def interrupt(stage, n):
        if n == k:
            _thread.interrupt_main()  # as Ctrl-C does: the SIGINT handler runs in the calling thread
        elif n > k and threading.current_thread() is not threading.main_thread():
            # A query a worker starts after the interrupt waits until the calling
            # thread has seen it, so the count below does not depend on scheduling.
            handled.wait(timeout=5)
            handled.set()

    ledger = BudgetLedger(daily_limit=1_000)
    gateway = SearchGateway(StagedBackend(hook=interrupt), ledger=ledger, parallelism=parallelism)
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            detect_all(FANOUT_ACTORS, gateway)
    finally:
        signal.signal(signal.SIGINT, previous)
    # 190 pairs, but only the k paid before the interrupt and those then in flight.
    assert k <= ledger.total_issued <= k + parallelism
