import itertools
import random
import sys

import pytest

from conftest import make_gateway, scan_count
from corpusdata import ACTORS
from snippetnet.budget import BudgetLedger
from snippetnet.errors import BackendError
from snippetnet.gateway import SearchGateway
from snippetnet.relations import Actor, detect_all, detect_relation

ACTOR_OBJS = [Actor(name) for name in ACTORS]


def _actor(name):
    return next(a for a in ACTOR_OBJS if a.name == name)


class TestActor:
    def test_slug_id_from_name(self):
        assert Actor(name="Alice Nguyen").id == "alice-nguyen"
        assert Actor(name="  J. R. O'Neil ").id == "j-r-o-neil"

    def test_id_cannot_be_set(self):
        with pytest.raises(TypeError):
            Actor(name="Alice Nguyen", id="a1")

    def test_blank_name_rejected(self):
        with pytest.raises(ValueError):
            Actor(name="   ")


class TestDetectRelation:
    def test_cooccurring_pair_is_detected(self, gateway20):
        ev = detect_relation(_actor("Alice Nguyen"), _actor("Bob Santos"), gateway20)
        assert ev.pair == ("alice-nguyen", "bob-santos")
        assert ev.doubleton_count == 2
        assert ev.detected is True
        assert len(ev.l_ab) == 2

    def test_zero_doubleton_not_detected(self, gateway20):
        ev = detect_relation(_actor("Alice Nguyen"), _actor("Farid Omar"), gateway20)
        assert ev.doubleton_count == 0
        assert ev.detected is False
        assert ev.l_ab == ()

    def test_hits_without_visible_mention_not_detected(self, gateway20):
        # the shared document mentions the second name only past the abstract
        # window, so the count is positive but no snippet shows both names
        ev = detect_relation(_actor("Alice Nguyen"), _actor("Carol Reyes"), gateway20)
        assert ev.doubleton_count == 1
        assert ev.detected is False

    def test_pair_is_canonical_regardless_of_argument_order(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        forward = detect_relation(a, b, gateway20)
        backward = detect_relation(b, a, gateway20)
        assert forward == backward
        assert gateway20.stats.backend_calls == 1  # same rendered query

    def test_self_pair_rejected(self, gateway20):
        alice = _actor("Alice Nguyen")
        with pytest.raises(ValueError, match="cannot relate 'alice-nguyen' to itself"):
            detect_relation(alice, Actor("alice-nguyen"), gateway20)


class TestDetectAll:
    def test_covers_every_unordered_pair_in_order(self, gateway20):
        evidence = detect_all(ACTOR_OBJS, gateway20)
        assert len(evidence) == 15
        pairs = [ev.pair for ev in evidence]
        ids = sorted(a.id for a in ACTOR_OBJS)
        assert pairs == [tuple(sorted(p)) for p in itertools.combinations(ids, 2)]
        assert pairs == sorted(pairs)

    def test_detected_set_matches_corpus_oracle(self, corpus20_rows, gateway20):
        by_name = {a.id: a.name for a in ACTOR_OBJS}
        for ev in detect_all(ACTOR_OBJS, gateway20):
            hits = scan_count(corpus20_rows, [by_name[ev.pair[0]], by_name[ev.pair[1]]])
            assert ev.doubleton_count == hits

    def test_actor_order_does_not_matter(self, corpus20):
        shuffled = list(ACTOR_OBJS)
        random.Random(7).shuffle(shuffled)
        a = detect_all(ACTOR_OBJS, make_gateway(corpus20))
        b = detect_all(shuffled, make_gateway(corpus20))
        assert a == b

    def test_parallel_equals_sequential(self, corpus20):
        seq = detect_all(ACTOR_OBJS, make_gateway(corpus20))
        par = detect_all(ACTOR_OBJS, make_gateway(corpus20), parallelism=4)
        assert seq == par

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_failure_stops_pairs_not_yet_started(self, parallelism):
        class DownBackend:
            def search(self, query, page_size):
                raise BackendError("engine down")

        actors = [Actor(f"Person {i}") for i in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to widen any race
        try:
            for _ in range(20):
                ledger = BudgetLedger(daily_limit=1_000)
                gateway = SearchGateway(DownBackend(), ledger=ledger)
                with pytest.raises(BackendError, match="engine down"):
                    detect_all(actors, gateway, parallelism=parallelism)
                # 45 pairs, but only those in flight when the first failed are paid.
                assert 1 <= ledger.total_issued <= parallelism
        finally:
            sys.setswitchinterval(interval)

    def test_warm_rerun_issues_no_backend_calls(self, corpus20, tmp_path):
        cache_path = tmp_path / "cache.json"
        first = make_gateway(corpus20, cache_path=cache_path)
        cold = detect_all(ACTOR_OBJS, first)
        second = make_gateway(corpus20, cache_path=cache_path)
        warm = detect_all(ACTOR_OBJS, second)
        assert cold == warm
        assert second.stats.backend_calls == 0
        assert second.stats.cache_hits == 15

    def test_duplicate_ids_rejected(self, gateway20):
        actors = [Actor(name="Alice Nguyen"), Actor(name="Alice-Nguyen")]
        with pytest.raises(ValueError):
            detect_all(actors, gateway20)

    def test_needs_at_least_two_actors(self, gateway20):
        with pytest.raises(ValueError):
            detect_all([_actor("Alice Nguyen")], gateway20)
