import itertools
import random
import sys

import pytest

from conftest import FANOUT_ACTORS, FANOUT_KEYWORDS, StagedBackend, corpus_from_rows, make_gateway, scan_count
from corpusdata import ACTORS
from snippetnet.budget import BudgetLedger
from snippetnet.cli import extract
from snippetnet.errors import BackendError
from snippetnet.gateway import SearchGateway
from snippetnet.relations import Actor, detect_all

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
        ev = detect_all([_actor("Alice Nguyen"), _actor("Bob Santos")], gateway20)[0]
        assert ev.pair == ("alice-nguyen", "bob-santos")
        assert ev.doubleton_count == 2
        assert ev.detected is True
        assert len(ev.l_ab) == 2

    def test_zero_doubleton_not_detected(self, gateway20):
        ev = detect_all([_actor("Alice Nguyen"), _actor("Farid Omar")], gateway20)[0]
        assert ev.doubleton_count == 0
        assert ev.detected is False
        assert ev.l_ab == ()

    def test_hits_without_visible_mention_not_detected(self, gateway20):
        # the shared document mentions the second name only past the abstract
        # window, so the count is positive but no snippet shows both names
        ev = detect_all([_actor("Alice Nguyen"), _actor("Carol Reyes")], gateway20)[0]
        assert ev.doubleton_count == 1
        assert ev.detected is False

    def test_pair_is_canonical_regardless_of_argument_order(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        forward = detect_all([a, b], gateway20)[0]
        backward = detect_all([b, a], gateway20)[0]
        assert forward == backward
        assert gateway20.backend_calls == 1  # same rendered query


class TestWhereANameOccurs:
    """A snippet mentions a name when it occurs, case-insensitively, in the title or the abstract."""

    def _detect(self, names, url="http://a.com/x", title="", body=""):
        gateway = make_gateway(corpus_from_rows([{"id": 1, "url": url, "title": title, "body": body}]))
        (evidence,) = detect_all([Actor(name) for name in names], gateway)
        return evidence

    def test_title_matches_case_insensitively(self):
        assert self._detect(["Alice Nguyen", "Homepage"], title="Alice NGUYEN homepage").detected

    def test_abstract_matches(self):
        assert self._detect(["Alice Nguyen", "Bob Santos"], title="Alice Nguyen", body="with Bob Santos et al").detected

    def test_no_match(self):
        evidence = self._detect(["Alice Nguyen", "Bob Santos"], title="Alice Nguyen", body="y")
        assert (evidence.doubleton_count, evidence.detected) == (0, False)

    def test_a_name_split_between_title_and_abstract_is_no_mention(self):
        # The body names her past the abstract's 200 characters, so search counts the pair.
        body = "Nguyen" + " x" * 100 + " Alice Nguyen"
        evidence = self._detect(["Alice Nguyen", "Bob Santos"], title="Bob Santos with Alice", body=body)
        assert (evidence.doubleton_count, evidence.detected) == (1, False)

    def test_url_text_is_not_searched(self):
        # Search matches the url, so the pair has a hit; no snippet shows both names, so it is not detected.
        evidence = self._detect(["Alice", "Bob"], url="http://alice.com/bob", title="t", body="a")
        assert (evidence.doubleton_count, evidence.detected) == (1, False)


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
        par = detect_all(ACTOR_OBJS, make_gateway(corpus20, parallelism=4))
        assert seq == par

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_failure_stops_pairs_not_yet_started(self, parallelism):
        class DownBackend:
            def search(self, query):
                raise BackendError("engine down")

        actors = [Actor(f"Person {i}") for i in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to widen any race
        try:
            for _ in range(20):
                ledger = BudgetLedger(daily_limit=1_000)
                gateway = SearchGateway(DownBackend(), ledger=ledger, parallelism=parallelism)
                with pytest.raises(BackendError, match="engine down"):
                    detect_all(actors, gateway)
                # 45 pairs, but only those in flight when the first failed are paid.
                assert 1 <= ledger.total_issued <= parallelism
            # Contexts and srwk scoring fan out the same way: 20 and 210 queries.
            for stage in ("contexts", "scoring"):
                for _ in range(5):
                    backend = StagedBackend(fail=stage)
                    with pytest.raises(BackendError, match=f"{stage} down"):
                        extract(FANOUT_ACTORS, SearchGateway(backend, parallelism=parallelism), threshold=0.0,
                                variant="srwk", keywords=FANOUT_KEYWORDS)
                    assert 1 <= backend.stages[stage] <= parallelism
        finally:
            sys.setswitchinterval(interval)

    def test_warm_rerun_issues_no_backend_calls(self, corpus20, tmp_path):
        cache_path = tmp_path / "cache.json"
        first = make_gateway(corpus20, cache_path=cache_path)
        cold = detect_all(ACTOR_OBJS, first)
        second = make_gateway(corpus20, cache_path=cache_path)
        warm = detect_all(ACTOR_OBJS, second)
        assert cold == warm
        assert second.backend_calls == 0
        assert second.cache_hits == 15

    def test_duplicate_ids_rejected(self, gateway20):
        # Refused before any pair is paid for, with extract's message.
        actors = [Actor(name="Alice Nguyen"), Actor(name="Bob Santos"), Actor(name="Alice-Nguyen")]
        with pytest.raises(ValueError, match="actor ids must be unique"):
            detect_all(actors, gateway20)
        assert gateway20.backend_calls == 0
