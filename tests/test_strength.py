import random

import pytest

from conftest import make_gateway
from corpusdata import ACTORS
from snippetnet.relations import Actor, detect_all
from snippetnet.strength import (
    MEASURES,
    clamp,
    dice,
    jaccard,
    overlap,
    sr,
    sr_with_keywords,
)

ACTOR_OBJS = [Actor(name) for name in ACTORS]


def _actor(name):
    return next(a for a in ACTOR_OBJS if a.name == name)


class TestMeasures:
    def test_known_values(self):
        assert jaccard(100, 50, 10) == pytest.approx(0.07142857142857142, abs=1e-12)
        assert dice(100, 50, 10) == pytest.approx(0.13333333333333333, abs=1e-12)
        assert overlap(100, 50, 10) == pytest.approx(0.2, abs=1e-12)

    def test_identical_sets_score_one(self):
        counts = (9, 9, 9)
        for fn in MEASURES.values():
            assert fn(*counts) == 1.0

    def test_disjoint_sets_score_zero(self):
        counts = (9, 4, 0)
        for fn in MEASURES.values():
            assert fn(*counts) == 0.0

    def test_zero_denominator_yields_zero(self):
        counts = (0, 0, 0)
        for fn in MEASURES.values():
            assert fn(*counts) == 0.0

    def test_clamp_bounds_doubleton_by_both_singletons(self):
        assert clamp(5, 8, 9) == (5, 8, 5)
        assert clamp(8, 5, 9) == (8, 5, 5)
        assert clamp(5, 8, 3) == (5, 8, 3)

    def test_properties_hold_on_random_counts(self):
        rng = random.Random(20260818)
        for _ in range(2000):
            sa, sb = rng.randint(0, 10_000), rng.randint(0, 10_000)
            d = rng.randint(0, 15_000)
            counts = clamp(sa, sb, d)
            swapped = clamp(sb, sa, d)
            j, s, o = jaccard(*counts), dice(*counts), overlap(*counts)
            assert 0.0 <= j <= s <= o <= 1.0
            assert (j, s, o) == (jaccard(*swapped), dice(*swapped), overlap(*swapped))


class TestSr:
    def test_detected_pair_scores_from_counts(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        ev = detect_all([a, b], gateway20)[0]
        score = sr([(a, b, ev)], gateway20)[0]
        # singletons 4 and 3, doubleton 2: 2 / (4 + 3 - 2)
        assert score.value == pytest.approx(0.4, abs=1e-12)
        assert score.measure == "jaccard"
        assert score.variant == "sr"
        assert score.keywords_used is None

    def test_measure_selection(self, gateway20):
        a, b = _actor("David Kim"), _actor("Erin Walsh")
        ev = detect_all([a, b], gateway20)[0]
        assert sr([(a, b, ev)], gateway20, "jaccard")[0].value == pytest.approx(2 / 3)
        assert sr([(a, b, ev)], gateway20, "dice")[0].value == pytest.approx(4 / 5)
        assert sr([(a, b, ev)], gateway20, "overlap")[0].value == pytest.approx(1.0)

    def test_singletons_come_from_cache_when_warm(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        ev = detect_all([a, b], gateway20)[0]
        sr([(a, b, ev)], gateway20)
        calls_after_first = gateway20.backend_calls
        sr([(a, b, ev)], gateway20)
        assert gateway20.backend_calls == calls_after_first


class TestSrWithKeywords:
    def test_keyword_narrowed_counts(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        score = sr_with_keywords([(a, "graph", b, "graph")], gateway20)[0]
        # narrowed singletons 3 and 2, narrowed doubleton 1: 1 / (3 + 2 - 1)
        assert score.value == pytest.approx(0.25, abs=1e-12)
        assert score.variant == "srwk"
        assert score.keywords_used == ("graph", "graph")

    def test_vacuous_keyword_reduces_to_plain_sr(self, gateway20):
        # "research" occurs in every fixture document, so narrowing by it
        # changes nothing and the score must equal the plain variant
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        ev = detect_all([a, b], gateway20)[0]
        plain = sr([(a, b, ev)], gateway20)[0]
        narrowed = sr_with_keywords([(a, "research", b, "research")], gateway20)[0]
        assert narrowed.value == pytest.approx(plain.value, abs=1e-12)

    def test_argument_order_does_not_matter(self, corpus20):
        g1, g2 = make_gateway(corpus20), make_gateway(corpus20)
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        forward = sr_with_keywords([(a, "graph", b, "network")], g1)[0]
        backward = sr_with_keywords([(b, "network", a, "graph")], g2)[0]
        assert forward == backward
        assert forward.keywords_used == ("graph", "network")
        assert g1.backend_calls == g2.backend_calls == 3

    def test_blank_keyword_rejected(self, gateway20):
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        with pytest.raises(ValueError, match="blank phrase in query"):
            sr_with_keywords([(a, " ", b, "graph")], gateway20)

    @pytest.mark.parametrize(
        "kw_a, kw_b", [(" ", "graph"), ("graph", " "), ('x"y', "graph"), ("graph", 'x"y')],
        ids=["blank-a", "blank-b", "quoted-a", "quoted-b"],
    )
    def test_rejected_keyword_pays_for_no_query(self, corpus20, kw_a, kw_b):
        gateway = make_gateway(corpus20)
        with pytest.raises(ValueError, match="blank phrase|double quote"):
            sr_with_keywords([(_actor("Alice Nguyen"), kw_a, _actor("Bob Santos"), kw_b)], gateway)
        assert gateway.backend_calls == 0
        assert len(gateway.cache) == 0

    def test_uses_exactly_three_queries_cold(self, corpus20):
        gateway = make_gateway(corpus20)
        a, b = _actor("Alice Nguyen"), _actor("Bob Santos")
        sr_with_keywords([(a, "graph", b, "graph")], gateway)
        assert gateway.backend_calls == 3
        assert len(gateway.cache) == 3
        for rendered in (
            '"Alice Nguyen" "graph"',
            '"Bob Santos" "graph"',
            '"Alice Nguyen" "graph" "Bob Santos" "graph"',
        ):
            assert gateway.cache.lookup(rendered) is not None
