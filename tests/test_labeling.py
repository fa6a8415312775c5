import random

import pytest

from corpusdata import ACTORS
from snippetnet.keywords import fetch_actor_context
from snippetnet.labeling import EdgeLabels, label_edge, registrable_domain, usr
from snippetnet.relations import Actor
from snippetnet.snippets import Snippet, parse_url


def _snip(url, title=""):
    return Snippet(url=parse_url(url), title=title, abstract="")


class TestRegistrableDomain:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("http://www.example.com/a", "example.com"),
            ("http://example.com", "example.com"),
            ("http://deep.sub.example.com", "example.com"),
            ("https://uni.ac.id", "uni.ac.id"),
            ("https://cs.uni.ac.id", "uni.ac.id"),
            ("http://news.bbc.co.uk/world", "bbc.co.uk"),
            ("http://localhost/x", "localhost"),
            ("http://lab.uni.example", "uni.example"),
        ],
    )
    def test_known_values(self, url, expected):
        assert registrable_domain(parse_url(url)) == expected


class TestUsr:
    def test_identical_domain_sets_score_one(self):
        l_a = [_snip("http://a.com/x"), _snip("http://b.org/y")]
        l_b = [_snip("http://www.a.com/z"), _snip("http://b.org")]
        score = usr(l_a, l_b)
        assert score.value == 1.0
        assert score.shared_domains == frozenset({"a.com", "b.org"})

    def test_disjoint_domain_sets_score_zero(self):
        score = usr([_snip("http://a.com")], [_snip("http://b.org")])
        assert score.value == 0.0
        assert score.shared_domains == frozenset()

    def test_empty_lists_score_zero(self):
        assert usr([], []).value == 0.0

    def test_partial_overlap(self):
        l_a = [_snip("http://a.com"), _snip("http://b.org")]
        l_b = [_snip("http://a.com"), _snip("http://c.net")]
        assert usr(l_a, l_b).value == pytest.approx(1 / 3)

    def test_symmetry_on_random_domain_sets(self):
        rng = random.Random(99)
        hosts = [f"http://site{i}.com" for i in range(8)]
        for _ in range(200):
            l_a = [_snip(u) for u in rng.sample(hosts, rng.randint(0, 5))]
            l_b = [_snip(u) for u in rng.sample(hosts, rng.randint(0, 5))]
            forward, backward = usr(l_a, l_b), usr(l_b, l_a)
            assert forward == backward
            assert 0.0 <= forward.value <= 1.0

    def test_fixture_contexts(self, gateway20):
        alice, _ = fetch_actor_context(Actor(name=ACTORS[0]), gateway20)
        bob, _ = fetch_actor_context(Actor(name=ACTORS[1]), gateway20)
        score = usr(alice, bob)
        assert score.value == pytest.approx(1 / 3)
        assert score.shared_domains == frozenset({"netsci.org"})


class TestLabelEdge:
    EVIDENCE = [
        _snip("http://conf.example.com/papers/graph-mining"),
        _snip("http://www.example.com/papers/2010"),
    ]

    def test_path_tokens_ranked_by_count(self):
        result = label_edge(self.EVIDENCE, max_labels=3)
        assert result.labels == (("papers", 2), ("2010", 1), ("conf", 1))
        assert result.source == "url_path"

    def test_rightmost_two_host_labels_never_label(self):
        result = label_edge([_snip("http://deep.example.com/x")], max_labels=5)
        assert all(token != "example" for token, _ in result.labels)
        assert ("deep", 1) in result.labels

    def test_title_tokens_participate(self):
        result = label_edge([_snip("http://a.com/x", title="Quantum Chemistry")], max_labels=5)
        assert dict(result.labels) == {"quantum": 1, "chemistry": 1}
        assert result.source == "title"

    def test_source_prefers_url_over_title_on_tie(self):
        snips = [_snip("http://a.com/quantum", title="quantum stuff")]
        result = label_edge(snips, max_labels=1)
        assert result.labels == (("quantum", 2),)
        assert result.source == "url_path"

    def test_no_evidence_yields_empty_labels(self):
        assert label_edge([], max_labels=3) == EdgeLabels(labels=(), source=None)

    def test_short_and_generic_tokens_dropped(self):
        result = label_edge([_snip("http://a.com/to/www/index.html")], max_labels=5)
        assert result.labels == ()

    def test_max_labels_truncates_stably(self):
        all_three = label_edge(self.EVIDENCE, max_labels=3).labels
        just_one = label_edge(self.EVIDENCE, max_labels=1).labels
        assert all_three[:1] == just_one

    def test_max_labels_must_be_positive(self):
        with pytest.raises(ValueError):
            label_edge(self.EVIDENCE, max_labels=0)
