import json
import math

import pytest

from corpusdata import ACTORS
from snippetnet.keywords import (
    classify_attribute,
    document_frequencies,
    extract_keywords,
    fetch_actor_context,
    load_keyword_overrides,
)
from snippetnet.relations import Actor
from snippetnet.snippets import Snippet, parse_url
from snippetnet.text import tokenize


def _snip(title, abstract):
    return Snippet(url=parse_url("http://a.com"), title=title, abstract=abstract)


class TestFetchActorContext:
    def test_returns_snippets_and_hit_count(self, gateway20):
        alice = Actor(name=ACTORS[0])
        snippets, count = fetch_actor_context(alice, gateway20)
        assert count == 4
        assert len(snippets) == 4
        assert all("alice nguyen" in f"{s.title} {s.abstract}".lower() for s in snippets)


class TestExtractKeywords:
    # two snippets giving term frequencies graph=3, mining=2, studies=2,
    # alice=1, against a five-document universe
    SNIPPETS = [
        _snip("Graph mining", "graph mining studies"),
        _snip("Graph studies", "Alice"),
    ]
    DOC_FREQ = {"graph": 4, "mining": 1, "studies": 1, "alice": 2}

    def test_ranking_matches_hand_computation(self):
        ranked = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 4)
        assert isinstance(ranked, tuple)
        terms = [term for term, _ in ranked]
        assert terms == ["mining", "studies", "alice", "graph"]
        scores = dict(ranked)
        assert scores["mining"] == pytest.approx(2 * math.log(5 / 2), abs=1e-12)
        assert scores["studies"] == pytest.approx(2 * math.log(5 / 2), abs=1e-12)
        assert scores["alice"] == pytest.approx(math.log(5 / 3), abs=1e-12)
        assert scores["graph"] == 0.0  # ln(5 / (1 + 4)) is exactly zero

    def test_scores_never_negative(self):
        ranked = extract_keywords(self.SNIPPETS, {"graph": 9, "mining": 9, "studies": 9, "alice": 9}, 5, 4)
        assert all(score == 0.0 for _, score in ranked)

    def test_unknown_universe_degrades_to_term_frequency(self):
        assert extract_keywords(self.SNIPPETS, {}, 0, 4)[0] == ("graph", 3.0)

    def test_top_k_is_prefix_of_larger_k(self):
        four = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 4)
        two = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 2)
        assert four[:2] == two

    def test_stopwords_and_short_tokens_dropped(self):
        assert extract_keywords([_snip("The of it", "an ox to go")], {}, 0, 10) == ()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_keywords(self.SNIPPETS, {}, 5, 0)


class TestDocumentFrequencies:
    def test_matches_per_document_token_scan(self, corpus20_rows, corpus20):
        oracle: dict = {}
        for row in corpus20_rows:
            for token in set(tokenize(f"{row['title']} {row['body']}")):
                oracle[token] = oracle.get(token, 0) + 1
        assert document_frequencies(corpus20) == oracle

    def test_ubiquitous_token_has_full_frequency(self, corpus20):
        assert document_frequencies(corpus20)["research"] == corpus20.universe_size


class TestClassifyAttribute:
    @pytest.mark.parametrize(
        "term,kind",
        [
            ("budi@cs.ui.ac.id", "stable"),
            ("a@b", "stable"),
            ("jakarta", "flexible"),
            ("data-mining", "flexible"),
            ("@", "flexible"),
            ("@example.com", "flexible"),
            ("user@", "flexible"),
            ("a b@c", "flexible"),
            ("a@@b", "flexible"),
        ],
    )
    def test_kinds(self, term, kind):
        assert classify_attribute(term) == kind

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_attribute("")


class TestKeywordOverrides:
    def test_plain_list_shape(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps({"alice-nguyen": ["graph", "mining"]}), encoding="utf-8")
        assert load_keyword_overrides(path) == {"alice-nguyen": ["graph", "mining"]}

    def test_keyword_command_output_shape(self, tmp_path):
        path = tmp_path / "kw.json"
        payload = {"alice-nguyen": {"keywords": [{"term": "graph", "score": 1.5}], "name": "Alice Nguyen"}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_keyword_overrides(path) == {"alice-nguyen": ["graph"]}

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps({"alice-nguyen": 42}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_keyword_overrides(path)
