import json
import math
import random
from collections import Counter

import pytest

from conftest import corpus_from_rows, regex_tokenize
from corpusdata import ACTORS
from snippetnet.backends import FixtureBackend
from snippetnet.corpus import load_corpus
from snippetnet.keywords import (
    classify_attribute,
    document_frequencies,
    extract_keywords,
    fetch_actor_context,
    load_keyword_overrides,
)
from snippetnet.queries import build_query
from snippetnet.relations import Actor
from snippetnet.snippets import Snippet, parse_url
from snippetnet.text import tokenize


def _snip(title, abstract):
    return Snippet(url=parse_url("http://a.com"), title=title, abstract=abstract)


class TestFetchActorContext:
    def test_returns_snippets_and_hit_count(self, gateway20):
        alice = Actor(name=ACTORS[0])
        snippets, count = fetch_actor_context([alice], gateway20)[alice.id]
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


class TestDocumentFrequencies:
    def test_matches_per_document_token_scan(self, corpus20_rows, corpus20):
        oracle: dict = {}
        for row in corpus20_rows:
            for token in set(regex_tokenize(f"{row['title']} {row['body']}")):
                oracle[token] = oracle.get(token, 0) + 1
        assert document_frequencies(corpus20) == oracle

    def test_ubiquitous_token_has_full_frequency(self, corpus20):
        assert document_frequencies(corpus20)["research"] == len(corpus20)

    def test_non_ascii_repeats_stopwords_and_short_tokens(self):
        corpus = corpus_from_rows([
            {"id": 1, "url": "http://a.org/1", "title": "Café İstanbul \u212aELVIN",
             "body": "kelvin KELVIN café of the ox"},
            {"id": 2, "url": "http://a.org/2", "title": "Kelvin", "body": "and Cafe at it"},
        ])
        # "café" gives "caf", "İstanbul" gives "i" and "stanbul"; the Kelvin
        # sign lowercases to "k", so every spelling of kelvin is one token,
        # counted once per document however often it repeats there.
        assert document_frequencies(corpus) == {"caf": 1, "stanbul": 1, "kelvin": 2, "cafe": 1}

    def test_counts_the_original_title_and_body_never_the_url(self, tmp_path):
        # The records keep one lowercased text per document; counting its
        # title-and-body part must give the tokens of the original strings,
        # whatever a newline, the Kelvin sign, a dotted I or a final sigma does.
        # Each snippet must show its row's fields exactly, whatever control
        # character, line separator, U+00FF or lone surrogate they hold.
        rng = random.Random(23)
        pieces = ["graph", "Census", "TRANSIT", "\n", " ", "\u212aelvin", "\u212a", "İ", "İstanbul",
                  "ΟΔΟΣ", "Σ", "ς", "'", "\u0307", "é", "of", "x1", "-", ".", "Mining",
                  "\x00", "\x01", "\x1f", "\u2028", "ÿ", "\ud800", "\udcff"]

        def text(count):
            return "".join(rng.choice(pieces) for _ in range(count))

        rows = [{"id": i, "url": f"http://urlonly{i}.example/İ{text(3)}\nurlpath{text(4)}", "title": text(6),
                 "body": text(rng.randint(0, 40))} for i in range(1, 301)]
        path = tmp_path / "odd.jsonl"  # a lone surrogate written raw, read back through surrogatepass
        lines = [json.dumps(row, ensure_ascii=False) + "\n" for row in rows]
        path.write_bytes("".join(lines).encode("utf-8", "surrogatepass"))
        corpus = load_corpus(path)
        assert corpus == corpus_from_rows(rows)
        expected = Counter(token for row in rows for token in set(tokenize(f"{row['title']} {row['body']}")))
        counted = document_frequencies(corpus)
        assert counted == expected
        assert not [token for token in counted if token.startswith(("urlonly", "urlpath"))]
        backend = FixtureBackend(corpus)
        for row in rows:
            (snippet,) = backend.search(build_query([f"urlonly{row['id']}.example"])).snippets
            assert snippet == (parse_url(row["url"]), row["title"].strip(), row["body"][:200].strip())


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


ACTOR_IDS = [Actor(name).id for name in ACTORS]


class TestKeywordOverrides:
    def test_plain_list_shape(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps({"alice-nguyen": ["graph", "mining"]}), encoding="utf-8")
        assert load_keyword_overrides(path, ACTOR_IDS) == {"alice-nguyen": "graph"}

    def test_keyword_command_output_shape(self, tmp_path):
        path = tmp_path / "kw.json"
        payload = {"alice-nguyen": {"keywords": [{"term": "graph", "score": 1.5}], "name": "Alice Nguyen"}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_keyword_overrides(path, ACTOR_IDS) == {"alice-nguyen": "graph"}

    def test_first_term_trimmed_and_empty_list_gives_no_keyword(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps({"alice-nguyen": [], "bob-santos": [" graph ", "mining"]}), encoding="utf-8")
        assert load_keyword_overrides(path, ACTOR_IDS) == {"bob-santos": "graph"}

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"alice-nguyen": ["graph"]}).encode("utf-8"))
        assert load_keyword_overrides(path, ACTOR_IDS) == {"alice-nguyen": "graph"}

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps({"alice-nguyen": 42}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_keyword_overrides(path, ACTOR_IDS)
