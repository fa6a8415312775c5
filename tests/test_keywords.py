import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import corpus_from_rows, oracle_tokenize, read_json
from corpusdata import ACTORS
from snippetnet import cli
from snippetnet.backends import FixtureBackend
from snippetnet.corpus import load_corpus
from snippetnet.errors import ConfigError
from snippetnet.gateway import SearchGateway
from snippetnet.keywords import document_frequencies, extract_keywords, fetch_actor_context, load_keyword_overrides
from snippetnet.queries import build_query
from snippetnet.relations import Actor
from snippetnet.snippets import Snippet, parse_url
from snippetnet.text import STOPWORDS, tokenize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpusgen  # noqa: E402  (perfbench's seeded corpus generator)
import run as perfbench_run  # noqa: E402  (for the smoke shape)


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

    def test_top_k_is_prefix_of_larger_k(self):
        four = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 4)
        two = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 2)
        assert four[:2] == two

    def test_stopwords_and_short_tokens_dropped(self):
        assert extract_keywords([_snip("The of it", "an ox to go")], {}, 0, 10) == ()

    def test_tokens_in_stopwords_are_no_candidates(self):
        ranked = extract_keywords(self.SNIPPETS, self.DOC_FREQ, 5, 4, STOPWORDS | {"alice", "mining"})
        assert [term for term, _ in ranked] == ["studies", "graph"]


class TestDocumentFrequencies:
    def test_matches_per_document_token_scan(self, gateway20):
        contexts = fetch_actor_context([Actor(name) for name in ACTORS], gateway20)
        collection = {snippet for snippets, _ in contexts.values() for snippet in snippets}
        oracle = Counter(token for s in collection for token in set(oracle_tokenize(f"{s.title} {s.abstract}")))
        assert len(collection) > 10
        assert document_frequencies(collection) == oracle

    def test_ubiquitous_token_has_full_frequency(self):
        collection = [_snip(f"Graph {word}", f"graph graph {word}") for word in ("census", "transit", "mining")]
        assert document_frequencies(collection) == {"graph": 3, "census": 1, "transit": 1, "mining": 1}

    def test_non_ascii_repeats_stopwords_and_short_tokens(self):
        snippets = [
            _snip("Café İstanbul \u212aELVIN", "kelvin KELVIN café of the ox"),
            _snip("Kelvin", "and Cafe at it"),
        ]
        # "Café" gives "café", not "cafe"; "İstanbul" lowercases to "i", a
        # combining dot and "stanbul", one token; the Kelvin sign lowercases
        # to "k", so every spelling of kelvin is one token, counted once per
        # snippet however often it repeats there.
        assert document_frequencies(snippets) == {"café": 1, "i\u0307stanbul": 1, "kelvin": 2, "cafe": 1}

    def test_a_snippet_on_two_pages_counts_once(self):
        # The collection is the distinct snippets of all pages: here 3, not 4.
        shared = _snip("Graph", "mining")
        contexts = {"a": ((shared, _snip("Graph", "census")), 2), "b": ((shared, _snip("Transit", "talks")), 2)}
        ranked = {actor_id: dict(terms) for actor_id, terms in cli._rank_keywords(contexts, [], 10).items()}
        assert ranked["a"] == {"census": math.log(3 / 2), "mining": math.log(3 / 2), "graph": 0.0}
        assert ranked["b"]["talks"] == ranked["b"]["transit"] == math.log(3 / 2)

    def test_counts_the_original_title_and_body_never_the_url(self, tmp_path):
        # A snippet shows its row's title and body[:200] exactly, whatever
        # control character, line separator, U+00FF or lone surrogate they
        # hold; its tokens are counted as the tokenizer reads those strings,
        # whatever a newline, the Kelvin sign, a dotted I or a final sigma
        # does, and no token of its url is.
        rng = random.Random(23)
        pieces = ["graph", "Census", "TRANSIT", "\n", " ", "\u212aelvin", "\u212a", "İ", "İstanbul",
                  "ΟΔΟΣ", "Σ", "ς", "'", "\u0307", "é", "of", "x1", "-", ".", "Mining",
                  "\x00", "\x01", "\x1f", "\u2028", "ÿ", "\ud800", "\udcff"]

        def text(count):
            return "".join(rng.choice(pieces) for _ in range(count))

        rows = [{"id": i, "url": f"http://urlonly{i}.example/İ{text(3)}\nurlpath{text(4)}", "title": text(6),
                 "body": text(rng.randint(0, 300))} for i in range(1, 301)]
        path = tmp_path / "odd.jsonl"  # a lone surrogate written raw, read back through surrogatepass
        lines = [json.dumps(row, ensure_ascii=False) + "\n" for row in rows]
        path.write_bytes("".join(lines).encode("utf-8", "surrogatepass"))
        corpus = load_corpus(path)
        assert corpus == corpus_from_rows(rows)
        backend = FixtureBackend(corpus)
        collection = []
        for row in rows:
            (snippet,) = backend.search(build_query([f"urlonly{row['id']}.example"])).snippets
            assert snippet == (parse_url(row["url"]), row["title"].strip(), row["body"][:200].strip())
            collection.append(snippet)
        expected = Counter(token for row in rows for token in set(oracle_tokenize(f"{row['title']} {row['body'][:200]}")))
        counted = document_frequencies(collection)
        assert counted == expected
        assert not [token for token in counted if token.startswith(("urlonly", "urlpath"))]


@pytest.mark.parametrize("source", ["demo", "corpusgen-smoke-1", "corpusgen-smoke-5"])
def test_no_automatic_keyword_is_a_token_of_an_actor_name(source, tmp_path):
    # An actor's own name narrows nothing, and a partner's turns the narrowed
    # singleton into the pair query, so no name token of the run is a keyword.
    if source == "demo":
        actors_file, corpus_file = ROOT / "demo" / "actors.txt", ROOT / "demo" / "corpus.jsonl"
    else:
        seed = int(source.rpartition("-")[2])
        actors_file, corpus_file = corpusgen.write(corpusgen.generate(perfbench_run.SMOKE, seed), tmp_path)
    actors = cli.load_actors(actors_file)
    names = {token for actor in actors for token in tokenize(actor.name)}
    network, _, _ = cli.extract(actors, SearchGateway(FixtureBackend(load_corpus(corpus_file))),
                                threshold=0.0, variant="srwk")
    used = [term for edge in network.edges for term in edge.weight.keywords_used or ()]
    assert used and not names.intersection(used)

    out = tmp_path / "keywords.json"
    argv = ["keywords", "--actors", str(actors_file), "--corpus", str(corpus_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    ranked = [entry["term"] for actor in read_json(out).values() for entry in actor["keywords"]]
    assert ranked and not names.intersection(ranked)


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
        with pytest.raises(ConfigError):
            load_keyword_overrides(path, ACTOR_IDS)
