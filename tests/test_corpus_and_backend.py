import json
import random
from pathlib import Path

import pytest

import corpusdata
from conftest import scan_count
from snippetnet.backends import ABSTRACT_LENGTH, FixtureBackend, LiveBackend
from snippetnet.corpus import load_corpus
from snippetnet.errors import BackendError, CorpusError
from snippetnet.queries import build_query


class TestCorpusLoader:
    def test_roundtrip(self, tmp_path, corpus20_rows):
        path = tmp_path / "corpus.jsonl"
        corpusdata.write_jsonl(path, corpus20_rows)
        corpus = load_corpus(path)
        assert corpus.universe_size == 20
        assert corpus.documents[0].doc_id == 1
        assert corpus.documents[0].title == "Community Detection Workshop"
        assert corpus.documents[-1].doc_id == 20

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = [
            {"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"},
            {"id": 1, "url": "http://b.com/y", "title": "t", "body": "b"},
        ]
        corpusdata.write_jsonl(path, rows)
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_descending_ids_rejected(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        rows = [
            {"id": 2, "url": "http://a.com/x", "title": "t", "body": "b"},
            {"id": 1, "url": "http://b.com/y", "title": "t", "body": "b"},
        ]
        corpusdata.write_jsonl(path, rows)
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"id": 1, "url": "http://a.com/x", "title": "t"}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_unparseable_url_rejected(self, tmp_path):
        path = tmp_path / "nourl.jsonl"
        path.write_text(
            json.dumps({"id": 1, "url": "no-scheme-here", "title": "t", "body": "b"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError):
            load_corpus(path)


class TestFixtureSearch:
    def test_counts_against_scan_oracle_single_phrases(self, corpus20, corpus20_rows):
        for phrase in corpusdata.ACTORS + ["graph", "research", "no such thing at all"]:
            result = FixtureBackend(corpus20).search(build_query([phrase]), page_size=10)
            assert result.hit_count == scan_count(corpus20_rows, [phrase])

    def test_counts_against_scan_oracle_pairs(self, corpus20, corpus20_rows):
        names = corpusdata.ACTORS
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                phrases = [names[i], names[j]]
                result = FixtureBackend(corpus20).search(build_query(phrases), page_size=10)
                assert result.hit_count == scan_count(corpus20_rows, phrases)

    def test_match_is_case_insensitive(self, corpus20):
        upper = FixtureBackend(corpus20).search(build_query(["ALICE NGUYEN"]), page_size=10)
        lower = FixtureBackend(corpus20).search(build_query(["alice nguyen"]), page_size=10)
        assert upper.hit_count == lower.hit_count == 4

    def test_url_text_counts_for_matching(self, corpus20, corpus20_rows):
        # "citylab" appears only in urls of docs 8 and 9
        result = FixtureBackend(corpus20).search(build_query(["citylab"]), page_size=10)
        assert result.hit_count == scan_count(corpus20_rows, ["citylab"]) == 2

    def test_snippets_are_first_page_in_ascending_id_order(self, corpus20, corpus20_rows):
        result = FixtureBackend(corpus20).search(build_query(["research"]), page_size=5)
        assert result.hit_count == 20
        assert len(result.snippets) == 5
        expected_urls = [row["url"] for row in corpus20_rows[:5]]
        assert [s.url for s in result.snippets] == expected_urls

    def test_abstract_is_body_prefix(self, corpus20):
        result = FixtureBackend(corpus20).search(build_query(["Methods Seminar Notes"]), page_size=10)
        assert result.hit_count == 1
        snippet = result.snippets[0]
        long_body = corpus20.documents[2].body
        assert snippet.abstract == long_body[:ABSTRACT_LENGTH]
        assert len(snippet.abstract) == ABSTRACT_LENGTH
        assert "carol reyes" not in snippet.abstract.lower()

    def test_zero_hits_zero_snippets(self, corpus20):
        result = FixtureBackend(corpus20).search(build_query(["xyzzy not present"]), page_size=10)
        assert result.hit_count == 0
        assert result.snippets == ()

    def test_deterministic(self, corpus20):
        q = build_query(["Alice Nguyen"])
        assert FixtureBackend(corpus20).search(q, 10) == FixtureBackend(corpus20).search(q, 10)

    def test_conjunction_shrinks_hits(self, corpus20, corpus20_rows):
        # adding a phrase can never add matches
        rng = random.Random(42)
        words = ["research", "graph", "transit", "census", "Alice Nguyen", "Bob Santos", "calibration"]
        for _ in range(100):
            base = rng.sample(words, k=rng.randint(1, 2))
            extended = base + [rng.choice(words)]
            few = FixtureBackend(corpus20).search(build_query(extended), 10).hit_count
            many = FixtureBackend(corpus20).search(build_query(base), 10).hit_count
            assert few <= many
            assert few == scan_count(corpus20_rows, extended)

    def test_snippet_count_never_exceeds_hit_count_or_page(self, corpus20):
        for phrase in ["research", "graph", "Erin Walsh", "absent phrase"]:
            for page_size in (1, 3, 10, 50):
                result = FixtureBackend(corpus20).search(build_query([phrase]), page_size)
                assert len(result.snippets) <= min(result.hit_count, page_size)
                if result.hit_count <= page_size:
                    assert len(result.snippets) == result.hit_count


class TestLiveBackend:
    def test_maps_payload(self, monkeypatch):
        payload = {
            "hit_count": 3,
            "snippets": [{"url": "http://a.com/x", "title": "T", "abstract": "A"}],
        }

        class FakeResponse:
            def read(self):
                return json.dumps(payload).encode()

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        captured = {}

        def fake_urlopen(request, timeout):
            captured["url"] = request.full_url
            captured["auth"] = request.get_header("Authorization")
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend("http://search.example/api", api_key="k123")
        result = backend.search(build_query(["alice"]), page_size=10)
        assert result.hit_count == 3
        assert result.snippets[0].title == "T"
        assert "page_size=10" in captured["url"]
        assert captured["auth"] == "Bearer k123"

    def test_transport_failure_is_retryable(self, monkeypatch):
        import urllib.error

        def fake_urlopen(request, timeout):
            raise urllib.error.URLError("no route")

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend("http://search.example/api")
        with pytest.raises(BackendError) as info:
            backend.search(build_query(["alice"]), page_size=10)
        assert info.value.retryable is True

    def test_malformed_payload_is_not_retryable(self, monkeypatch):
        class FakeResponse:
            def read(self):
                return b"this is not json"

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: FakeResponse())
        backend = LiveBackend("http://search.example/api")
        with pytest.raises(BackendError) as info:
            backend.search(build_query(["alice"]), page_size=10)
        assert info.value.retryable is False


class TestDemoFilesInSync:
    def test_demo_corpus_matches_builder(self):
        demo = Path(__file__).resolve().parent.parent / "demo"
        rows = [json.loads(line) for line in (demo / "corpus.jsonl").read_text().splitlines() if line]
        assert rows == corpusdata.corpus20()

    def test_demo_actors_match(self):
        demo = Path(__file__).resolve().parent.parent / "demo"
        names = [
            line.strip()
            for line in (demo / "actors.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert names == corpusdata.ACTORS
