import json
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import corpusdata
from conftest import corpus_from_rows, make_gateway, scan_count, scan_matches
from snippetnet.backends import PAGE_SIZE, FixtureBackend, LiveBackend
from snippetnet.cli import extract, load_actors, main
from snippetnet.corpus import ABSTRACT_LENGTH, FixtureDocument, load_corpus
from snippetnet.errors import BackendError, ConfigError
from snippetnet.gateway import SearchGateway
from snippetnet.queries import build_query
from snippetnet.relations import Actor, detect_all

DEMO = Path(__file__).resolve().parent.parent / "demo"

# Names where one is a prefix of another ("Ana Santoso 1" occurs inside
# "Ana Santoso 12"), so substring matching must not be mistaken for word matching.
INDEX_NAMES = ["Ana Santoso 1", "Ana Santoso 12", "Ana Santoso 2", "Budi Hartono", "Citra Dewi"]
INDEX_WORDS = ["graph", "census", "transit", "research", "workshop"]


def index_rows(seed=7, count=120):
    """corpus20 plus rows mixing prefix names, topic words and url-only hosts."""
    rng = random.Random(seed)
    rows = corpusdata.corpus20()
    for doc_id in range(len(rows) + 1, len(rows) + 1 + count):
        title_names = rng.sample(INDEX_NAMES, k=rng.randint(0, 2))
        body_words = rng.sample(INDEX_NAMES + INDEX_WORDS, k=rng.randint(0, 4))
        rows.append({
            "id": doc_id,
            "url": f"http://{rng.choice(['citylab', 'uni', 'press'])}.example/{doc_id}",
            "title": " and ".join(title_names) or "Untitled",
            "body": "Notes on " + ", ".join(rng.choice([w, w.upper()]) for w in body_words) + ".",
        })
    return rows


def random_phrases(rng):
    pool = (
        INDEX_NAMES + INDEX_WORDS + corpusdata.ACTORS
        + ["citylab", "ANA SANTOSO 1", "budi HARTONO", "no such phrase", "Santoso 12 and"]
        # Spans a title/body boundary, so it matches only if fields run together.
        + ["untitledNotes on"]
    )
    phrases = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        phrases.append(phrases[0])
    return phrases


def oracle_result(rows, phrases):
    ids = scan_matches(rows, phrases)
    url_by_id = {row["id"]: row["url"] for row in rows}
    return len(ids), [url_by_id[doc_id] for doc_id in ids[:PAGE_SIZE]]


class TestCorpusLoader:
    def test_roundtrip(self, tmp_path, corpus20_rows):
        path = tmp_path / "corpus.jsonl"
        corpusdata.write_jsonl(path, corpus20_rows)
        corpus = load_corpus(path)
        assert corpus == corpus_from_rows(corpus20_rows)
        assert len(corpus) == 20
        assert corpus[0].shown()[0] == "Community Detection Workshop"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = [
            {"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"},
            {"id": 1, "url": "http://b.com/y", "title": "t", "body": "b"},
        ]
        corpusdata.write_jsonl(path, rows)
        with pytest.raises(ConfigError):
            load_corpus(path)

    def test_descending_ids_rejected(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        rows = [
            {"id": 2, "url": "http://a.com/x", "title": "t", "body": "b"},
            {"id": 1, "url": "http://b.com/y", "title": "t", "body": "b"},
        ]
        corpusdata.write_jsonl(path, rows)
        with pytest.raises(ConfigError):
            load_corpus(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"id": 1, "url": "http://a.com/x", "title": "t"}\n', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_corpus(path)

    @pytest.mark.parametrize("line, error", [
        ("not json", "invalid JSON: Expecting value"),
        # The row parses, so load_corpus's raw_decode returns; decode then reports the rest.
        ('{"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"} {"id": 2}', "invalid JSON: Extra data"),
    ], ids=["no-json", "text-after-the-row"])
    def test_bad_json_rejected(self, tmp_path, line, error):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: {error}"):
            load_corpus(path)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_corpus(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_raw_line_separator_inside_a_string_loads(self, tmp_path, separator):
        # json.dumps(ensure_ascii=False) writes these characters unescaped;
        # they end a line for str.splitlines() but not for a JSON Lines reader.
        path = tmp_path / "sep.jsonl"
        rows = [
            {"id": 1, "url": "http://a.com/x", "title": "t", "body": f"before{separator}Alice Nguyen after"},
            {"id": 2, "url": "http://b.com/y", "title": "t", "body": "plain"},
        ]
        path.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )
        assert separator in path.read_text(encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus[0] == FixtureDocument(1, rows[0]["url"], rows[0]["title"], rows[0]["body"])
        assert corpus[0].shown()[1] == rows[0]["body"]
        result = FixtureBackend(corpus).search(build_query(["Alice Nguyen after"]))
        assert result.hit_count == 1
        assert result.snippets[0].url.render() == "http://a.com/x"

    def test_invalid_utf8_is_a_corpus_error_naming_the_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(
            b'{"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"}\n'
            b'{"id": 2, "url": "http://b.com/y", "title": "caf\xe9", "body": "b"}\n'
        )
        with pytest.raises(ConfigError, match=r":2: invalid JSON"):
            load_corpus(path)

    def test_byte_order_mark_at_the_start_of_a_line_is_skipped(self, tmp_path, corpus20_rows):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        corpusdata.write_jsonl(plain, corpus20_rows)
        lines = plain.read_bytes().split(b"\n")
        lines[0] = b"\xef\xbb\xbf" + lines[0]
        lines[2] = b"\xef\xbb\xbf" + lines[2]
        marked.write_bytes(b"\n".join(lines))
        assert load_corpus(marked) == load_corpus(plain)

    @pytest.mark.parametrize("line", [b"\xef\xbb\xbf", b"\xef\xbb\xbf \t\r"], ids=["mark", "mark-and-spaces"])
    def test_a_line_of_only_a_byte_order_mark_is_blank(self, tmp_path, corpus20_rows, line):
        # Line 1 is skipped like a blank line; the mark before the row on line 2 is skipped too.
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        corpusdata.write_jsonl(plain, corpus20_rows)
        marked.write_bytes(line + b"\n\xef\xbb\xbf" + plain.read_bytes())
        assert load_corpus(marked) == load_corpus(plain)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32"])
    def test_line_in_another_unicode_encoding_is_exit_2_naming_it(self, tmp_path, capsys, encoding):
        corpus, actors = tmp_path / "wide.jsonl", tmp_path / "actors.txt"
        row = {"id": 1, "url": "http://a.com/x", "title": "Alice Nguyen", "body": "Bob Santos"}
        corpus.write_bytes(json.dumps(row).encode(encoding))
        actors.write_text("Alice Nguyen\nBob Santos\n", encoding="utf-8")
        code = main(["extract", "--actors", str(actors), "--corpus", str(corpus), "--threshold", "0",
                     "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "net.json")])
        assert code == 2
        assert f"{corpus}:1: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("id", True), ("id", 2.9), ("id", "3"), ("url", ["http://a.com/x"]), ("title", None), ("body", 12)],
        ids=["id-true", "id-float", "id-string", "url-list", "title-null", "body-number"],
    )
    def test_field_of_the_wrong_type_is_rejected_naming_the_line(self, tmp_path, field, value):
        # Coercing would load true as id 1, a null title as the searchable text "None".
        path = tmp_path / "typed.jsonl"
        rows = [
            {"id": 0, "url": "http://a.com/x", "title": "t", "body": "b"},
            {"id": 3, "url": "http://b.com/y", "title": "t", "body": "b"},
        ]
        rows[1][field] = value
        corpusdata.write_jsonl(path, rows)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2: "):
            load_corpus(path)

    def test_unparseable_url_rejected(self, tmp_path):
        path = tmp_path / "nourl.jsonl"
        for url in ("no-scheme-here", "http:///path", "://host/x"):
            rows = [{"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"},
                    {"id": 2, "url": url, "title": "t", "body": "b"}]
            corpusdata.write_jsonl(path, rows)
            with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2: url does not parse"):
                load_corpus(path)
        # A host is kept as read, even one XML cannot hold: it reaches DOT and GraphML only as tokens.
        for url in ("http://lab\u0001x.dept.example.org/p", "http://lab\ud800x.dept.example.org/p",
                    "http://lab.example\uffff.org/p"):
            rows = [{"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"},
                    {"id": 2, "url": url, "title": "odd host", "body": "b"}]
            corpusdata.write_jsonl(path, rows)
            (snippet,) = FixtureBackend(load_corpus(path)).search(build_query(["odd host"])).snippets
            assert snippet.url.render() == url

    def test_the_loaded_backend_holds_about_one_copy_of_the_text(self, tmp_path):
        # Each record keeps one lowercased copy of its text and a short
        # abstract, and the backend adds no copy of its own.
        rng = random.Random(17)
        words = INDEX_WORDS + ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        rows = []
        for doc_id in range(1, 501):
            body = " ".join(rng.choice(words) for _ in range(1200))[:5000]
            rows.append({"id": doc_id, "url": f"http://site{doc_id % 9}.example/doc/{doc_id}",
                         "title": f"Document {doc_id} on {rng.choice(words)}", "body": body})
        path = tmp_path / "long.jsonl"
        corpusdata.write_jsonl(path, rows)
        text_length = sum(len(row["url"]) + len(row["title"]) + len(row["body"]) for row in rows)
        tracemalloc.start()
        try:
            backend = FixtureBackend(load_corpus(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(backend.documents) == 500
        assert retained / text_length < 1.5
        assert peak / text_length < 1.5

    def test_a_loaded_document_costs_little_beyond_its_characters(self, tmp_path):
        # Each record is a text and a packed page, so what a short document
        # costs beyond its characters is those two objects and the record.
        rows = [{"id": doc_id, "url": f"http://site{doc_id % 7}.example/d/{doc_id}",
                 "title": f"Note {doc_id}", "body": f"Ann Lee and Bo Chen on item {doc_id}."}
                for doc_id in range(1, 2001)]
        path = tmp_path / "short.jsonl"
        corpusdata.write_jsonl(path, rows)
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The text, and the title, abstract and url a snippet shows, each
        # with its separators; all ASCII, so a byte a character.
        characters = sum(len(f"{row['title']}\n{row['body']}\n{row['url']}")
                         + len(f"{row['title']}\xff{row['body']}\xff{row['url']}") for row in rows)
        assert len(corpus) == 2000
        assert (retained - characters) / len(corpus) < 200


class TestFixtureSearch:
    def test_counts_against_scan_oracle_single_phrases(self, corpus20, corpus20_rows):
        for phrase in corpusdata.ACTORS + ["graph", "research", "no such thing at all"]:
            result = FixtureBackend(corpus20).search(build_query([phrase]))
            assert result.hit_count == scan_count(corpus20_rows, [phrase])

    def test_counts_against_scan_oracle_pairs(self, corpus20, corpus20_rows):
        names = corpusdata.ACTORS
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                phrases = [names[i], names[j]]
                result = FixtureBackend(corpus20).search(build_query(phrases))
                assert result.hit_count == scan_count(corpus20_rows, phrases)

    def test_match_is_case_insensitive(self, corpus20):
        upper = FixtureBackend(corpus20).search(build_query(["ALICE NGUYEN"]))
        lower = FixtureBackend(corpus20).search(build_query(["alice nguyen"]))
        assert upper.hit_count == lower.hit_count == 4

    def test_url_text_counts_for_matching(self, corpus20, corpus20_rows):
        # "citylab" appears only in urls of docs 8 and 9
        result = FixtureBackend(corpus20).search(build_query(["citylab"]))
        assert result.hit_count == scan_count(corpus20_rows, ["citylab"]) == 2

    def test_snippets_are_first_page_in_ascending_id_order(self, corpus20, corpus20_rows):
        result = FixtureBackend(corpus20).search(build_query(["research"]))
        assert result.hit_count == 20
        assert len(result.snippets) == PAGE_SIZE == 10
        expected_urls = [row["url"] for row in corpus20_rows[:PAGE_SIZE]]
        assert [s.url.render() for s in result.snippets] == expected_urls

    def test_abstract_is_body_prefix(self, corpus20, corpus20_rows):
        result = FixtureBackend(corpus20).search(build_query(["Methods Seminar Notes"]))
        assert result.hit_count == 1
        snippet = result.snippets[0]
        long_body = corpus20_rows[2]["body"]
        assert snippet.abstract == long_body[:ABSTRACT_LENGTH]
        assert len(snippet.abstract) == ABSTRACT_LENGTH
        assert "carol reyes" not in snippet.abstract.lower()

    def test_zero_hits_zero_snippets(self, corpus20):
        result = FixtureBackend(corpus20).search(build_query(["xyzzy not present"]))
        assert result.hit_count == 0
        assert result.snippets == ()

    def test_deterministic(self, corpus20):
        q = build_query(["Alice Nguyen"])
        assert FixtureBackend(corpus20).search(q) == FixtureBackend(corpus20).search(q)

    def test_conjunction_shrinks_hits(self, corpus20, corpus20_rows):
        # adding a phrase can never add matches
        rng = random.Random(42)
        words = ["research", "graph", "transit", "census", "Alice Nguyen", "Bob Santos", "calibration"]
        for _ in range(100):
            base = rng.sample(words, k=rng.randint(1, 2))
            extended = base + [rng.choice(words)]
            few = FixtureBackend(corpus20).search(build_query(extended)).hit_count
            many = FixtureBackend(corpus20).search(build_query(base)).hit_count
            assert few <= many
            assert few == scan_count(corpus20_rows, extended)

    def test_snippet_count_never_exceeds_hit_count_or_page(self, corpus20):
        # "research" has 20 hits, so its page is cut; the others fit on it.
        for phrase in ["research", "graph", "Erin Walsh", "absent phrase"]:
            result = FixtureBackend(corpus20).search(build_query([phrase]))
            assert len(result.snippets) == min(result.hit_count, PAGE_SIZE)

    def test_one_backend_answers_many_queries_like_the_scan_oracle(self):
        rows = index_rows()
        backend = FixtureBackend(corpus_from_rows(rows))
        rng = random.Random(2024)
        for _ in range(300):
            phrases = random_phrases(rng)
            result = backend.search(build_query(phrases))
            hit_count, urls = oracle_result(rows, phrases)
            assert result.hit_count == hit_count, phrases
            assert [s.url.render() for s in result.snippets] == urls, phrases

    def test_documents_are_read_once_not_once_per_query(self, corpus20_rows):
        # A document is lowercased once, when its record is built from the row.
        # The backend keeps the records themselves, and a query reads only the
        # lowercased text; a document's packed page is read the first time the
        # document reaches a result page, and never again.
        reads = Counter()

        class CountingDocument:
            shown = FixtureDocument.shown

            def __init__(self, row):
                self.record = FixtureDocument(row["id"], row["url"], row["title"], row["body"])
                self.text = self.record.text

            def __getattr__(self, name):  # every field but text
                reads[name] += 1
                return getattr(self.record, name)

        corpus = tuple(CountingDocument(row) for row in corpus20_rows)
        backend = FixtureBackend(corpus)
        assert backend.documents is corpus and not reads
        rng = random.Random(5)
        returned, shown = 0, set()
        for _ in range(200):
            result = backend.search(build_query(random_phrases(rng)))
            returned += len(result.snippets)
            shown.update(snippet.url for snippet in result.snippets)  # corpus20's urls are unique
        assert returned > len(shown) > 0
        assert reads == {"page": len(shown)}

    def test_a_cold_srwk_run_scans_the_corpus_at_most_once_per_actor_name_and_never_for_a_keyword(self):
        # A phrase is scanned for over the whole corpus only on a miss of the
        # phrase memo; every later query checks it inside known matches.
        class RecordingMemo(dict):
            def __setitem__(self, phrase, positions):
                scanned.append(phrase)
                super().__setitem__(phrase, positions)

        scanned, asked = [], []
        corpus = load_corpus(DEMO / "corpus.jsonl")
        backend = FixtureBackend(corpus)
        backend._positions = RecordingMemo()

        def search(query, search=backend.search):
            asked.extend(query.terms)
            return search(query)

        backend.search = search
        actors = load_actors(DEMO / "actors.txt")
        _, _, counts = extract(actors, SearchGateway(backend), threshold=0.2, variant="srwk")
        names = {actor.name.lower() for actor in actors}
        keywords = {term.lower() for term in asked} - names
        assert counts["keyword_queries"] > 0 and keywords
        assert len(scanned) == len(set(scanned))
        assert set(scanned) <= names


class TestFixtureSearchThreads:
    @pytest.mark.parametrize("deferred", [False, True], ids=["corpus", "corpus-parsed-at-first-search"])
    def test_shared_backend_under_many_threads_matches_the_oracle(self, deferred):
        # Each round starts eight threads on a fresh backend at once, so they
        # race to fill the same unseen phrases, and, deferred, to parse the
        # corpus, which happens once; every answer must match the scan.
        rows = index_rows(seed=11, count=400)
        corpus = corpus_from_rows(rows)
        rng = random.Random(99)
        cases = [random_phrases(rng) for _ in range(40)]
        expected = [oracle_result(rows, phrases) for phrases in cases]
        mismatches = []
        finished = []

        def worker(backend, start, seed):
            order = list(range(len(cases)))
            random.Random(seed).shuffle(order)
            start.wait(timeout=60)
            for i in order:
                result = backend.search(build_query(cases[i]))
                if (result.hit_count, [s.url.render() for s in result.snippets]) != expected[i]:
                    mismatches.append(cases[i])
            finished.append(seed)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                parsed = []

                def parse(round_=round_, parsed=parsed):
                    time.sleep(0.001)  # long enough for every thread to reach the lock
                    parsed.append(round_)
                    return corpus

                backend = FixtureBackend(parse if deferred else corpus)
                start = threading.Barrier(8)
                threads = [
                    threading.Thread(target=worker, args=(backend, start, round_ * 8 + k))
                    for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert parsed == ([round_] if deferred else [])
        finally:
            sys.setswitchinterval(previous)
        assert len(finished) == 80
        assert mismatches == []

    def test_detect_all_with_eight_threads_matches_serial(self):
        rows = index_rows(seed=13, count=300)
        actors = [Actor(name) for name in INDEX_NAMES + corpusdata.ACTORS]
        corpus = corpus_from_rows(rows)
        serial = detect_all(actors, make_gateway(corpus, parallelism=1))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = detect_all(actors, make_gateway(corpus, parallelism=8))
        finally:
            sys.setswitchinterval(previous)
        assert threaded == serial
        assert any(item.detected for item in serial)


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
        result = backend.search(build_query(["alice"]))
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
            backend.search(build_query(["alice"]))
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
            backend.search(build_query(["alice"]))
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
