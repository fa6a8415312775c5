"""The live backend end to end over a loopback search service, and the one
answer reader it shares with the query cache.

The service answers each ``?q=`` by running the quoted phrases through a
FixtureBackend over the demo corpus, so a live run can be compared with a
fixture run edge for edge.
"""

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit
from xml.etree import ElementTree

import pytest

from conftest import mask_timestamps, read_json
from snippetnet.backends import FixtureBackend, LiveBackend
from snippetnet.cache import HEADER
from snippetnet.cli import main
from snippetnet.corpus import load_corpus
from snippetnet.errors import BackendError
from snippetnet.queries import build_query
from snippetnet.snippets import parse_url, snippet_record

DEMO = Path(__file__).resolve().parent.parent / "demo"


def corpus_answer(backend, q):
    result = backend.search(build_query(re.findall(r'"([^"]*)"', q)))
    body = {"hit_count": result.hit_count, "snippets": [snippet_record(s) for s in result.snippets]}
    return 200, json.dumps(body).encode("utf-8")


@pytest.fixture
def search_server():
    """A loopback search service; set ``server.answer(q)`` to replace its answers."""
    backend = FixtureBackend(load_corpus(DEMO / "corpus.jsonl"))

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            params = parse_qs(urlsplit(self.path).query)
            self.server.authorizations.append(self.headers.get("Authorization"))
            status, body = self.server.answer(params["q"][0])
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.answer = lambda q: corpus_answer(backend, q)
    server.authorizations = []
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/search"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def extract(tmp_path, backend, out_name="network.json", *flags, actors=DEMO / "actors.txt",
            corpus=DEMO / "corpus.jsonl", cache=None, threshold="0.2"):
    argv = [
        "extract", "--actors", str(actors), "--backend", backend,
        "--cache", str(cache or tmp_path / f"{backend}-cache.json"),
        "--threshold", threshold, "--out", str(tmp_path / out_name), *flags,
    ]
    if backend == "fixture":
        argv += ["--corpus", str(corpus)]
    code = main(argv)
    return code, tmp_path / out_name


class TestLoopback:
    def test_live_run_matches_fixture_run_and_replays_from_cache(
        self, tmp_path, search_server, monkeypatch
    ):
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        monkeypatch.setenv("SNIPPETNET_API_KEY", "k123")
        code, fixture_out = extract(tmp_path, "fixture", "fixture.json")
        assert code == 0
        code, live_out = extract(tmp_path, "live", "live.json")
        assert code == 0

        fixture_net, live_net = read_json(fixture_out), read_json(live_out)
        assert live_net["nodes"] == fixture_net["nodes"]
        assert live_net["edges"] == fixture_net["edges"]
        assert len(live_net["edges"]) == 2
        assert read_json(str(live_out) + ".report.json")["backend_calls"] == 19
        assert search_server.authorizations == ["Bearer k123"] * 19

        # The journal written from live answers replays through the same reader.
        code, rerun_out = extract(tmp_path, "live", "rerun.json")
        assert code == 0
        assert read_json(str(rerun_out) + ".report.json")["backend_calls"] == 0
        assert read_json(rerun_out)["edges"] == live_net["edges"]
        assert len(search_server.authorizations) == 19

    def test_live_and_fixture_srwk_write_the_same_network(self, tmp_path, search_server, monkeypatch):
        # srwk ranks keywords against the snippets of the context pages the
        # run fetched, so a live engine serving the demo documents picks the
        # fixture backend's keywords and writes its network, provenance aside.
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        written = {}
        for backend in ("live", "fixture"):
            code, out = extract(tmp_path, backend, f"{backend}.json", "--variant", "srwk", "--dump-evidence",
                                threshold="0")
            assert code == 0
            network = read_json(out)
            assert network.pop("provenance")["backend"] == backend
            evidence = Path(f"{out}.evidence.jsonl").read_bytes()
            written[backend] = network, evidence, read_json(f"{out}.report.json")["backend_calls"]
        assert written["live"] == written["fixture"]
        network, _, calls = written["live"]
        assert calls == 25
        assert {tuple(edge["pair"]): (edge["weight"]["keywords_used"], edge["weight"]["value"])
                for edge in network["edges"]} == {
            ("alice-nguyen", "bob-santos"): (["community", "community"], 1.0),
            ("david-kim", "erin-walsh"): (["mobility", "mobility"], 1.0),
        }

    def test_endpoint_with_its_own_query_string_keeps_it(self, tmp_path, search_server, monkeypatch):
        code, fixture_out = extract(tmp_path, "fixture", "fixture.json")
        assert code == 0
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint + "?engine=web")
        code, live_out = extract(tmp_path, "live", "live.json")
        assert code == 0
        assert read_json(live_out)["edges"] == read_json(fixture_out)["edges"]
        assert read_json(str(live_out) + ".report.json")["backend_calls"] == 19

    def test_infinite_hit_count_is_exit_4(self, tmp_path, search_server, monkeypatch, capsys):
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        search_server.answer = lambda q: (200, b'{"hit_count": Infinity, "snippets": []}')
        code, out = extract(tmp_path, "live")
        assert code == 4
        err = capsys.readouterr().err
        assert "malformed search response" in err
        assert "hit_count must be an integer >= 0, got inf" in err
        assert not out.exists()

    def test_server_error_is_exit_4(self, tmp_path, search_server, monkeypatch, capsys):
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        search_server.answer = lambda q: (503, b"{}")
        code, out = extract(tmp_path, "live")
        assert code == 4
        assert "HTTP 503" in capsys.readouterr().err
        assert len(search_server.authorizations) == 1
        assert not out.exists()


def written(out):
    """The network and evidence bytes of a run, timestamps masked."""
    return [mask_timestamps(Path(path).read_text(encoding="utf-8")) for path in (out, f"{out}.evidence.jsonl")]


def journal_records(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


class TestSnippetsParsedOnceWhereTheyEnter:
    def test_unparseable_url_is_dropped_from_the_page_and_the_journal(self, tmp_path, search_server, monkeypatch):
        def names(q):
            return " and ".join(re.findall(r'"([^"]*)"', q))

        def twelve_snippets(q):
            snippets = [
                {"url": f"HTTP://H{i}.Example.org:8080/p/{i}?s=1", "title": f" {names(q)} ", "abstract": f"  page {i}  "}
                for i in range(12)
            ]
            snippets[2]["url"] = "not-a-url"
            return 200, json.dumps({"hit_count": 500, "snippets": snippets}).encode("utf-8")

        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        search_server.answer = twelve_snippets
        code, out = extract(tmp_path, "live", "network.json", "--dump-evidence")
        assert code == 0
        records = journal_records(tmp_path / "live-cache.json")
        assert len(records) == 21  # 15 pairs and 6 singletons
        for record in records:
            assert record["hit_count"] == 500
            assert record["snippets"] == [
                {"url": f"http://h{i}.example.org/p/{i}", "title": names(record["query"]), "abstract": f"page {i}"}
                for i in (0, 1, 3, 4, 5, 6, 7, 8, 9)
            ]
        evidence = [json.loads(line) for line in (tmp_path / "network.json.evidence.jsonl").read_text().splitlines()]
        assert [len(item["snippets"]) for item in evidence] == [9] * 15

        first = written(out)
        code, rerun = extract(tmp_path, "live", "rerun.json", "--dump-evidence")
        assert code == 0
        assert read_json(f"{rerun}.report.json")["backend_calls"] == 0
        assert written(rerun) == first
        assert len(search_server.authorizations) == 21

    @pytest.mark.parametrize("char", ["\u0001", "\ud800"], ids=["control", "surrogate"])
    def test_host_that_xml_cannot_hold_is_kept_and_every_export_parses(self, tmp_path, search_server, monkeypatch,
                                                                       char):
        # A host label other than the rightmost two becomes an edge label,
        # cut into tokens; the names sit in the abstract, which gives no label.
        odd = f"http://lab{char}x.dept.example.org/p"

        def answer(q):
            snippets = [{"url": url, "title": "", "abstract": " and ".join(re.findall(r'"([^"]*)"', q))}
                        for url in (odd, "http://lab.dept.example.org/p")]
            return 200, json.dumps({"hit_count": 500, "snippets": snippets}).encode("utf-8")

        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", search_server.endpoint)
        search_server.answer = answer
        outs = {}
        for form in ("json", "dot", "graphml"):
            code, outs[form] = extract(tmp_path, "live", f"network.{form}", "--format", form, "--dump-evidence")
            assert code == 0
            evidence = [json.loads(line) for line in Path(f"{outs[form]}.evidence.jsonl").read_text().splitlines()]
            assert [item["snippets"][0]["url"] for item in evidence] == [odd] * 15
        assert len(search_server.authorizations) == 21  # 15 pairs and 6 singletons, paid once
        assert len(read_json(outs["json"])["edges"]) == 15
        assert outs["dot"].read_text(encoding="utf-8").count(" -- ") == 15
        edges = ElementTree.parse(outs["graphml"]).getroot().iter("{http://graphml.graphdrawing.org/xmlns}edge")
        assert len(list(edges)) == 15
        for record in journal_records(tmp_path / "live-cache.json"):
            assert [s["url"] for s in record["snippets"]] == [odd, "http://lab.dept.example.org/p"]

        code, rerun = extract(tmp_path, "live", "rerun.json", "--dump-evidence")
        assert code == 0
        assert read_json(f"{rerun}.report.json")["backend_calls"] == 0
        assert written(rerun) == written(outs["json"])

    def test_journal_of_raw_answers_replays_like_a_fresh_run(self, tmp_path):
        # Earlier versions journaled each answer as the backend gave it: URL
        # unnormalised, title and abstract untrimmed. Such a cache is still
        # read by parse_result, so it must replay to the bytes of a fresh run.
        docs = [
            {"id": 1, "url": "HTTP://Ex.COM:8080/a?b=1", "title": " Alice Nguyen with Bob Santos ",
             "body": "  Alice Nguyen and Bob Santos wrote a paper.  "},
            {"id": 2, "url": "http://b.org/x/", "title": "Bob Santos", "body": "Bob Santos alone. "},
            {"id": 3, "url": "https://C.net/y//z#top", "title": "Alice Nguyen ", "body": "\tAlice Nguyen at home"},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        actors = tmp_path / "actors.txt"
        actors.write_text("Alice Nguyen\nBob Santos\n", encoding="utf-8")
        fresh_cache, old_cache = tmp_path / "fresh-cache.json", tmp_path / "old-cache.json"
        code, fresh = extract(tmp_path, "fixture", "fresh.json", "--dump-evidence",
                              actors=actors, corpus=corpus, cache=fresh_cache)
        assert code == 0

        by_url = {parse_url(doc["url"]).render(): doc for doc in docs}
        lines = [HEADER]
        for record in journal_records(fresh_cache):
            raw = [by_url[s["url"]] for s in record["snippets"]]
            record["snippets"] = [{"url": d["url"], "title": d["title"], "abstract": d["body"]} for d in raw]
            lines.append(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        old_cache.write_bytes(b"".join(lines))
        assert b"HTTP://Ex.COM:8080/a?b=1" in old_cache.read_bytes()

        code, replayed = extract(tmp_path, "fixture", "replayed.json", "--dump-evidence",
                                 actors=actors, corpus=corpus, cache=old_cache)
        assert code == 0
        assert read_json(f"{replayed}.report.json")["backend_calls"] == 0
        assert written(replayed) == written(fresh)
        assert len(read_json(fresh)["edges"]) == 1


GOOD_ANSWER = {"hit_count": 3, "snippets": [{"url": "http://a.com/x", "title": "T", "abstract": "A"}]}
DELETE = object()


def spoiled(field, value):
    answer = json.loads(json.dumps(GOOD_ANSWER))
    target = answer if field in ("hit_count", "snippets") else answer["snippets"][0]
    if value is DELETE:
        del target[field]
    else:
        target[field] = value
    return answer


MALFORMED_ANSWERS = pytest.mark.parametrize(
    "field, value",
    [
        ("hit_count", -5),
        ("hit_count", True),
        ("hit_count", 3.5),
        ("hit_count", float("inf")),
        ("hit_count", "12"),
        ("url", None),
        ("snippets", DELETE),
        ("title", DELETE),
    ],
    ids=["negative", "true", "float", "infinite", "string", "null-url", "no-snippets", "no-title"],
)


class TestOneAnswerReader:
    """Each malformed answer is refused by the live backend and by a cache record alike."""

    @MALFORMED_ANSWERS
    def test_live_backend_refuses_it_without_retry(self, monkeypatch, field, value):
        class FakeResponse:
            def read(self):
                return json.dumps(spoiled(field, value)).encode("utf-8")

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: FakeResponse())
        with pytest.raises(BackendError, match="malformed search response") as info:
            LiveBackend("http://search.example/api").search(build_query(["alice"]))
        assert info.value.retryable is False

    @MALFORMED_ANSWERS
    def test_cache_record_refuses_it_with_exit_2(self, tmp_path, capsys, field, value):
        record = {**spoiled(field, value), "query": '"Alice Nguyen"', "fetched_at": "2026-08-18T00:00:00+00:00"}
        cache_path = tmp_path / "fixture-cache.json"
        cache_path.write_bytes(HEADER + json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        code, out = extract(tmp_path, "fixture")
        assert code == 2
        assert f"{cache_path}: line 2: malformed cache record" in capsys.readouterr().err
        assert not out.exists()
