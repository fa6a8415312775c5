import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import mask_timestamps, read_json
from corpusdata import no_cooccurrence_actors, no_cooccurrence_corpus, write_jsonl
from snippetnet import cli
from snippetnet.cache import QueryCache
from snippetnet.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
NOT_TERM_OBJECTS = "keywords of 'alice-nguyen' must be objects with a \"term\""


def run_extract(tmp_path, actors, corpus, out_name="network.json", **flags):
    argv = [
        "extract",
        "--actors", str(actors),
        "--corpus", str(corpus),
        "--cache", str(tmp_path / "cache.json"),
        "--threshold", flags.pop("threshold", "0.0"),
        "--out", str(tmp_path / out_name),
    ]
    for flag, value in flags.items():
        name = "--" + flag.replace("_", "-")
        if value is True:
            argv.append(name)
        else:
            argv.extend([name, str(value)])
    return main(argv), tmp_path / out_name


class TestExtract:
    def test_cold_run_writes_network_and_report(self, tmp_path, actors6_file, corpus20_file, capsys):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file)
        assert code == 0
        assert "2 edges over 6 actors" in capsys.readouterr().out

        net = read_json(out)
        assert [n["id"] for n in net["nodes"]] == [
            "alice-nguyen", "bob-santos", "carol-reyes",
            "david-kim", "erin-walsh", "farid-omar",
        ]
        assert [tuple(e["pair"]) for e in net["edges"]] == [
            ("alice-nguyen", "bob-santos"),
            ("david-kim", "erin-walsh"),
        ]
        weights = {tuple(e["pair"]): e["weight"]["value"] for e in net["edges"]}
        assert weights[("alice-nguyen", "bob-santos")] == pytest.approx(0.4)
        assert weights[("david-kim", "erin-walsh")] == pytest.approx(2 / 3)
        usr_values = {tuple(e["pair"]): e["usr"]["value"] for e in net["edges"]}
        assert usr_values[("alice-nguyen", "bob-santos")] == pytest.approx(1 / 3)
        assert usr_values[("david-kim", "erin-walsh")] == pytest.approx(1 / 2)

        report = read_json(str(out) + ".report.json")
        assert report["actors"] == 6
        assert report["pairs"] == 15
        assert report["detected"] == 2
        assert report["edges"] == 2
        assert report["doubleton_queries"] == 15
        assert report["singleton_queries"] == 4
        assert report["backend_calls"] == 19
        assert report["cache_hits"] == 0  # strength scores from the counts detection and contexts paid for
        assert report["ledger"]["used_today"] == 19
        assert report["bound_check"] == {
            "total_backend_calls": 19,
            "naive_query_bound": 108,
            "holds": True,
        }
        assert report["started_at"] <= report["finished_at"]

    def test_rerun_serves_everything_from_cache(self, tmp_path, actors6_file, corpus20_file):
        code1, out = run_extract(tmp_path, actors6_file, corpus20_file)
        first = mask_timestamps(out.read_text(encoding="utf-8"))
        code2, out = run_extract(tmp_path, actors6_file, corpus20_file)
        second = mask_timestamps(out.read_text(encoding="utf-8"))
        assert code1 == code2 == 0
        assert first == second
        report = read_json(str(out) + ".report.json")
        assert report["backend_calls"] == 0
        assert report["cache_hits"] == 19

    def test_threshold_filters_edges(self, tmp_path, actors6_file, corpus20_file):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, threshold="0.5")
        assert code == 0
        net = read_json(out)
        assert [tuple(e["pair"]) for e in net["edges"]] == [("david-kim", "erin-walsh")]
        assert len(net["nodes"]) == 6

    def test_dot_and_graphml_formats(self, tmp_path, actors6_file, corpus20_file):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, out_name="net.dot", format="dot")
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("graph snippetnet {")
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, out_name="net.graphml", format="graphml")
        assert code == 0
        assert "<graphml" in out.read_text(encoding="utf-8")

    def test_dump_evidence_writes_one_line_per_pair(self, tmp_path, actors6_file, corpus20_file):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, dump_evidence=True)
        assert code == 0
        lines = (tmp_path / "network.json.evidence.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 15
        rows = [json.loads(line) for line in lines]
        assert sum(row["detected"] for row in rows) == 2
        assert [tuple(row["pair"]) for row in rows] == sorted(tuple(row["pair"]) for row in rows)

    def test_parallel_run_matches_sequential(self, tmp_path, actors6_file, corpus20_file):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, out_name="seq.json")
        seq = mask_timestamps(out.read_text(encoding="utf-8"))
        code2, out2 = run_extract(
            tmp_path, actors6_file, corpus20_file, out_name="par.json", parallelism="4",
        )
        par = mask_timestamps(out2.read_text(encoding="utf-8"))
        assert code == code2 == 0
        assert seq == par

    def test_srwk_with_override_keywords_and_fallback(self, tmp_path, actors6_file, corpus20_file):
        kw_file = tmp_path / "kw.json"
        kw_file.write_text(
            json.dumps({"alice-nguyen": ["graph"], "bob-santos": ["graph"]}),
            encoding="utf-8",
        )
        code, out = run_extract(
            tmp_path, actors6_file, corpus20_file, variant="srwk", keywords=kw_file,
        )
        assert code == 0
        net = read_json(out)
        by_pair = {tuple(e["pair"]): e["weight"] for e in net["edges"]}
        augmented = by_pair[("alice-nguyen", "bob-santos")]
        assert augmented["variant"] == "srwk"
        assert augmented["keywords_used"] == ["graph", "graph"]
        assert augmented["value"] == pytest.approx(0.25)
        # david and erin have no override, so their pair keeps the plain score
        fallback = by_pair[("david-kim", "erin-walsh")]
        assert fallback["variant"] == "sr"
        assert fallback["value"] == pytest.approx(2 / 3)

    def test_srwk_auto_keywords(self, tmp_path, actors6_file, corpus20_file):
        code, out = run_extract(tmp_path, actors6_file, corpus20_file, variant="srwk")
        assert code == 0
        net = read_json(out)
        for edge in net["edges"]:
            assert edge["weight"]["variant"] == "srwk"
            assert edge["weight"]["keywords_used"] is not None

    def test_srwk_without_detected_pairs_reads_no_document_frequencies(self, tmp_path, monkeypatch):
        actors_file = tmp_path / "actors.txt"
        corpus_file = tmp_path / "corpus.jsonl"
        actors_file.write_text("\n".join(no_cooccurrence_actors()) + "\n", encoding="utf-8")
        write_jsonl(corpus_file, no_cooccurrence_corpus())
        counted = []  # the frequencies each call returns
        real = cli.document_frequencies
        monkeypatch.setattr(cli, "document_frequencies", lambda snippets: counted.append(real(snippets)) or counted[-1])

        written = {}
        for variant in ("sr", "srwk"):
            (tmp_path / variant).mkdir()
            code, out = run_extract(tmp_path / variant, actors_file, corpus_file, variant=variant, dump_evidence=True)
            assert code == 0
            paths = [out, Path(f"{out}.evidence.jsonl"), Path(f"{out}.report.json"), tmp_path / variant / "cache.json"]
            written[variant] = [mask_timestamps(path.read_text(encoding="utf-8")) for path in paths]
        # With no pair, no context page is fetched, so srwk counts no snippet
        # and ranks no keyword; it writes what sr writes but for its name.
        assert counted == [{}]
        assert written["srwk"][0] == written["sr"][0].replace('"variant": "sr"', '"variant": "srwk"')
        assert written["srwk"][1:] == written["sr"][1:]


NAMES_BEYOND_ASCII = ["Jürgen Müller", "Jörgen Möller", "李明", "王芳"]


def names_beyond_ascii_files(tmp_path):
    actors = tmp_path / "actors.txt"
    actors.write_text("\n".join(NAMES_BEYOND_ASCII) + "\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [
        {"id": 1, "url": "http://lab.example.org/a", "title": "Jürgen Müller and Jörgen Möller", "body": "Transit."},
        {"id": 2, "url": "http://lab.example.org/b", "title": "李明 and 王芳", "body": "Transit."},
    ])
    return actors, corpus


class TestIdsBeyondAscii:
    # Ids keep their letters: two names that differ only beyond ASCII, or are
    # written in CJK, are four actors, not one id repeated.
    IDS = {"Jörgen Möller": "jörgen-möller", "Jürgen Müller": "jürgen-müller", "李明": "李明", "王芳": "王芳"}

    def test_graphml_nodes_parse_with_four_ids(self, tmp_path):
        from xml.etree import ElementTree

        code, out = run_extract(tmp_path, *names_beyond_ascii_files(tmp_path), out_name="net.graphml",
                                format="graphml")
        assert code == 0
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        graph = ElementTree.parse(out).getroot().find("g:graph", ns)
        assert [node.get("id") for node in graph.findall("g:node", ns)] == list(self.IDS.values())
        assert sorted((edge.get("source"), edge.get("target")) for edge in graph.findall("g:edge", ns)) == [
            ("jörgen-möller", "jürgen-müller"), ("李明", "王芳"),
        ]

    def test_dot_quotes_every_id(self, tmp_path):
        code, out = run_extract(tmp_path, *names_beyond_ascii_files(tmp_path), out_name="net.dot", format="dot")
        assert code == 0
        text = out.read_text(encoding="utf-8")
        for name, actor_id in self.IDS.items():
            assert f'  "{actor_id}" [label="{name}"];' in text
        assert '  "jörgen-möller" -- "jürgen-müller" [' in text
        assert '  "李明" -- "王芳" [' in text


class TestReportRoles:
    @pytest.mark.parametrize("variant, counts", [("sr", (15, 4, 0)), ("srwk", (15, 4, 6))])
    def test_paid_queries_are_counted_by_stage(self, tmp_path, variant, counts):
        code, out = run_extract(
            tmp_path, DEMO / "actors.txt", DEMO / "corpus.jsonl", threshold="0.2", variant=variant,
        )
        assert code == 0
        report = read_json(str(out) + ".report.json")
        by_stage = tuple(
            report[key] for key in ("doubleton_queries", "singleton_queries", "keyword_queries")
        )
        assert by_stage == counts
        assert sum(by_stage) == report["backend_calls"]

        code, out = run_extract(
            tmp_path, DEMO / "actors.txt", DEMO / "corpus.jsonl", threshold="0.2", variant=variant,
        )
        assert code == 0
        report = read_json(str(out) + ".report.json")
        assert [report[key] for key in ("doubleton_queries", "singleton_queries", "keyword_queries")] == [0, 0, 0]


class TestExitCodes:
    def test_missing_corpus_is_config_error(self, tmp_path, actors6_file, capsys):
        code = main([
            "extract", "--actors", str(actors6_file),
            "--cache", str(tmp_path / "c.json"),
            "--threshold", "0.0", "--out", str(tmp_path / "n.json"),
        ])
        assert code == 2
        assert "corpus" in capsys.readouterr().err

    def test_unreadable_actors_file(self, tmp_path, corpus20_file):
        code, _ = run_extract(tmp_path, tmp_path / "absent.txt", corpus20_file)
        assert code == 2

    def test_corrupt_corpus(self, tmp_path, actors6_file):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        code, _ = run_extract(tmp_path, actors6_file, bad)
        assert code == 2

    def test_corpus_row_that_is_not_an_object_is_exit_2_naming_its_line(self, tmp_path, actors6_file, capsys):
        corpus = tmp_path / "rows.jsonl"
        corpus.write_text('{"id": 1, "url": "http://a.com/x", "title": "t", "body": "b"}\n[1]\n', encoding="utf-8")
        code, _ = run_extract(tmp_path, actors6_file, corpus)
        assert code == 2
        assert f"{corpus}:2: expected an object, got list" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()

    @pytest.mark.parametrize(
        "command, names, message",
        [
            (["extract", "--threshold", "0.0"], "Alice Nguyen\n", "need at least two actors"),
            (["keywords"], "# nobody yet\n\n", "actors file lists nobody"),
        ],
        ids=["extract-one-actor", "keywords-no-actor"],
    )
    def test_too_few_actors_is_exit_2_before_paying(self, tmp_path, corpus20_file, capsys, command, names, message):
        actors = tmp_path / "actors.txt"
        actors.write_text(names, encoding="utf-8")
        code = main(command + [
            "--actors", str(actors), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {actors}: {message}\n"  # the file comes first
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    def test_threshold_out_of_range(self, tmp_path, actors6_file, corpus20_file):
        code, _ = run_extract(tmp_path, actors6_file, corpus20_file, threshold="1.5")
        assert code == 2
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    # The result page and the label count are fixed, so --page-size and
    # --max-labels are unknown flags: a cache keyed by the query alone could
    # not tell answers of different page sizes apart.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extract", "--threshold", "0.0", "--daily-limit", "0"], "must be >= 1"),
            (["extract", "--threshold", "0.0", "--page-size", "0"],
             "unrecognized arguments: --page-size 0"),
            (["extract", "--threshold", "0.0", "--parallelism", "0"], "must be >= 1"),
            (["extract", "--threshold", "0.0", "--max-labels", "0"],
             "unrecognized arguments: --max-labels 0"),
            (["keywords", "--top-k", "0"], "must be >= 1"),
        ],
        ids=["daily-limit", "page-size", "parallelism", "max-labels", "top-k"],
    )
    def test_bad_setting_is_rejected_before_paying(
        self, tmp_path, actors6_file, corpus20_file, capsys, argv, message
    ):
        code = main(argv + [
            "--actors", str(actors6_file), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extract", "--threshold", "0.0", "--daily-limit", "0"], "argument --daily-limit:"),
            (["extract", "--threshold", "0.0", "--page-size", "-3"],
             "unrecognized arguments: --page-size -3"),
            (["extract", "--threshold", "nan"], "argument --threshold:"),
            (["extract", "--threshold", "0.0", "--measure", "cosine"], "argument --measure:"),
            (["keywords", "--top-k", "ten"], "argument --top-k:"),
        ],
        ids=["daily-limit", "page-size", "threshold-nan", "measure", "top-k-not-an-integer"],
    )
    def test_bad_flag_is_named_before_any_file_is_read(
        self, tmp_path, actors6_file, corpus20_file, capsys, argv, message
    ):
        # The first run has no actors file, so only a check made before it is
        # read can name the flag; the second shows nothing gets paid for.
        for actors in (tmp_path / "absent.txt", actors6_file):
            code = main(argv + [
                "--actors", str(actors), "--corpus", str(corpus20_file),
                "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
            ])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    @pytest.mark.parametrize("command", [["extract", "--threshold", "0.0"], ["keywords"]],
                             ids=["extract", "keywords"])
    def test_actors_file_that_is_not_utf8(self, tmp_path, corpus20_file, capsys, command):
        actors = tmp_path / "actors.txt"
        actors.write_bytes(b"Alice Nguyen\nBob \xff Santos\n")
        code = main(command + [
            "--actors", str(actors), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert f"cannot read actors file {actors}" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()

    def test_actors_file_with_byte_order_mark_reads_like_the_plain_file(self, tmp_path):
        written = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            workdir = tmp_path / name
            workdir.mkdir()
            actors = workdir / "actors.txt"
            actors.write_bytes(prefix + (DEMO / "actors.txt").read_bytes())
            code, out = run_extract(workdir, actors, DEMO / "corpus.jsonl", threshold="0.2", dump_evidence=True)
            assert code == 0
            written.append([
                mask_timestamps(path.read_text(encoding="utf-8"))
                for path in (out, Path(str(out) + ".evidence.jsonl"))
            ])
        assert written[1] == written[0]

    def test_byte_order_mark_at_the_start_of_any_actors_line_is_skipped(self, tmp_path):
        # As when two actors files are joined: the mark can start any line, or be all of one.
        actors = tmp_path / "actors.txt"
        actors.write_text("Alice Nguyen\n\ufeffBob Santos\n\ufeff\n", encoding="utf-8")
        assert [actor.name for actor in cli.load_actors(actors)] == ["Alice Nguyen", "Bob Santos"]
        code, out = run_extract(tmp_path, actors, DEMO / "corpus.jsonl")
        assert code == 0
        assert [edge["pair"] for edge in read_json(out)["edges"]] == [["alice-nguyen", "bob-santos"]]

    @pytest.mark.parametrize("separator",["\u2028", "\u2029", "\u0085"], ids=["LS", "PS", "NEL"])
    def test_actors_file_lines_end_at_newline_only(self, tmp_path, separator):
        actors = tmp_path / "actors.txt"
        actors.write_text(f"Alice Nguyen{separator}Bob Santos\r\nCarol Reyes\n", encoding="utf-8")
        assert [actor.name for actor in cli.load_actors(actors)] == [f"Alice Nguyen{separator}Bob Santos", "Carol Reyes"]

    @pytest.mark.parametrize("command", [["extract", "--threshold", "0.0", "--format", "graphml"], ["keywords"]],
                             ids=["extract", "keywords"])
    def test_actor_name_with_control_character(self, tmp_path, corpus20_file, capsys, command):
        # XML 1.0 cannot hold U+0001, so a GraphML export naming this actor would not parse.
        actors = tmp_path / "actors.txt"
        actors.write_text("Bob Santos\nAlice\x01 Nguyen\n", encoding="utf-8")
        code = main(command + [
            "--actors", str(actors), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.xml"),
        ])
        assert code == 2
        assert f"{actors}: line 2: control character in phrase" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "out.xml").exists()

    def test_actor_names_that_collapse_to_one_id_are_named(self, tmp_path, corpus20_file, capsys):
        actors = tmp_path / "actors.txt"
        actors.write_text("Ann Lee\n# a comment\nBob Santos\nAnn-Lee\n", encoding="utf-8")
        code, out = run_extract(tmp_path, actors, corpus20_file)
        assert code == 2
        assert f"{actors}: lines 1 and 4: names collapse to the same id 'ann-lee'" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("char", ["\uffff", "\ufffe"], ids=["U+FFFF", "U+FFFE"])
    def test_actor_name_with_noncharacter(self, tmp_path, corpus20_file, capsys, char):
        # XML 1.0 cannot hold U+FFFE or U+FFFF either, although UTF-8 can.
        actors = tmp_path / "actors.txt"
        actors.write_text(f"Bob Santos\nAlice{char} Nguyen\n", encoding="utf-8")
        code = main([
            "extract", "--threshold", "0.0", "--format", "graphml",
            "--actors", str(actors), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.xml"),
        ])
        assert code == 2
        assert f"{actors}: line 2: lone surrogate or noncharacter in phrase" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "out.xml").exists()

    @pytest.mark.parametrize("command", [["extract", "--threshold", "0.0"], ["keywords"]],
                             ids=["extract", "keywords"])
    def test_actor_name_with_double_quote(self, tmp_path, corpus20_file, capsys, command):
        # 'Ann" "Bob Santos' would render as a pair query and share its cache entry.
        actors = tmp_path / "actors.txt"
        actors.write_text('Alice Nguyen\n# a comment\nAnn" "Bob Santos\n', encoding="utf-8")
        code = main(command + [
            "--actors", str(actors), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert f"{actors}: line 3: double quote in phrase" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"alice-nguyen": 42}, "neither a term list nor a keyword set"),
            ({"alice-nguyen": ['x" "y'], "bob-santos": ["graph"]}, "double quote in phrase"),
            ({"alice-nguyen": [None], "bob-santos": [7]}, "keyword terms for 'alice-nguyen' must be strings"),
            ({"alice-nguyen": {"keywords": [{"term": 7}]}}, "keyword terms for 'alice-nguyen' must be strings"),
            ({"alice-nguyen": {"keywords": [{"trem": "graph"}]}, "bob-santos": ["  "]}, NOT_TERM_OBJECTS),
            ({"alice-nguyen": {"keywords": [{"term": "graph"}, {"trem": "mining"}]}}, NOT_TERM_OBJECTS),
            ({"alice-nguyen": {"keywords": ["graph"]}}, NOT_TERM_OBJECTS),
            ({"alice-nguyen": ["graph"], "bob-santos": ["  ", "graph"]}, "keyword terms for 'bob-santos': blank phrase"),
            ({"alice-nguyen": ["graph", ""]}, "keyword terms for 'alice-nguyen': blank phrase"),
            ({"alice-nguyen": ["graph", 'x" "y']}, "keyword terms for 'alice-nguyen': double quote in phrase"),
            (
                {"alice-nguyen": {"keywords": [{"term": "graph"}, {"term": " "}]}},
                "keyword terms for 'alice-nguyen': blank phrase",
            ),
            (
                {"alice-nguyn": ["community"], "bob-santos": ["graph"], "zed": []},
                "ids that name no actor in this run: alice-nguyn, zed",
            ),
            ({"alice-nguyen": ["graph", "mi\x01ning"]}, "keyword terms for 'alice-nguyen': control character in phrase"),
            ({"alice-nguyen": ["\ud800x"]}, "keyword terms for 'alice-nguyen': lone surrogate or noncharacter in phrase"),
            ([], "keyword file must hold a JSON object"),
        ],
        ids=[
            "not-a-term-list", "double-quote", "term-not-a-string", "keyword-set-term-not-a-string",
            "misspelt-term-key-and-blank-term", "misspelt-term-key-after-a-good-one", "keyword-set-entry-not-an-object",
            "blank-first-term", "blank-later-term", "double-quote-in-later-term", "keyword-set-blank-later-term",
            "misspelt-actor-id", "control-character-in-later-term", "lone-surrogate", "not-an-object",
        ],
    )
    def test_bad_keywords_file_is_rejected_before_paying(self, tmp_path, capsys, overrides, message):
        keywords = tmp_path / "kw.json"
        keywords.write_text(json.dumps(overrides), encoding="utf-8")
        code, _ = run_extract(
            tmp_path, DEMO / "actors.txt", DEMO / "corpus.jsonl", variant="srwk", keywords=keywords,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count(str(keywords)) == 1
        assert message in err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()

    def test_keywords_without_srwk_is_rejected_before_any_file_is_read(self, tmp_path, capsys):
        # Only srwk uses the keywords file, invalid here; with no actors file,
        # only a check made before any file is read can name the flag.
        keywords = tmp_path / "kw.json"
        keywords.write_text(json.dumps({"alice-nguyen": 42}), encoding="utf-8")
        for actors in (tmp_path / "absent.txt", DEMO / "actors.txt"):
            code, out = run_extract(tmp_path, actors, DEMO / "corpus.jsonl", keywords=keywords)
            assert code == 2
            assert "argument --keywords: needs --variant srwk" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()
        assert not (tmp_path / "cache.json.ledger").exists()
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "keywords"])
    def test_corpus_with_live_backend_is_rejected_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # The live backend never reads a corpus, so naming one is a mistake;
        # provenance would otherwise record a file the run never opened.
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", "http://127.0.0.1:9/search")
        for actors in (tmp_path / "absent.txt", DEMO / "actors.txt"):
            code = main([
                command, "--actors", str(actors), "--backend", "live",
                "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", str(tmp_path / "cache.json"), "--out", str(tmp_path / "out.json"),
                *(["--threshold", "0.0"] if command == "extract" else []),
            ])
            assert code == 2
            assert "argument --corpus: not allowed with --backend live" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag",
        [("extract", flag) for flag in ("--actors", "--corpus", "--cache", "--out", "--keywords")]
        + [("keywords", flag) for flag in ("--actors", "--corpus", "--cache", "--out")] + [("cache", "--cache")],
    )
    def test_empty_path_flag_is_rejected_by_name_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, command, flag
    ):
        # "" would read the working directory or write a file with no name,
        # after every query was paid for; the parser refuses it first.
        monkeypatch.chdir(tmp_path)
        given = {"--actors": str(DEMO / "actors.txt"), "--corpus": str(DEMO / "corpus.jsonl"),
                 "--cache": "cache.json", "--out": "out.json"}
        if command == "extract":
            given.update({"--threshold": "0.2", "--variant": "srwk", "--keywords": "kw.json"})
        given[flag] = ""
        argv = [command, *(item for pair in given.items() for item in pair)] if command != "cache" else [
            "cache", "stats", "--cache", ""]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: snippetnet {command} ")
        assert err.endswith(f"snippetnet {command}: error: argument {flag}: must name a file, got an empty path\n")
        assert list(tmp_path.iterdir()) == []  # no cache, ledger or output written

    @pytest.mark.parametrize("flag, path", [("--out", "x/"), ("--out", "x/."), ("--cache", "x/")])
    def test_path_ending_in_a_directory_is_rejected_before_paying(self, tmp_path, monkeypatch, capsys, flag, path):
        # --out x/ would pay every query, write the network to a file x and
        # fail on x/.report.json; --cache x/ would keep the ledger in x/.ledger
        # and fail on the journal x, on this run and every later one.
        monkeypatch.chdir(tmp_path)
        given = {"--actors": str(DEMO / "actors.txt"), "--corpus": str(DEMO / "corpus.jsonl"),
                 "--cache": "cache.json", "--threshold": "0.2", "--out": "out.json", flag: path}
        assert main(["extract", *(item for pair in given.items() for item in pair)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: snippetnet extract ")
        assert err.endswith(f"snippetnet extract: error: argument {flag}: must name a file, not a directory: {path}\n")
        assert list(tmp_path.iterdir()) == []  # no cache, ledger or output written

    @pytest.mark.parametrize(
        "command, out, flags, directory",
        [
            ("extract", "net", [], "net"),
            ("extract", "net", [], "net.report.json"),
            ("extract", "net", ["--dump-evidence"], "net.evidence.jsonl"),
            ("keywords", "net", [], "net"),
        ],
        ids=["out", "report", "evidence", "keywords-out"],
    )
    def test_out_naming_a_directory_is_rejected_before_paying(
        self, tmp_path, monkeypatch, capsys, command, out, flags, directory
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / directory).mkdir()
        threshold = ["--threshold", "0.2"] if command == "extract" else []
        argv = [command, "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", "cache.json", *threshold, *flags, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: snippetnet {command} ")
        assert err.endswith(f"snippetnet {command}: error: argument --out: {directory} is a directory\n")
        assert [path.name for path in tmp_path.iterdir()] == [directory]  # no query paid, no cache written

    @pytest.mark.parametrize("command", ["extract", "keywords"])
    def test_out_under_a_file_is_rejected_before_paying(self, tmp_path, monkeypatch, capsys, command):
        # Written after every query is paid, it would fail to make its directory only then.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"")
        threshold = ["--threshold", "0.2"] if command == "extract" else []
        argv = [command, "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", "cache.json", *threshold, "--out", "afile/deeper/net.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: snippetnet {command} ")
        assert err.endswith(
            f"snippetnet {command}: error: argument --out: afile/deeper/net.json lies under afile, "
            "which is not a directory\n")
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]  # no query paid, no cache written

    @pytest.mark.parametrize("command", ["extract", "keywords"])
    def test_out_that_cannot_be_looked_up_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys, command):
        # A name longer than the file system allows is an OSError, not a missing file.
        monkeypatch.chdir(tmp_path)
        out = "a" * 300 + "/net.json"
        threshold = ["--threshold", "0.2"] if command == "extract" else []
        argv = [command, "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", "cache.json", *threshold, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: ")
        assert err.count("\n") == 1 and "a" * 300 in err

    @pytest.mark.parametrize(
        "command, out, cache, flags, kept",
        [
            ("extract", "cache.json", "cache.json", [], "cache.json"),
            ("extract", "sub/../cache.json", "cache.json", [], "cache.json"),
            ("extract", "cache.json.ledger", "cache.json", [], "cache.json.ledger"),
            ("extract", "actors.txt", "cache.json", [], "actors.txt"),
            ("extract", "net", "net.report.json", [], "net.report.json"),
            ("extract", "net", "net.evidence.jsonl", ["--dump-evidence"], "net.evidence.jsonl"),
            ("keywords", "cache.json", "cache.json", [], "cache.json"),
        ],
        ids=["out-is-cache", "out-is-cache-spelled-otherwise", "out-is-ledger", "out-is-actors",
             "report-is-cache", "evidence-is-cache", "keywords-out-is-cache"],
    )
    def test_out_that_would_replace_a_file_the_run_reads_is_rejected_before_paying(
        self, tmp_path, capsys, command, out, cache, flags, kept
    ):
        # A paid run leaves a cache and its ledger; writing over either, or
        # over an input, would lose what the next run reads.
        actors = tmp_path / "actors.txt"
        actors.write_bytes((DEMO / "actors.txt").read_bytes())
        given = ["--actors", str(actors), "--corpus", str(DEMO / "corpus.jsonl"), "--cache", f"{tmp_path}/{cache}"]
        assert main(["extract", *given, "--threshold", "0.2", "--out", str(tmp_path / "network.json")]) == 0
        capsys.readouterr()
        target = tmp_path / kept
        before = target.read_bytes()
        ledger = (tmp_path / f"{cache}.ledger").read_bytes()
        threshold = ["--threshold", "0.2"] if command == "extract" else []
        assert main([command, *given, *threshold, *flags, "--out", f"{tmp_path}/{out}"]) == 2
        err = capsys.readouterr().err
        assert f"argument --out: {tmp_path}/{out}" in err
        assert f"would replace {tmp_path}/{kept}, which this run reads or keeps" in err
        assert target.read_bytes() == before
        assert (tmp_path / f"{cache}.ledger").read_bytes() == ledger

    @pytest.mark.parametrize(
        "argv, command, message",
        [
            (["extract", "--threshold", "0.2", "--corpus", "corpus.jsonl", "--out", "c.json", "--cache", "c.json"],
             "extract", "argument --out: c.json would replace c.json, which this run reads or keeps"),
            (["keywords", "--backend", "live", "--corpus", "x", "--out", "k.json"],
             "keywords", "argument --corpus: not allowed with --backend live"),
        ],
        ids=["extract-out-is-cache", "keywords-live-with-corpus"],
    )
    def test_checks_after_parsing_print_the_subcommand_usage(
        self, tmp_path, monkeypatch, capsys, argv, command, message
    ):
        # Every name is relative to an empty directory: a file read or written would show there.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", "http://127.0.0.1:9/search")
        assert main([*argv, "--actors", "actors.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: snippetnet {command} [-h] --actors ACTORS")
        assert err.endswith(f"snippetnet {command}: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_live_backend_without_endpoint(self, tmp_path, actors6_file, monkeypatch, capsys):
        monkeypatch.delenv("SNIPPETNET_API_ENDPOINT", raising=False)
        code = main([
            "extract", "--actors", str(actors6_file), "--backend", "live",
            "--cache", str(tmp_path / "c.json"),
            "--threshold", "0.0", "--out", str(tmp_path / "n.json"),
        ])
        assert code == 2
        assert "SNIPPETNET_API_ENDPOINT" in capsys.readouterr().err

    def test_unreachable_live_backend_is_exit_4(self, tmp_path, actors6_file, monkeypatch):
        monkeypatch.setenv("SNIPPETNET_API_ENDPOINT", "http://127.0.0.1:9/search")
        code = main([
            "extract", "--actors", str(actors6_file), "--backend", "live",
            "--cache", str(tmp_path / "c.json"),
            "--threshold", "0.0", "--out", str(tmp_path / "n.json"),
        ])
        assert code == 4

    def test_budget_exhaustion_is_exit_3_and_cache_survives(
        self, tmp_path, actors6_file, corpus20_file, capsys
    ):
        code, _ = run_extract(tmp_path, actors6_file, corpus20_file, daily_limit="5")
        assert code == 3
        assert "resume" in capsys.readouterr().err
        assert len(QueryCache.open(tmp_path / "cache.json")) == 5

    @pytest.mark.parametrize("sidecar", [b'{"used_today": null}', b"[1]", b'{"day_key": 5}', b'{"day_key"', b"\xff",
                                         b"{}", b'{"alice-nguyen": ["graph"]}',
                                         b'{"day_key": 5, "used_today": 0, "total_issued": 0}',
                                         *(b'{"day_key": "2026-08-18", "used_today": %s, "total_issued": 3}' % used
                                           for used in (b"-1", b"true", b"1.5", b'"3"'))])
    def test_malformed_ledger_sidecar_is_exit_2(
        self, tmp_path, actors6_file, corpus20_file, capsys, sidecar
    ):
        (tmp_path / "cache.json.ledger").write_bytes(sidecar)
        code, _ = run_extract(tmp_path, actors6_file, corpus20_file)
        assert code == 2
        assert "ledger" in capsys.readouterr().err
        assert main(["cache", "stats", "--cache", str(tmp_path / "cache.json")]) == 2
        assert "ledger" in capsys.readouterr().err

    @pytest.mark.parametrize("named", ["--keywords", "--corpus"])
    def test_an_input_named_like_the_ledger_sidecar_is_exit_2_and_kept(self, tmp_path, capsys, named):
        # The sidecar of --cache kw is kw.ledger; read as a ledger, that input
        # would be overwritten by the first charge.
        inputs = {"--keywords": b'{"alice-nguyen": ["graph"]}\n',
                  "--corpus": (DEMO / "corpus.jsonl").read_bytes().split(b"\n")[0] + b"\n"}  # one row
        paths = {}
        for flag, data in inputs.items():
            paths[flag] = tmp_path / ("kw.ledger" if flag == named else f"input{flag}")
            paths[flag].write_bytes(data)
        code = main(["extract", "--actors", str(DEMO / "actors.txt"), "--variant", "srwk", "--threshold", "0.2",
                     *(str(item) for pair in paths.items() for item in pair),
                     "--cache", str(tmp_path / "kw"), "--out", str(tmp_path / "net.json")])
        assert code == 2
        lacks = "day_key, used_today, total_issued"
        assert capsys.readouterr().err == f"error: {paths[named]}: not a ledger: it lacks {lacks}\n"
        assert paths[named].read_bytes() == inputs[named]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(path.name for path in paths.values())

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_written_files_respect_the_umask(
        self, tmp_path, actors6_file, corpus20_file, umask, mode
    ):
        previous = os.umask(umask)
        try:
            code, out = run_extract(tmp_path, actors6_file, corpus20_file, dump_evidence=True)
        finally:
            os.umask(previous)
        assert code == 0
        written = [
            out,
            Path(str(out) + ".report.json"),
            Path(str(out) + ".evidence.jsonl"),
            tmp_path / "cache.json",
            tmp_path / "cache.json.ledger",
        ]
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
            p.name: mode for p in written
        }

    def test_a_cold_run_replaces_four_files_not_one_per_query(self, tmp_path, monkeypatch):
        # Output, evidence, report and the ledger's first record; every later
        # charge overwrites the ledger record in place.
        from snippetnet import budget, cache, ioutil

        replaced = []

        def counting(path, data):
            replaced.append(Path(path).name)
            atomic_write_bytes(path, data)

        atomic_write_bytes = ioutil.atomic_write_bytes
        for module in (ioutil, cli, budget, cache):
            monkeypatch.setattr(module, "atomic_write_bytes", counting)
        code, out = run_extract(tmp_path, DEMO / "actors.txt", DEMO / "corpus.jsonl", threshold="0.2",
                                dump_evidence=True)
        assert code == 0
        assert read_json(str(out) + ".report.json")["backend_calls"] == 19
        assert sorted(replaced) == sorted([
            "cache.json.ledger", "network.json", "network.json.evidence.jsonl", "network.json.report.json",
        ])
        assert len((tmp_path / "cache.json.ledger").read_bytes()) == budget.RECORD_WIDTH + 1


class TestCacheJournal:
    def _extract_demo(self, tmp_path):
        code, out = run_extract(tmp_path, DEMO / "actors.txt", DEMO / "corpus.jsonl")
        assert code == 0
        return out, read_json(str(out) + ".report.json")["backend_calls"]

    def test_rerun_after_torn_append_pays_only_the_lost_query(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.json"
        _, calls = self._extract_demo(tmp_path)
        data = cache_path.read_bytes()
        assert data.count(b"\n") == calls + 1
        cache_path.write_bytes(data[:-40])
        capsys.readouterr()

        # Reading the cache leaves the torn tail for the next append to cut.
        assert main(["cache", "stats", "--cache", str(cache_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == calls - 1
        assert cache_path.read_bytes() == data[:-40]

        _, rerun_calls = self._extract_demo(tmp_path)
        assert rerun_calls == 1
        assert len(QueryCache.open(cache_path)) == calls
        _, warm_calls = self._extract_demo(tmp_path)
        assert warm_calls == 0

    def test_malformed_line_mid_journal_is_exit_2(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        self._extract_demo(tmp_path)
        lines = cache_path.read_bytes().split(b"\n")
        lines[5] = b'{"query": "\\"x\\"", "hit_count": 1'
        cache_path.write_bytes(b"\n".join(lines))

        result = subprocess.run(
            [
                sys.executable, "-m", "snippetnet.cli", "extract",
                "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", str(cache_path), "--threshold", "0.0",
                "--out", str(tmp_path / "network.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "line 6: malformed cache record" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hit_count", -7),
            ("hit_count", True),
            ("hit_count", 3.5),
            ("hit_count", "12"),
            ("snippets", ""),
            ("url", None),
            ("query", 5),
        ],
        ids=["hit-count-negative", "hit-count-true", "hit-count-float", "hit-count-string",
             "snippets-not-a-list", "url-null", "query-number"],
    )
    def test_record_with_a_bad_field_type_is_exit_2(self, tmp_path, field, value):
        cache_path = tmp_path / "cache.json"
        self._extract_demo(tmp_path)
        lines = cache_path.read_bytes().split(b"\n")
        # The first record with snippets, so that a snippet field can be spoiled too.
        number = next(i for i, line in enumerate(lines[1:-1], start=1) if json.loads(line)["snippets"])
        record = json.loads(lines[number])
        if field in record:
            record[field] = value
        else:
            record["snippets"][0][field] = value
        lines[number] = json.dumps(record, sort_keys=True).encode("utf-8")
        cache_path.write_bytes(b"\n".join(lines))

        result = subprocess.run(
            [
                sys.executable, "-m", "snippetnet.cli", "extract",
                "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", str(cache_path), "--threshold", "0.0",
                "--out", str(tmp_path / "network.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert f"{cache_path}: line {number + 1}: malformed cache record" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "entry",
        [
            '{"hit_count": 1, "snippets": []}',
            '{"fetched_at": "2026-08-18T00:00:00+00:00", "hit_count": "many", "snippets": []}',
            '{"fetched_at": "2026-08-18T00:00:00+00:00", "hit_count": Infinity, "snippets": []}',
            '{"fetched_at": "2026-08-18T00:00:00+00:00", "hit_count": 1, "snippets": [{}]}',
            '[1, 2]',
        ],
        ids=["no-fetched-at", "hit-count-not-a-number", "hit-count-infinite", "snippet-fields", "not-an-object"],
    )
    def test_malformed_whole_object_cache_is_exit_2_and_kept(self, tmp_path, entry):
        cache_path = tmp_path / "cache.json"
        old = ('{"\\"Alice Nguyen\\"": {"fetched_at": "2026-08-18T00:00:00+00:00", '
               '"hit_count": 3, "snippets": []}, "\\"Bob Santos\\"": ' + entry + '}\n').encode("utf-8")
        cache_path.write_bytes(old)

        result = subprocess.run(
            [
                sys.executable, "-m", "snippetnet.cli", "extract",
                "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--cache", str(cache_path), "--threshold", "0.0",
                "--out", str(tmp_path / "network.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert str(cache_path) in result.stderr
        assert "Traceback" not in result.stderr
        assert cache_path.read_bytes() == old
        assert not (tmp_path / "cache.json.ledger").exists()

    @pytest.mark.parametrize("command", ["extract", "cache stats"], ids=["extract", "cache-stats"])
    @pytest.mark.parametrize("old", [
        # A well-formed cache in the single-JSON-object format written before
        # the journal: only a journal is read, and opening never writes.
        b'{"\\"Alice Nguyen\\"": {"fetched_at": "2026-08-18T00:00:00+00:00", "hit_count": 3, "snippets": []}}\n',
        b'{"snippetnet_cache": 3, "backend": fixture}\n',  # begins like a header, but is no JSON
        b'{"snippetnet_cache": 9}\n',  # a format version this reader does not know
    ], ids=["pre-journal", "header-not-json", "unknown-version"])
    def test_headerless_cache_is_exit_2_and_kept(self, tmp_path, command, old):
        cache_path = tmp_path / "cache.json"
        cache_path.write_bytes(old)
        argv = command.split() + ["--cache", str(cache_path)]
        if command == "extract":
            argv += [
                "--actors", str(DEMO / "actors.txt"), "--corpus", str(DEMO / "corpus.jsonl"),
                "--threshold", "0.0", "--out", str(tmp_path / "network.json"),
            ]

        result = subprocess.run(
            [sys.executable, "-m", "snippetnet.cli", *argv], capture_output=True, text=True
        )
        assert result.returncode == 2
        assert f"{cache_path}: not a snippetnet cache journal" in result.stderr
        assert "Traceback" not in result.stderr
        assert cache_path.read_bytes() == old
        assert not (tmp_path / "cache.json.ledger").exists()
        assert not (tmp_path / "network.json").exists()


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(
        self, tmp_path, actors6_file, corpus20_file
    ):
        broke = tmp_path / "broke"
        clean = tmp_path / "clean"
        broke.mkdir()
        clean.mkdir()

        code, _ = run_extract(broke, actors6_file, corpus20_file, daily_limit="6")
        assert code == 3
        code, resumed_out = run_extract(broke, actors6_file, corpus20_file)
        assert code == 0
        code, clean_out = run_extract(clean, actors6_file, corpus20_file)
        assert code == 0

        resumed = mask_timestamps(resumed_out.read_text(encoding="utf-8"))
        uninterrupted = mask_timestamps(clean_out.read_text(encoding="utf-8"))
        assert resumed == uninterrupted

        report = read_json(str(resumed_out) + ".report.json")
        assert report["backend_calls"] == 19 - 6
        assert report["ledger"]["total_issued"] == 19

    def test_resumed_run_pays_only_the_remainder(self, tmp_path):
        actors_file = tmp_path / "actors.txt"
        corpus_file = tmp_path / "corpus.jsonl"
        actors_file.write_text("\n".join(no_cooccurrence_actors()) + "\n", encoding="utf-8")
        write_jsonl(corpus_file, no_cooccurrence_corpus())

        code, _ = run_extract(tmp_path, actors_file, corpus_file, daily_limit="5")
        assert code == 3
        code, out = run_extract(tmp_path, actors_file, corpus_file)
        assert code == 0
        report = read_json(str(out) + ".report.json")
        assert report["backend_calls"] == 10
        assert report["pairs"] == 15
        assert report["detected"] == 0


class TestKeywordsCommand:
    def test_writes_ranked_keywords(self, tmp_path, actors6_file, corpus20_file, capsys):
        out = tmp_path / "kw.json"
        code = main([
            "keywords", "--actors", str(actors6_file), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(out), "--top-k", "3",
        ])
        assert code == 0
        assert "6 actors" in capsys.readouterr().out
        payload = read_json(out)
        assert sorted(payload) == [
            "alice-nguyen", "bob-santos", "carol-reyes",
            "david-kim", "erin-walsh", "farid-omar",
        ]
        alice = payload["alice-nguyen"]
        assert alice["name"] == "Alice Nguyen"
        assert alice["singleton_count"] == 4
        assert 1 <= len(alice["keywords"]) <= 3
        for entry in alice["keywords"]:
            assert set(entry) == {"term", "score"}

    def test_output_feeds_extract_as_overrides(self, tmp_path, actors6_file, corpus20_file):
        kw_out = tmp_path / "kw.json"
        code = main([
            "keywords", "--actors", str(actors6_file), "--corpus", str(corpus20_file),
            "--cache", str(tmp_path / "cache.json"), "--out", str(kw_out),
        ])
        assert code == 0
        code, out = run_extract(
            tmp_path, actors6_file, corpus20_file, variant="srwk", keywords=kw_out,
        )
        assert code == 0
        net = read_json(out)
        for edge in net["edges"]:
            assert edge["weight"]["variant"] == "srwk"


class TestCacheCommand:
    def test_stats_and_clear(self, tmp_path, actors6_file, corpus20_file, capsys):
        cache_path = tmp_path / "cache.json"
        run_extract(tmp_path, actors6_file, corpus20_file)
        capsys.readouterr()

        assert main(["cache", "stats", "--cache", str(cache_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 19
        assert stats["ledger"]["used_today"] == 19

        assert main(["cache", "clear", "--cache", str(cache_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_stats_on_missing_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache", str(tmp_path / "none.json")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"entries": 0, "ledger": None}

    def test_clear_refuses_a_file_that_is_not_a_cache(self, tmp_path):
        not_a_cache = tmp_path / "actors-copy.txt"
        old = (DEMO / "actors.txt").read_bytes()
        not_a_cache.write_bytes(old)

        result = subprocess.run(
            [sys.executable, "-m", "snippetnet.cli", "cache", "clear", "--cache", str(not_a_cache)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert f"{not_a_cache}: not a snippetnet cache journal" in result.stderr
        assert "Traceback" not in result.stderr
        assert "cleared" not in result.stdout
        assert not_a_cache.read_bytes() == old

    @pytest.mark.parametrize(
        "content",
        [
            None,
            b"",
            b'{"snippetnet_ca',
            b'{"snippetnet_cache": 2}\n{"query": "\\"A\\"", "hit',
            b'{"snippetnet_cache": 2}\nnot a record\n',
        ],
        ids=["absent", "empty", "torn-header", "journal-with-torn-record", "journal-with-bad-record"],
    )
    def test_clear_empties_a_journal_in_any_state(self, tmp_path, capsys, content):
        cache_path = tmp_path / "cache.json"
        if content is not None:
            cache_path.write_bytes(content)
        assert main(["cache", "clear", "--cache", str(cache_path)]) == 0
        assert capsys.readouterr().out == f"cleared {cache_path}\n"
        assert cache_path.read_bytes() == b'{"snippetnet_cache": 3}\n'


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path, actors6_file, corpus20_file):
        result = subprocess.run(
            [
                sys.executable, "-m", "snippetnet.cli", "extract",
                "--actors", str(actors6_file), "--corpus", str(corpus20_file),
                "--cache", str(tmp_path / "cache.json"),
                "--threshold", "0.0", "--out", str(tmp_path / "network.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "network.json").exists()
