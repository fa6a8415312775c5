import json
import random

import pytest

from conftest import to_matrix
from snippetnet.labeling import EdgeLabels, UsrScore, label_edge, usr
from snippetnet.network import Edge, build_network, escape, export
from snippetnet.relations import Actor, slugify
from snippetnet.snippets import Snippet, parse_url
from snippetnet.strength import StrengthScore
from snippetnet.text import tokenize

A = Actor(name="Alice Nguyen")
B = Actor(name="Bob Santos")
C = Actor(name="Carol Reyes")

NO_USR = usr([], [])
NO_LABELS = label_edge([], ())


def _edge(a, b, value, evidence_size, usr_score=NO_USR, labels=NO_LABELS):
    pair = tuple(sorted((a.id, b.id)))
    return Edge(pair, StrengthScore(value=value, measure="jaccard", variant="sr"), usr_score, labels, evidence_size)


def _three_actor_edges():
    """Alice-Bob and Bob-Carol, backed by 2 and 1 snippets; Carol and Alice share no edge."""
    return [_edge(A, B, 0.4, 2), _edge(B, C, 0.1, 1)]


class TestBuildNetwork:
    def test_nodes_keep_isolates_and_sort_by_id(self):
        net = build_network([C, A, B], _three_actor_edges()[::-1])
        assert [n.id for n in net.nodes] == ["alice-nguyen", "bob-santos", "carol-reyes"]
        assert [e.pair for e in net.edges] == [
            ("alice-nguyen", "bob-santos"),
            ("bob-santos", "carol-reyes"),
        ]

    def test_annotations_attach(self):
        pair, other = ("alice-nguyen", "bob-santos"), ("bob-santos", "carol-reyes")
        edges = [
            _edge(A, B, 0.4, 2, UsrScore(value=0.5, shared_domains=frozenset({"a.com"})),
                  EdgeLabels(labels=(("graph", 3),), source="title")),
            _edge(B, C, 0.1, 1),
        ]
        net = build_network([A, B, C], edges)
        by_pair = {e.pair: e for e in net.edges}
        assert by_pair[pair].usr.value == 0.5
        assert by_pair[pair].labels.labels == (("graph", 3),)
        assert by_pair[other].usr == NO_USR
        assert by_pair[other].labels == NO_LABELS

    def test_evidence_size_carried_onto_edge(self):
        net = build_network([A, B, C], _three_actor_edges())
        assert {e.pair: e.evidence_size for e in net.edges} == {
            ("alice-nguyen", "bob-santos"): 2,
            ("bob-santos", "carol-reyes"): 1,
        }


class TestToMatrix:
    def test_three_actor_matrix(self):
        matrix = to_matrix(build_network([A, B, C], _three_actor_edges()))
        assert matrix.order == ("alice-nguyen", "bob-santos", "carol-reyes")
        assert matrix.cells == ((0, 1, 0), (1, 0, 1), (0, 1, 0))

    def test_random_networks_stay_consistent(self):
        rng = random.Random(4242)
        for _ in range(50):
            n = rng.randint(2, 7)
            actors = [Actor(name=f"Person {chr(65 + i)}") for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    count = rng.choice([0, 0, 1, 3])
                    if count:
                        edges.append(_edge(actors[i], actors[j], rng.random(), count))
            net = build_network(actors, edges)
            matrix = to_matrix(net)
            size = len(matrix.order)
            edge_pairs = {e.pair for e in net.edges}
            for i in range(size):
                assert matrix.cells[i][i] == 0
                for j in range(size):
                    assert matrix.cells[i][j] == matrix.cells[j][i]
            ones = {
                (matrix.order[i], matrix.order[j])
                for i in range(size)
                for j in range(i + 1, size)
                if matrix.cells[i][j] == 1
            }
            assert ones == edge_pairs


class TestExports:
    def _network(self):
        edges = [
            _edge(A, B, 0.4, 2, UsrScore(value=1 / 3, shared_domains=frozenset({"netsci.org"})),
                  EdgeLabels(labels=(("graph", 2), ("mining", 1)), source="title")),
            _edge(B, C, 0.1, 1),
        ]
        return build_network([A, B, C], edges, provenance={"backend": "fixture", "threshold": 0.0})

    def test_dot_output_shape(self):
        text = export(self._network(), "dot").decode("utf-8")
        assert text.startswith("graph snippetnet {\n")
        assert '"alice-nguyen" [label="Alice Nguyen"];' in text
        assert '"alice-nguyen" -- "bob-santos" [weight=0.4, label="graph"];' in text
        assert text.endswith("}\n")

    def test_dot_escapes_quotes(self):
        actor = Actor(name='Joe "Quote" Smith')
        net = build_network([actor], [])
        text = export(net, "dot").decode("utf-8")
        assert '[label="Joe \\"Quote\\" Smith"];' in text

    def test_graphml_output_shape(self):
        text = export(self._network(), "graphml").decode("utf-8")
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert '<node id="carol-reyes"><data key="d0">Carol Reyes</data></node>' in text
        assert '<edge source="alice-nguyen" target="bob-santos">' in text
        assert '<data key="d3">graph;mining</data>' in text

    def test_graphml_escapes_markup(self):
        actor = Actor(name="Tom & Co <x>")
        net = build_network([actor], [])
        text = export(net, "graphml").decode("utf-8")
        assert "Tom &amp; Co &lt;x&gt;" in text

    def test_local_escape_matches_saxutils(self):
        from xml.sax import saxutils

        rng = random.Random(8)
        alphabet = "&<>\"'\n\r\t abzAZ09;#é–中😀"
        for _ in range(5000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(24)))
            assert escape(text) == saxutils.escape(text), repr(text)

    def test_no_name_gives_an_id_or_label_token_that_xml_would_escape(self):
        # GraphML writes ids and labels unescaped. An id is a name's raw
        # tokens joined by "-", and a label a tokenize token of a title, host
        # or path, so neither may hold a character saxutils' escape or
        # quoteattr would change, a control character, or a lone surrogate,
        # which UTF-8 cannot write.
        rng = random.Random(21)
        alphabet = "&<>\"'\n\r\t\x00\x1f ;#-_.abzAZ09é\u0301\u0307–中😀\ud800\udfff\u2028\ufffeİΣ\u212a"
        escaped = set("&<>\"'")
        for _ in range(5000):
            name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 24)))
            for token in [slugify(name), *tokenize(name)]:
                assert token.isprintable() and not escaped & set(token), (name, token)
                assert token.encode("utf-8").decode("utf-8") == token

    def test_graphml_of_any_writable_names_parses_back_to_them(self):
        from xml.etree import ElementTree

        rng = random.Random(34)
        alphabet = "&<>'; -_.abzAZ09é\u0301–中😀İΣ"
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        for _ in range(200):
            names = {"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 16))).strip() for _ in range(4)}
            actors = {actor.id: actor for actor in map(Actor, filter(None, names))}
            if len(actors) < 2:
                continue
            ids = sorted(actors)
            labels = label_edge([Snippet(parse_url("http://lab.example.org/x"), " ".join(names), "")], ())
            network = build_network(actors.values(), [_edge(actors[ids[0]], actors[ids[1]], 0.5, 1, labels=labels)])
            graph = ElementTree.fromstring(export(network, "graphml")).find("g:graph", ns)
            nodes = {node.get("id"): node.find("g:data", ns).text for node in graph.findall("g:node", ns)}
            assert nodes == {actor_id: actor.name for actor_id, actor in actors.items()}
            (edge,) = graph.findall("g:edge", ns)
            assert (edge.get("source"), edge.get("target")) == (ids[0], ids[1])
            assert (edge.findall("g:data", ns)[2].text or "") == ";".join(token for token, _ in labels.labels)

    def test_equal_networks_export_identically(self):
        assert export(self._network(), "json") == export(self._network(), "json")
        assert export(self._network(), "dot") == export(self._network(), "dot")
        assert export(self._network(), "graphml") == export(self._network(), "graphml")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(self._network(), "gexf")

    def test_json_export_carries_every_field(self):
        payload = json.loads(export(self._network(), "json"))
        assert payload["nodes"] == [
            {"id": "alice-nguyen", "name": "Alice Nguyen"},
            {"id": "bob-santos", "name": "Bob Santos"},
            {"id": "carol-reyes", "name": "Carol Reyes"},
        ]
        assert payload["edges"] == [
            {
                "pair": ["alice-nguyen", "bob-santos"],
                "weight": {"value": 0.4, "measure": "jaccard", "variant": "sr", "keywords_used": None},
                "usr": {"value": 1 / 3, "shared_domains": ["netsci.org"]},
                "labels": {"ranked": [["graph", 2], ["mining", 1]], "source": "title"},
                "evidence_size": 2,
            },
            {
                "pair": ["bob-santos", "carol-reyes"],
                "weight": {"value": 0.1, "measure": "jaccard", "variant": "sr", "keywords_used": None},
                "usr": {"value": 0.0, "shared_domains": []},
                "labels": {"ranked": [], "source": None},
                "evidence_size": 1,
            },
        ]
        assert payload["provenance"] == {"backend": "fixture", "threshold": 0.0}

    def test_json_export_carries_keywords(self):
        weight = StrengthScore(value=0.25, measure="jaccard", variant="srwk", keywords_used=("graph", "mining"))
        net = build_network([A, B], [Edge(("alice-nguyen", "bob-santos"), weight, NO_USR, NO_LABELS, 2)])
        weight = json.loads(export(net, "json"))["edges"][0]["weight"]
        assert weight == {
            "value": 0.25, "measure": "jaccard", "variant": "srwk", "keywords_used": ["graph", "mining"],
        }
