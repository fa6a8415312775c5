import json
import random

import pytest

from conftest import to_matrix
from snippetnet.labeling import EdgeLabels, UsrScore, label_edge, usr
from snippetnet.network import build_network, escape, export, quoteattr
from snippetnet.relations import Actor, RelationEvidence
from snippetnet.snippets import Snippet, parse_url
from snippetnet.strength import StrengthScore

A = Actor(name="Alice Nguyen")
B = Actor(name="Bob Santos")
C = Actor(name="Carol Reyes")


def _snip():
    return Snippet(url=parse_url("http://a.com/x"), title="Alice Nguyen and Bob Santos", abstract="")


def _evidence(a, b, count):
    pair = tuple(sorted((a.id, b.id)))
    return RelationEvidence(
        pair=pair,
        doubleton_count=count,
        l_ab=(_snip(),) * min(count, 10),
        detected=count > 0,
    )


def _score(value, measure="jaccard"):
    return StrengthScore(value=value, measure=measure, variant="sr")


NO_USR = usr([], [])
NO_LABELS = label_edge([])


def _blank(scores):
    """usr and label maps that give every scored pair the values of no evidence."""
    return dict.fromkeys(scores, NO_USR), dict.fromkeys(scores, NO_LABELS)


def _three_actor_inputs():
    evidence = [_evidence(A, B, 2), _evidence(A, C, 0), _evidence(B, C, 1)]
    scores = {
        ("alice-nguyen", "bob-santos"): _score(0.4),
        ("bob-santos", "carol-reyes"): _score(0.1),
    }
    return evidence, scores


class TestBuildNetwork:
    def test_nodes_keep_isolates_and_sort_by_id(self):
        evidence, scores = _three_actor_inputs()
        net = build_network([C, A, B], evidence, scores, *_blank(scores), threshold=0.0)
        assert [n.id for n in net.nodes] == ["alice-nguyen", "bob-santos", "carol-reyes"]
        assert [e.pair for e in net.edges] == [
            ("alice-nguyen", "bob-santos"),
            ("bob-santos", "carol-reyes"),
        ]

    def test_threshold_drops_weak_edges_not_nodes(self):
        evidence, scores = _three_actor_inputs()
        net = build_network([A, B, C], evidence, scores, *_blank(scores), threshold=0.3)
        assert len(net.nodes) == 3
        assert [e.pair for e in net.edges] == [("alice-nguyen", "bob-santos")]

    def test_undetected_pairs_never_become_edges(self):
        evidence, scores = _three_actor_inputs()
        scores[("alice-nguyen", "carol-reyes")] = _score(1.0)
        net = build_network([A, B, C], evidence, scores, *_blank(scores), threshold=0.0)
        assert ("alice-nguyen", "carol-reyes") not in [e.pair for e in net.edges]

    def test_annotations_attach(self):
        evidence, scores = _three_actor_inputs()
        pair, other = ("alice-nguyen", "bob-santos"), ("bob-santos", "carol-reyes")
        usr_scores, labels = _blank(scores)
        usr_scores[pair] = UsrScore(value=0.5, shared_domains=frozenset({"a.com"}))
        labels[pair] = EdgeLabels(labels=(("graph", 3),), source="title")
        net = build_network([A, B, C], evidence, scores, usr_scores, labels, threshold=0.0)
        by_pair = {e.pair: e for e in net.edges}
        assert by_pair[pair].usr.value == 0.5
        assert by_pair[pair].labels.labels == (("graph", 3),)
        assert by_pair[other].usr == NO_USR
        assert by_pair[other].labels == NO_LABELS

    def test_evidence_size_carried_onto_edge(self):
        evidence, scores = _three_actor_inputs()
        net = build_network([A, B, C], evidence, scores, *_blank(scores), threshold=0.0)
        assert {e.pair: e.evidence_size for e in net.edges} == {
            ("alice-nguyen", "bob-santos"): 2,
            ("bob-santos", "carol-reyes"): 1,
        }


class TestToMatrix:
    def test_three_actor_matrix(self):
        evidence, scores = _three_actor_inputs()
        matrix = to_matrix(build_network([A, B, C], evidence, scores, *_blank(scores), threshold=0.0))
        assert matrix.order == ("alice-nguyen", "bob-santos", "carol-reyes")
        assert matrix.cells == ((0, 1, 0), (1, 0, 1), (0, 1, 0))

    def test_random_networks_stay_consistent(self):
        rng = random.Random(4242)
        for _ in range(50):
            n = rng.randint(2, 7)
            actors = [Actor(name=f"Person {chr(65 + i)}") for i in range(n)]
            evidence, scores = [], {}
            for i in range(n):
                for j in range(i + 1, n):
                    count = rng.choice([0, 0, 1, 3])
                    ev = _evidence(actors[i], actors[j], count)
                    evidence.append(ev)
                    if ev.detected:
                        scores[ev.pair] = _score(rng.random())
            net = build_network(actors, evidence, scores, *_blank(scores), threshold=0.0)
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
        evidence, scores = _three_actor_inputs()
        pair = ("alice-nguyen", "bob-santos")
        usr_scores, labels = _blank(scores)
        usr_scores[pair] = UsrScore(value=1 / 3, shared_domains=frozenset({"netsci.org"}))
        labels[pair] = EdgeLabels(labels=(("graph", 2), ("mining", 1)), source="title")
        return build_network(
            [A, B, C], evidence, scores, usr_scores, labels,
            threshold=0.0, provenance={"backend": "fixture", "threshold": 0.0},
        )

    def test_dot_output_shape(self):
        text = export(self._network(), "dot").decode("utf-8")
        assert text.startswith("graph snippetnet {\n")
        assert '"alice-nguyen" [label="Alice Nguyen"];' in text
        assert '"alice-nguyen" -- "bob-santos" [weight=0.4, label="graph"];' in text
        assert text.endswith("}\n")

    def test_dot_escapes_quotes(self):
        actor = Actor(name='Joe "Quote" Smith')
        net = build_network([actor], [], {}, {}, {}, threshold=0.0)
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
        net = build_network([actor], [], {}, {}, {}, threshold=0.0)
        text = export(net, "graphml").decode("utf-8")
        assert "Tom &amp; Co &lt;x&gt;" in text

    def test_local_escapes_match_saxutils(self):
        from xml.sax import saxutils

        rng = random.Random(8)
        alphabet = "&<>\"'\n\r\t abzAZ09;#é–中😀"
        for _ in range(5000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(24)))
            assert escape(text) == saxutils.escape(text), repr(text)
            assert quoteattr(text) == saxutils.quoteattr(text), repr(text)

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
        evidence = [_evidence(A, B, 2)]
        scores = {
            ("alice-nguyen", "bob-santos"): StrengthScore(
                value=0.25, measure="jaccard", variant="srwk", keywords_used=("graph", "mining"),
            )
        }
        net = build_network([A, B], evidence, scores, *_blank(scores), threshold=0.0)
        weight = json.loads(export(net, "json"))["edges"][0]["weight"]
        assert weight == {
            "value": 0.25, "measure": "jaccard", "variant": "srwk", "keywords_used": ["graph", "mining"],
        }
