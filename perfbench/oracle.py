"""Independent check of snippetnet extract outputs; imports nothing from snippetnet.

Expected results come straight from the corpus by substring scans, following
the behaviour the README promises:

- an actor matches a document when the lowercased name occurs in the
  lowercased title, body or url;
- a pair's hit count is the size of the intersection of its two match sets;
- the pair is detected when one of the first-page matches (the 10 lowest
  ids) names both actors in its stripped title or its stripped body[:200];
- a plain (sr) weight is jaccard, dice or overlap over the counts, with the
  pair count clamped to both singleton counts first.

Every check returns a list of mismatch messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from xml.etree import ElementTree

PAGE_SIZE = 10
ABSTRACT_LENGTH = 200
WEIGHT_TOLERANCE = 1e-12

_SLUG = re.compile(r"[^0-9a-z]+")
_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)" \[weight=([^,]+), label=')
_DOT_NODE = re.compile(r'^  "([^"]+)" \[label="([^"]*)"\];$')
_GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"


def slug(name: str) -> str:
    return _SLUG.sub("-", name.lower()).strip("-") or "actor"


def weight(measure: str, a: int, b: int, both: int) -> float:
    both = min(both, a, b)
    if measure == "jaccard":
        denominator = a + b - both
        return both / denominator if denominator > 0 else 0.0
    if measure == "dice":
        denominator = a + b
        return 2 * both / denominator if denominator > 0 else 0.0
    if measure == "overlap":
        denominator = min(a, b)
        return both / denominator if denominator > 0 else 0.0
    raise ValueError(f"unknown measure {measure!r}")


def mask_timestamps(data: bytes) -> bytes:
    """Output bytes with the provenance timestamp blanked, for byte comparison."""
    return _GENERATED_AT.sub(b'"generated_at": ""', data)


class Expected:
    """Everything an extract run over one corpus must report."""

    def __init__(self, names, documents):
        self.names = {slug(name): name for name in names}
        self.ids = sorted(self.names)
        self.docs = {doc["id"]: doc for doc in documents}
        self._haystacks = {
            doc["id"]: f"{doc['title']}\n{doc['body']}\n{doc['url']}".lower() for doc in documents
        }
        self.matches = {
            actor_id: frozenset(
                doc_id for doc_id, hay in self._haystacks.items() if name.lower() in hay
            )
            for actor_id, name in self.names.items()
        }
        self.evidence = {}
        for a, b in combinations(self.ids, 2):
            both = sorted(self.matches[a] & self.matches[b])
            kept = [
                doc_id for doc_id in both[:PAGE_SIZE]
                if self._names_in_preview(doc_id, a) and self._names_in_preview(doc_id, b)
            ]
            self.evidence[(a, b)] = {
                "pair": [a, b],
                "doubleton_count": len(both),
                "detected": bool(both) and bool(kept),
                "snippets": [self._snippet(doc_id) for doc_id in kept],
            }
        self.detected = sorted(pair for pair, row in self.evidence.items() if row["detected"])
        self.involved = sorted({actor_id for pair in self.detected for actor_id in pair})

    @property
    def pair_count(self) -> int:
        return len(self.evidence)

    def _names_in_preview(self, doc_id: int, actor_id: str) -> bool:
        doc = self.docs[doc_id]
        needle = self.names[actor_id].lower()
        title = doc["title"].strip().lower()
        abstract = doc["body"][:ABSTRACT_LENGTH].strip().lower()
        return needle in title or needle in abstract

    def _snippet(self, doc_id: int) -> dict:
        # Generated urls are already in normal form, so they render unchanged.
        doc = self.docs[doc_id]
        return {
            "url": doc["url"],
            "title": doc["title"].strip(),
            "abstract": doc["body"][:ABSTRACT_LENGTH].strip(),
        }

    def hit_count(self, phrases) -> int:
        """Exact conjunctive count; the first phrase must be an actor name."""
        first, *rest = [phrase.strip().lower() for phrase in phrases]
        return sum(
            1 for doc_id in self.matches[slug(first)]
            if all(p in self._haystacks[doc_id] for p in rest)
        )

    def expected_weight(self, pair, measure, keywords=None) -> float:
        a, b = pair
        if keywords is None:
            return weight(
                measure,
                len(self.matches[a]),
                len(self.matches[b]),
                self.evidence[pair]["doubleton_count"],
            )
        kw_a, kw_b = keywords
        name_a, name_b = self.names[a], self.names[b]
        return weight(
            measure,
            self.hit_count([name_a, kw_a]),
            self.hit_count([name_b, kw_b]),
            self.hit_count([name_a, kw_a, name_b, kw_b]),
        )

    # -- checks --------------------------------------------------------------

    def check_evidence(self, text: str) -> list:
        errors = []
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        if len(rows) != self.pair_count:
            errors.append(f"evidence has {len(rows)} rows, expected {self.pair_count}")
        expected_rows = [self.evidence[pair] for pair in sorted(self.evidence)]
        for row, want in zip(rows, expected_rows):
            if row != want:
                errors.append(f"evidence for {want['pair']} differs: got {_brief(row)}, expected {_brief(want)}")
        return errors[:5]

    def check_network(self, data: bytes, fmt: str, measure: str, threshold: float, variant: str) -> list:
        try:
            nodes, edges = _parse_network(data, fmt)
        except (ValueError, KeyError, TypeError, ElementTree.ParseError) as exc:
            return [f"{fmt} output does not parse: {exc!r}"]
        errors = []
        if nodes != self.names:
            errors.append(f"node set differs: {len(nodes)} nodes, expected {len(self.names)}")
        # An srwk weight needs the keywords the run chose, which only its
        # edges carry, so srwk runs are checked at threshold 0 (every
        # detected pair is an edge).
        expected_edges = set()
        for pair in self.detected:
            keywords = edges.get(pair, {}).get("keywords")
            if variant == "sr" and keywords is not None:
                errors.append(f"sr edge {pair} carries keywords {keywords}")
            want = self.expected_weight(pair, measure, keywords)
            if want >= threshold:
                expected_edges.add(pair)
            got = edges.get(pair)
            if got is not None and abs(got["weight"] - want) > WEIGHT_TOLERANCE:
                errors.append(f"weight of {pair} is {got['weight']!r}, expected {want!r}")
            if got is not None and got.get("measure", measure) != measure:
                errors.append(f"edge {pair} scored with {got['measure']}, expected {measure}")
        if set(edges) != expected_edges:
            extra = sorted(set(edges) - expected_edges)[:3]
            missing = sorted(expected_edges - set(edges))[:3]
            errors.append(f"edge set differs: extra {extra}, missing {missing}")
        return errors[:5]

    def check_report(self, report: dict, issued_before: int, variant: str, warm: bool) -> list:
        """Paid queries come from backend_calls, cross-checked with the ledger."""
        errors = []
        try:
            calls = int(report["backend_calls"])
            issued = int(report["ledger"]["total_issued"]) - issued_before
        except (KeyError, TypeError, ValueError) as exc:
            return [f"report lacks backend_calls or ledger.total_issued: {exc!r}"]
        if calls != issued:
            errors.append(f"backend_calls {calls} but the ledger issued {issued}")
        n = len(self.names)
        if variant == "sr" and calls > n * (n - 1) // 2 + n:
            errors.append(f"{calls} backend calls exceed n(n-1)/2 + n = {n * (n - 1) // 2 + n}")
        if warm and calls != 0:
            errors.append(f"warm run paid {calls} backend calls")
        if report.get("pairs") != self.pair_count or report.get("detected") != len(self.detected):
            errors.append(
                f"report counts {report.get('pairs')} pairs / {report.get('detected')} detected, "
                f"expected {self.pair_count} / {len(self.detected)}"
            )
        return errors


def _brief(row: dict) -> str:
    return f"count={row.get('doubleton_count')} detected={row.get('detected')} snippets={len(row.get('snippets', []))}"


def _parse_network(data: bytes, fmt: str):
    """(nodes {id: name}, edges {(a, b): {weight, measure?, keywords?}}) from an export."""
    text = data.decode("utf-8")
    nodes, edges = {}, {}
    if fmt == "json":
        payload = json.loads(text)
        nodes = {row["id"]: row["name"] for row in payload["nodes"]}
        for row in payload["edges"]:
            w = row["weight"]
            keywords = w.get("keywords_used")
            edges[tuple(row["pair"])] = {
                "weight": float(w["value"]),
                "measure": w["measure"],
                "keywords": tuple(keywords) if keywords is not None else None,
            }
    elif fmt == "dot":
        for line in text.splitlines():
            edge = _DOT_EDGE.match(line)
            node = _DOT_NODE.match(line)
            if edge:
                edges[(edge.group(1), edge.group(2))] = {"weight": float(edge.group(3))}
            elif node:
                nodes[node.group(1)] = node.group(2)
    elif fmt == "graphml":
        graph = ElementTree.fromstring(data).find(f"{_GRAPHML}graph")
        for node in graph.iter(f"{_GRAPHML}node"):
            nodes[node.get("id")] = node.find(f"{_GRAPHML}data").text
        for edge in graph.iter(f"{_GRAPHML}edge"):
            values = {d.get("key"): d.text for d in edge.iter(f"{_GRAPHML}data")}
            edges[(edge.get("source"), edge.get("target"))] = {"weight": float(values["d1"])}
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return nodes, edges
