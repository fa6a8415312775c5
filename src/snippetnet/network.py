"""Graph assembly and export.

Nodes are all the input actors -- people with no surviving relation stay in
the graph as isolates. Edges are the detected pairs whose strength clears the
threshold, each carrying its score, domain-overlap value, labels, and how many
snippets back it. Everything is ordered (nodes by id, edges by pair), so equal
networks export to byte-identical files. The GraphML escapes are local and
match xml.sax.saxutils' escape and quoteattr exactly; saxutils itself imports
urllib.request, and with it a whole web client that no export needs.
"""

from __future__ import annotations

from collections import namedtuple

from .ioutil import json_bytes

EXPORT_FORMATS = ("dot", "graphml", "json")

# weight is a StrengthScore, usr a UsrScore, labels an EdgeLabels.
Edge = namedtuple("Edge", "pair weight usr labels evidence_size")

# nodes: Actors by id; edges: Edges by pair; provenance: a dict, so a network is not hashable.
SocialNetwork = namedtuple("SocialNetwork", "nodes edges provenance")


def build_network(actors, evidence, scores, usr_scores, labels, *,
                  threshold: float, provenance: dict | None = None) -> SocialNetwork:
    """Assemble the network from detection evidence and per-pair annotations.

    scores, usr_scores and labels map each detected pair to its
    StrengthScore, UsrScore and EdgeLabels; a detected pair missing from any
    of them is a ValueError. Pairs scoring below the threshold are dropped,
    undetected pairs are never edges. The threshold has no default on
    purpose: it is part of what a network claims. snippetnet.cli.extract
    computes all three maps and calls this.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    actors = list(actors)
    ids = {actor.id for actor in actors}
    if len(ids) != len(actors):
        raise ValueError("actor ids must be unique")
    edges = []
    seen = set()
    for item in sorted(evidence, key=lambda ev: ev.pair):
        if item.pair in seen:
            raise ValueError(f"duplicate evidence for pair {item.pair}")
        seen.add(item.pair)
        if item.pair[0] not in ids or item.pair[1] not in ids:
            raise ValueError(f"evidence pair {item.pair} references unknown actors")
        if not item.detected:
            continue
        for what, by_pair in (("strength score", scores), ("usr score", usr_scores), ("labels", labels)):
            if item.pair not in by_pair:
                raise ValueError(f"detected pair {item.pair} has no {what}")
        score = scores[item.pair]
        if score.value < threshold:
            continue
        edges.append(Edge(item.pair, score, usr_scores[item.pair], labels[item.pair], len(item.l_ab)))
    nodes = tuple(sorted(actors, key=lambda actor: actor.id))
    return SocialNetwork(nodes=nodes, edges=tuple(edges), provenance=dict(provenance or {}))


def export(network: SocialNetwork, fmt: str) -> bytes:
    """Serialize the network; equal networks yield byte-identical output."""
    if fmt == "dot":
        return _to_dot(network)
    if fmt == "graphml":
        return _to_graphml(network)
    if fmt == "json":
        return _to_json(network)
    raise ValueError(f"unknown format {fmt!r}; expected one of {EXPORT_FORMATS}")


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(network: SocialNetwork) -> bytes:
    lines = ["graph snippetnet {"]
    for actor in network.nodes:
        lines.append(f"  {_dot_quote(actor.id)} [label={_dot_quote(actor.name)}];")
    for edge in network.edges:
        top_label = edge.labels.labels[0][0] if edge.labels.labels else ""
        lines.append(
            f"  {_dot_quote(edge.pair[0])} -- {_dot_quote(edge.pair[1])} "
            f"[weight={edge.weight.value!r}, label={_dot_quote(top_label)}];"
        )
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def escape(text: str) -> str:
    """Escape &, < and > for XML character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """Escape and quote text as an XML attribute value."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _to_graphml(network: SocialNetwork) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="name" attr.type="string"/>',
        '  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>',
        '  <key id="d2" for="edge" attr.name="usr" attr.type="double"/>',
        '  <key id="d3" for="edge" attr.name="labels" attr.type="string"/>',
        '  <graph id="snippetnet" edgedefault="undirected">',
    ]
    for actor in network.nodes:
        lines.append(
            f'    <node id={quoteattr(actor.id)}><data key="d0">{escape(actor.name)}</data></node>'
        )
    for edge in network.edges:
        joined = ";".join(token for token, _ in edge.labels.labels)
        lines.append(
            f"    <edge source={quoteattr(edge.pair[0])} target={quoteattr(edge.pair[1])}>"
            f'<data key="d1">{edge.weight.value!r}</data>'
            f'<data key="d2">{edge.usr.value!r}</data>'
            f'<data key="d3">{escape(joined)}</data>'
            f"</edge>"
        )
    lines.extend(["  </graph>", "</graphml>"])
    return ("\n".join(lines) + "\n").encode("utf-8")


def _to_json(network: SocialNetwork) -> bytes:
    payload = {
        "nodes": [{"id": actor.id, "name": actor.name} for actor in network.nodes],
        "edges": [
            {
                "pair": list(edge.pair),
                "weight": {
                    "value": edge.weight.value,
                    "measure": edge.weight.measure,
                    "variant": edge.weight.variant,
                    "keywords_used": list(edge.weight.keywords_used)
                    if edge.weight.keywords_used is not None
                    else None,
                },
                "usr": {
                    "value": edge.usr.value,
                    "shared_domains": sorted(edge.usr.shared_domains),
                },
                "labels": {
                    "ranked": [[token, weight] for token, weight in edge.labels.labels],
                    "source": edge.labels.source,
                },
                "evidence_size": edge.evidence_size,
            }
            for edge in network.edges
        ],
        "provenance": network.provenance,
    }
    return json_bytes(payload)
