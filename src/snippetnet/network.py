"""Graph assembly and export.

Nodes are all the input actors -- people with no surviving relation stay in
the graph as isolates. Edges are the detected pairs whose strength clears the
threshold, each carrying its score, domain-overlap value, labels, and how many
snippets back it; snippetnet.cli.extract decides which pairs they are, and
this module only assembles and exports them. Everything is ordered (nodes by
id, edges by pair), so equal networks export to byte-identical files.
GraphML escapes only actor names, with a local escape that matches
xml.sax.saxutils' (which imports urllib.request, and with it a whole web
client that no export needs). An id is an actor name's text.raw_tokens
joined by "-", and a label a text.tokenize token, so neither holds a
character XML would escape: both are written as they are.
"""

from __future__ import annotations

from collections import namedtuple

from .ioutil import json_bytes

EXPORT_FORMATS = ("dot", "graphml", "json")

# weight is a StrengthScore, usr a UsrScore, labels an EdgeLabels.
Edge = namedtuple("Edge", "pair weight usr labels evidence_size")

# nodes: Actors by id; edges: Edges by pair; provenance: a dict, so a network is not hashable.
SocialNetwork = namedtuple("SocialNetwork", "nodes edges provenance")


def build_network(actors, edges, provenance: dict | None = None) -> SocialNetwork:
    """Assemble the network: every actor a node, ordered by id, and the edges, ordered by pair.

    It filters nothing: snippetnet.cli.extract decides which pairs are edges
    (detected, and scoring at or above the threshold) and annotates only those.
    """
    nodes = tuple(sorted(actors, key=lambda actor: actor.id))
    # Keyed on the pair: a bare sorted would go on to compare scores on a tie.
    return SocialNetwork(nodes, tuple(sorted(edges, key=lambda edge: edge.pair)), dict(provenance or {}))


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
            f'    <node id="{actor.id}"><data key="d0">{escape(actor.name)}</data></node>'
        )
    for edge in network.edges:
        joined = ";".join(token for token, _ in edge.labels.labels)
        lines.append(
            f'    <edge source="{edge.pair[0]}" target="{edge.pair[1]}">'
            f'<data key="d1">{edge.weight.value!r}</data>'
            f'<data key="d2">{edge.usr.value!r}</data>'
            f'<data key="d3">{joined}</data>'
            f"</edge>"
        )
    lines.extend(["  </graph>", "</graphml>"])
    return ("\n".join(lines) + "\n").encode("utf-8")


def _to_json(network: SocialNetwork) -> bytes:
    payload = {
        "nodes": [actor._asdict() for actor in network.nodes],
        "edges": [
            {
                "pair": edge.pair,
                "weight": edge.weight._asdict(),
                "usr": {"value": edge.usr.value, "shared_domains": sorted(edge.usr.shared_domains)},
                "labels": {"ranked": edge.labels.labels, "source": edge.labels.source},
                "evidence_size": edge.evidence_size,
            }
            for edge in network.edges
        ],
        "provenance": network.provenance,
    }
    return json_bytes(payload)
