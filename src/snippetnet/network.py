"""Graph assembly and export.

Nodes are all the input actors -- people with no surviving relation stay in
the graph as isolates. Edges are the detected pairs whose strength clears the
threshold, each carrying its score, domain-overlap value, labels, and how many
snippets back it. Everything is ordered (nodes by id, edges by pair), so equal
networks export to byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from .labeling import EdgeLabels, UsrScore
from .relations import Actor
from .strength import StrengthScore

EXPORT_FORMATS = ("dot", "graphml", "json")

EMPTY_USR = UsrScore(value=0.0, shared_domains=frozenset())
EMPTY_LABELS = EdgeLabels(labels=(), source=None)


@dataclass(frozen=True)
class Edge:
    pair: tuple[str, str]
    weight: StrengthScore
    usr: UsrScore
    labels: EdgeLabels
    evidence_size: int


@dataclass(frozen=True)
class SocialNetwork:
    nodes: tuple[Actor, ...]
    edges: tuple[Edge, ...]
    provenance: dict


@dataclass(frozen=True)
class AdjacencyMatrix:
    order: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]


def build_network(actors, evidence, scores, usr_scores=None, labels=None, *,
                  threshold: float, provenance: dict | None = None) -> SocialNetwork:
    """Assemble the network from detection evidence and per-pair annotations.

    Every detected pair must have a StrengthScore in scores (ValueError
    otherwise); pairs scoring below the threshold are dropped, undetected
    pairs are never edges. usr_scores and labels are optional per-pair maps;
    absent entries get empty placeholders. The threshold has no default on
    purpose: it is part of what a network claims.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    actors = list(actors)
    ids = {actor.id for actor in actors}
    if len(ids) != len(actors):
        raise ValueError("actor ids must be unique")
    usr_scores = usr_scores or {}
    labels = labels or {}
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
        score = scores.get(item.pair) if scores else None
        if score is None:
            raise ValueError(f"detected pair {item.pair} has no strength score")
        if score.value < threshold:
            continue
        edges.append(
            Edge(
                pair=item.pair,
                weight=score,
                usr=usr_scores.get(item.pair, EMPTY_USR),
                labels=labels.get(item.pair, EMPTY_LABELS),
                evidence_size=len(item.l_ab),
            )
        )
    nodes = tuple(sorted(actors, key=lambda actor: actor.id))
    return SocialNetwork(nodes=nodes, edges=tuple(edges), provenance=dict(provenance or {}))


def to_matrix(network: SocialNetwork) -> AdjacencyMatrix:
    """Symmetric 0/1 adjacency with a zero diagonal, rows in id order."""
    order = tuple(sorted(actor.id for actor in network.nodes))
    index = {actor_id: i for i, actor_id in enumerate(order)}
    size = len(order)
    grid = [[0] * size for _ in range(size)]
    for edge in network.edges:
        i, j = index[edge.pair[0]], index[edge.pair[1]]
        grid[i][j] = 1
        grid[j][i] = 1
    return AdjacencyMatrix(order=order, cells=tuple(tuple(row) for row in grid))


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
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def network_from_json(data) -> SocialNetwork:
    """Rebuild a SocialNetwork from the json export format."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    nodes = tuple(Actor(name=row["name"], id=row["id"]) for row in payload["nodes"])
    edges = []
    for row in payload["edges"]:
        weight = row["weight"]
        keywords = weight.get("keywords_used")
        edges.append(
            Edge(
                pair=(row["pair"][0], row["pair"][1]),
                weight=StrengthScore(
                    value=float(weight["value"]),
                    measure=weight["measure"],
                    variant=weight["variant"],
                    keywords_used=tuple(keywords) if keywords is not None else None,
                ),
                usr=UsrScore(
                    value=float(row["usr"]["value"]),
                    shared_domains=frozenset(row["usr"]["shared_domains"]),
                ),
                labels=EdgeLabels(
                    labels=tuple((token, weight_) for token, weight_ in row["labels"]["ranked"]),
                    source=row["labels"]["source"],
                ),
                evidence_size=int(row["evidence_size"]),
            )
        )
    return SocialNetwork(nodes=nodes, edges=tuple(edges), provenance=dict(payload["provenance"]))
