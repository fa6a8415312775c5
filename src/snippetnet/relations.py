"""Pairwise relation detection.

A pair of actors is related when their joint query returns hits AND at least
one returned snippet mentions both names in its title or abstract. The second
condition is what separates a genuine co-mention from two names that merely
share a page count, and it costs nothing extra: only the one doubleton query
per pair is ever issued.

Actor, RelationEvidence and the package's other records are named tuples:
immutable, equal and hashed by value, and cheap to define, which keeps the
start-up of every command short. Like any tuple they iterate, unpack and
order, and a record equals a plain tuple with the same items. Actor trims
its name and derives its id in __new__; _make and _replace bypass __new__,
so nothing in the package calls them. RelationEvidence checks nothing:
detect_all, which builds every one, orders each pair by id and computes its
detected flag.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .gateway import SearchGateway
from .queries import build_query
from .text import contains_phrase, raw_tokens


def slugify(name: str) -> str:
    """Stable lowercase id for an actor name: its raw tokens joined by '-'."""
    return "-".join(raw_tokens(name)) or "actor"


class Actor(namedtuple("Actor", "name id")):
    __slots__ = ()

    def __new__(cls, name: str):
        cleaned = name.strip()
        if not cleaned:
            raise ValueError("actor name must be non-empty")
        return super().__new__(cls, cleaned, slugify(cleaned))

    def __getnewargs__(self):  # copy and pickle rebuild an Actor from its name alone
        return (self.name,)


RelationEvidence = namedtuple("RelationEvidence", "pair doubleton_count l_ab detected")


def detect_all(actors, gateway: SearchGateway) -> list[RelationEvidence]:
    """Evidence for every unordered pair: exactly n(n-1)/2 entries.

    Pairs are visited in lexicographic (id_min, id_max) order, which each
    pair's query and the result list keep; the queries go through
    gateway.execute_all, so they fan out as wide as the gateway allows, and
    a failed query stops every pair not yet started. Negative evidence is
    retained so callers can tell "checked, unrelated" apart from "never
    checked". On error nothing partial is returned; completed queries stay in
    the cache, so a rerun resumes where this one stopped. Two actors with one
    id raise ValueError before any query.
    """
    pairs = list(combinations(sorted(actors, key=lambda actor: actor.id), 2))
    repeated = sorted({a.id for a, b in pairs if a.id == b.id})
    if repeated:
        raise ValueError(f"actor ids must be unique, got {', '.join(repeated)} more than once")
    results = gateway.execute_all((build_query([a.name, b.name]) for a, b in pairs))
    evidence = []
    for (a, b), result in zip(pairs, results):
        # The URL is not searched: a name in a hostname is no mention. No name holds "\n" (build_query).
        texts = [f"{s.title}\n{s.abstract}".lower() for s in result.snippets]
        kept = tuple(s for s, text in zip(result.snippets, texts)
                     if contains_phrase(text, a.name.lower()) and contains_phrase(text, b.name.lower()))
        evidence.append(RelationEvidence((a.id, b.id), result.hit_count, kept, result.hit_count > 0 and len(kept) > 0))
    return evidence
