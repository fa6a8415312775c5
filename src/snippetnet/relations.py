"""Pairwise relation detection.

A pair of actors is related when their joint query returns hits AND at least
one returned snippet mentions both names in its title or abstract. The second
condition is what separates a genuine co-mention from two names that merely
share a page count, and it costs nothing extra: only the one doubleton query
per pair is ever issued.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

from .gateway import SearchGateway
from .queries import build_query
from .snippets import Snippet, contains_term, parse_snippets

_SLUG = re.compile(r"[^0-9a-z]+")


def slugify(name: str) -> str:
    """Stable lowercase id for an actor name: runs of non-alphanumerics become '-'."""
    slug = _SLUG.sub("-", name.lower()).strip("-")
    return slug or "actor"


@dataclass(frozen=True)
class Actor:
    name: str
    id: str = field(init=False)

    def __post_init__(self):
        cleaned = self.name.strip()
        if not cleaned:
            raise ValueError("actor name must be non-empty")
        object.__setattr__(self, "name", cleaned)
        object.__setattr__(self, "id", slugify(cleaned))


@dataclass(frozen=True)
class RelationEvidence:
    pair: tuple[str, str]
    doubleton_count: int
    l_ab: tuple[Snippet, ...]
    detected: bool

    def __post_init__(self):
        if self.pair[0] >= self.pair[1]:
            raise ValueError(f"pair must be ordered (id_min, id_max), got {self.pair}")
        if self.detected != (self.doubleton_count > 0 and len(self.l_ab) > 0):
            raise ValueError("detected must equal (doubleton_count > 0 and l_ab non-empty)")


def detect_relation(a: Actor, b: Actor, gateway: SearchGateway) -> RelationEvidence:
    """Issue the pair query and keep the snippets where both names co-occur.

    The two actors are ordered by id before the query is built, so the same
    unordered pair always renders to the same cache key. Snippets with URLs
    that fail to parse are skipped.
    """
    if a.id == b.id:
        raise ValueError(f"cannot relate {a.id!r} to itself")
    first, second = sorted((a, b), key=lambda actor: actor.id)
    result = gateway.execute(build_query([first.name, second.name]))
    kept = [
        snippet for snippet in parse_snippets(result.snippets)
        if contains_term(snippet, first.name) and contains_term(snippet, second.name)
    ]
    return RelationEvidence(
        pair=(first.id, second.id),
        doubleton_count=result.hit_count,
        l_ab=tuple(kept),
        detected=result.hit_count > 0 and len(kept) > 0,
    )


def detect_all(actors, gateway: SearchGateway, parallelism: int = 1) -> list[RelationEvidence]:
    """Evidence for every unordered pair: exactly n(n-1)/2 entries.

    Pairs are visited in lexicographic (id_min, id_max) order and the result
    list keeps that order even when queries fan out across threads. Negative
    evidence is retained so callers can tell "checked, unrelated" apart from
    "never checked". On error nothing partial is returned; completed queries
    stay in the cache, so a rerun resumes where this one stopped. Once a pair
    has failed no further pair starts; only the pairs already in flight, at
    most `parallelism` of them, still pay for their query.
    """
    actors = list(actors)
    if len(actors) < 2:
        raise ValueError("need at least two actors")
    ids = [actor.id for actor in actors]
    if len(set(ids)) != len(ids):
        raise ValueError(f"actor ids must be unique, got {sorted(ids)}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    ordered = sorted(actors, key=lambda actor: actor.id)
    pairs = list(combinations(ordered, 2))
    if parallelism == 1:
        return [detect_relation(a, b, gateway) for a, b in pairs]
    failed = threading.Event()

    def detect_unless_failed(a, b):
        if failed.is_set():
            return None
        try:
            return detect_relation(a, b, gateway)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(detect_unless_failed, a, b) for a, b in pairs]
        # A pair skipped after a failure gives None, but then the failed
        # pair's future raises before the list is complete.
        return [future.result() for future in futures]
