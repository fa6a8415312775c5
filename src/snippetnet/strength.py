"""Relation strength from singleton and doubleton hit counts.

Three set-similarity measures, each taking the counts |a|, |b|, |a n b| as
three ints, mapping to [0, 1] and returning 0.0 when its denominator is zero.
Counts are clamped first: clamp returns the same three ints, ready to unpack
into a measure, with the intersection cut so it never exceeds either side;
live engines report estimates that can violate that, fixture counts never do.
"""

from __future__ import annotations

from collections import namedtuple

from .gateway import SearchGateway
from .queries import build_query


def clamp(singleton_a: int, singleton_b: int, doubleton: int) -> tuple[int, int, int]:
    return singleton_a, singleton_b, min(doubleton, singleton_a, singleton_b)


def jaccard(singleton_a: int, singleton_b: int, doubleton: int) -> float:
    denominator = singleton_a + singleton_b - doubleton
    return doubleton / denominator if denominator > 0 else 0.0


def dice(singleton_a: int, singleton_b: int, doubleton: int) -> float:
    denominator = singleton_a + singleton_b
    return 2 * doubleton / denominator if denominator > 0 else 0.0


def overlap(singleton_a: int, singleton_b: int, doubleton: int) -> float:
    denominator = min(singleton_a, singleton_b)
    return doubleton / denominator if denominator > 0 else 0.0


MEASURES = {"jaccard": jaccard, "dice": dice, "overlap": overlap}

# keywords_used is None for sr, and the two keywords in pair order for srwk.
StrengthScore = namedtuple("StrengthScore", "value measure variant keywords_used", defaults=(None,))


def sr(pairs, gateway: SearchGateway, measure: str = "jaccard") -> list[StrengthScore]:
    """Plain strength of each (a, b, evidence): two singleton counts and the evidence doubleton.

    Only a detected pair has a strength; snippetnet.cli.extract scores no
    other, after its contexts stage has cached every involved actor's
    singleton, so the batch of its one gateway.execute_all is all cache hits.
    """
    pairs = list(pairs)
    singletons = (build_query([actor.name]) for a, b, _ in pairs for actor in (a, b))
    counts = iter([result.hit_count for result in gateway.execute_all(singletons)])
    return [StrengthScore(value=MEASURES[measure](*clamp(next(counts), next(counts), evidence.doubleton_count)),
                          measure=measure, variant="sr") for _, _, evidence in pairs]


def sr_with_keywords(pairs, gateway: SearchGateway, measure: str = "jaccard") -> list[StrengthScore]:
    """Keyword-augmented strength of each (a, kw_a, b, kw_b).

    Every count comes from a keyword-narrowed query: |a n kw_a| and
    |b n kw_b| replace the singletons, and one four-phrase query supplies the
    joint count. Each pair is put in id order first so its joint query
    renders to one canonical cache key; keywords_used records that canonical
    order. Every pair's three queries are built before any is paid for, and
    all of them go through one gateway.execute_all, at the gateway's width.
    """
    ordered = [(a, kw_a, b, kw_b) if a.id < b.id else (b, kw_b, a, kw_a) for a, kw_a, b, kw_b in pairs]
    queries = [(build_query([a.name, kw_a]), build_query([b.name, kw_b]), build_query([a.name, kw_a, b.name, kw_b]))
               for a, kw_a, b, kw_b in ordered]
    flat = (query for three in queries for query in three)
    counts = iter([result.hit_count for result in gateway.execute_all(flat)])
    return [StrengthScore(value=MEASURES[measure](*clamp(next(counts), next(counts), next(counts))),
                          measure=measure, variant="srwk", keywords_used=(narrowed_a.terms[1], narrowed_b.terms[1]))
            for narrowed_a, narrowed_b, _ in queries]
