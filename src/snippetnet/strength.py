"""Relation strength from singleton and doubleton hit counts.

Three set-similarity measures, each taking the counts |a|, |b|, |a n b| as
three ints, mapping to [0, 1] and returning 0.0 when its denominator is zero.
Counts are clamped first: clamp returns the same three ints, ready to unpack
into a measure, with the intersection cut so it never exceeds either side;
live engines report estimates that can violate that, fixture counts never do.
sr is the one scorer, for both variants: srwk only swaps in the
keyword-narrowed counts that sr_with_keywords pays for.
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


def sr(counts, measure: str = "jaccard") -> list[StrengthScore]:
    """One score per (|a|, |b|, |a n b|, keywords_used); pays for no query.

    keywords_used is None for counts from the plain singletons and the pair's
    doubleton, which makes the variant "sr"; the keyword pair of narrowed
    counts, as sr_with_keywords returns them, makes it "srwk".
    """
    return [StrengthScore(value=MEASURES[measure](*clamp(count_a, count_b, joint)), measure=measure,
                          variant="sr" if keywords_used is None else "srwk", keywords_used=keywords_used)
            for count_a, count_b, joint, keywords_used in counts]


def sr_with_keywords(pairs, gateway: SearchGateway) -> list[tuple]:
    """srwk's narrowed counts of each (a, kw_a, b, kw_b): (|a n kw_a|, |b n kw_b|, joint, (kw_a, kw_b)).

    |a n kw_a| and |b n kw_b| replace the singletons, and one four-phrase
    query supplies the joint count. Each pair comes with a's id before b's,
    as detect_all gives them, so its joint query renders to one canonical
    cache key; its trimmed keywords come back in that order. Every
    pair's three queries are built before any is paid for, and one
    gateway.execute_all pays for all, at the gateway's width.
    """
    queries = [(build_query([a.name, kw_a]), build_query([b.name, kw_b]), build_query([a.name, kw_a, b.name, kw_b]))
               for a, kw_a, b, kw_b in pairs]
    flat = (query for three in queries for query in three)
    counts = iter([result.hit_count for result in gateway.execute_all(flat)])
    return [(next(counts), next(counts), next(counts), (narrowed_a.terms[1], narrowed_b.terms[1]))
            for narrowed_a, narrowed_b, _ in queries]
