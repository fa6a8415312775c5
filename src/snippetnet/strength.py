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
from .relations import Actor, RelationEvidence


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


def sr(a: Actor, b: Actor, evidence: RelationEvidence, gateway: SearchGateway,
       measure: str = "jaccard") -> StrengthScore:
    """Plain strength: two cache-first singleton fetches plus the evidence doubleton.

    Only a detected pair has a strength; snippetnet.cli.extract scores no other.
    """
    count_a = gateway.execute(build_query([a.name])).hit_count
    count_b = gateway.execute(build_query([b.name])).hit_count
    return StrengthScore(value=MEASURES[measure](*clamp(count_a, count_b, evidence.doubleton_count)),
                         measure=measure, variant="sr")


def sr_with_keywords(a: Actor, kw_a: str, b: Actor, kw_b: str, gateway: SearchGateway,
                     measure: str = "jaccard") -> StrengthScore:
    """Keyword-augmented strength; all three queries are built before any is paid for.

    Every count comes from a keyword-narrowed query: |a n kw_a| and
    |b n kw_b| replace the singletons, and one four-phrase query supplies the
    joint count. The pair is put in id order first so the joint query renders
    to one canonical cache key; keywords_used records that canonical order.
    """
    if b.id < a.id:
        a, kw_a, b, kw_b = b, kw_b, a, kw_a
    queries = [build_query([a.name, kw_a]), build_query([b.name, kw_b]),
               build_query([a.name, kw_a, b.name, kw_b])]
    count_a, count_b, count_both = (gateway.execute(query).hit_count for query in queries)
    return StrengthScore(
        value=MEASURES[measure](*clamp(count_a, count_b, count_both)),
        measure=measure,
        variant="srwk",
        keywords_used=(queries[0].terms[1], queries[1].terms[1]),
    )
