"""Relation strength from singleton and doubleton hit counts.

Three set-similarity measures over the counts |a|, |b|, |a n b|, each mapping
to [0, 1] and returning 0.0 when its denominator is zero. Counts are clamped
first so the intersection never exceeds either side; live engines report
estimates that can violate that, fixture counts never do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gateway import SearchGateway
from .queries import build_query
from .relations import Actor, RelationEvidence


@dataclass(frozen=True)
class HitCountTriple:
    singleton_a: int
    singleton_b: int
    doubleton: int


def clamp(singleton_a: int, singleton_b: int, doubleton: int) -> HitCountTriple:
    return HitCountTriple(singleton_a, singleton_b, min(doubleton, singleton_a, singleton_b))


def jaccard(counts: HitCountTriple) -> float:
    denominator = counts.singleton_a + counts.singleton_b - counts.doubleton
    return counts.doubleton / denominator if denominator > 0 else 0.0


def dice(counts: HitCountTriple) -> float:
    denominator = counts.singleton_a + counts.singleton_b
    return 2 * counts.doubleton / denominator if denominator > 0 else 0.0


def overlap(counts: HitCountTriple) -> float:
    denominator = min(counts.singleton_a, counts.singleton_b)
    return counts.doubleton / denominator if denominator > 0 else 0.0


MEASURES = {"jaccard": jaccard, "dice": dice, "overlap": overlap}


@dataclass(frozen=True)
class StrengthScore:
    value: float
    measure: str
    variant: str
    keywords_used: tuple[str, str] | None = None


def _measure_fn(measure: str):
    try:
        return MEASURES[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}") from None


def sr(a: Actor, b: Actor, evidence: RelationEvidence, gateway: SearchGateway,
       measure: str = "jaccard") -> StrengthScore:
    """Plain strength: two cache-first singleton fetches plus the evidence doubleton.

    Raises ValueError when the evidence says the pair failed detection;
    scoring an undetected pair would manufacture a relation out of nothing.
    """
    fn = _measure_fn(measure)
    if not evidence.detected:
        raise ValueError(f"pair {evidence.pair} was not detected; nothing to score")
    count_a = gateway.execute(build_query([a.name])).hit_count
    count_b = gateway.execute(build_query([b.name])).hit_count
    triple = clamp(count_a, count_b, evidence.doubleton_count)
    return StrengthScore(value=fn(triple), measure=measure, variant="sr")


def sr_with_keywords(a: Actor, kw_a: str, b: Actor, kw_b: str, gateway: SearchGateway,
                     measure: str = "jaccard") -> StrengthScore:
    """Keyword-augmented strength.

    Every count comes from a keyword-narrowed query: |a n kw_a| and
    |b n kw_b| replace the singletons, and one four-phrase query supplies the
    joint count. The pair is put in id order first so the joint query renders
    to one canonical cache key; keywords_used records that canonical order.
    """
    fn = _measure_fn(measure)
    if not kw_a.strip() or not kw_b.strip():
        raise ValueError(f"keywords must be non-empty, got {kw_a!r} and {kw_b!r}")
    if b.id < a.id:
        a, kw_a, b, kw_b = b, kw_b, a, kw_a
    count_a = gateway.execute(build_query([a.name, kw_a])).hit_count
    count_b = gateway.execute(build_query([b.name, kw_b])).hit_count
    count_both = gateway.execute(build_query([a.name, kw_a, b.name, kw_b])).hit_count
    triple = clamp(count_a, count_b, count_both)
    return StrengthScore(
        value=fn(triple),
        measure=measure,
        variant="srwk",
        keywords_used=(kw_a.strip(), kw_b.strip()),
    )
