"""Labels and a second strength signal from the URL hierarchies of evidence.

Two actors whose snippets come from the same registrable domains share an
institutional footprint even when prose evidence is thin; that overlap is the
underlying-strength score. The informative middle of those URLs (deep
subdomain labels, path segments) plus snippet titles supply tokens for naming
what an edge is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .snippets import UrlTokens
from .text import MIN_TOKEN_LENGTH, STOPWORDS, tokenize

# Multi-part public suffixes under which the registrable name needs a third
# label: "uni.ac.id" identifies a site, "ac.id" identifies a country's whole
# academic namespace. A short built-in list covers the common cases.
DEFAULT_PUBLIC_SUFFIXES = frozenset(
    {
        "ac.id", "co.id", "go.id", "or.id",
        "ac.uk", "co.uk", "gov.uk", "org.uk",
        "com.au", "edu.au", "gov.au", "net.au", "org.au",
        "ac.jp", "co.jp", "ne.jp", "or.jp",
        "com.br", "org.br", "com.cn", "edu.cn", "gov.cn",
        "ac.in", "co.in", "ac.kr", "co.kr",
        "ac.nz", "co.nz", "ac.za", "co.za",
        "com.ar", "com.mx", "com.sg", "edu.sg", "com.my", "com.tr",
    }
)

# Tokens that name plumbing rather than topics: schemes, "www", generic
# top-level labels, common page-file suffixes, plus the stopword list.
GENERIC_TOKENS = (
    frozenset(
        {
            "http", "https", "ftp", "file", "mailto", "www",
            "com", "org", "net", "edu", "gov", "mil", "int", "info", "biz",
            "html", "htm", "php", "asp", "aspx", "jsp", "cgi", "index",
        }
    )
    | STOPWORDS
)

_SOURCE_PRIORITY = ("url_domain", "url_path", "title")


@dataclass(frozen=True)
class UsrScore:
    value: float
    shared_domains: frozenset


@dataclass(frozen=True)
class EdgeLabels:
    labels: tuple  # (token, weight) pairs, heaviest first
    source: str | None = None  # provenance of the top label


def registrable_domain(url: UrlTokens) -> str:
    """The two rightmost host labels, or three when those two are a public suffix."""
    domains = url.domains
    if len(domains) == 1:
        return domains[0]
    two = f"{domains[1]}.{domains[0]}"
    if len(domains) >= 3 and two in DEFAULT_PUBLIC_SUFFIXES:
        return f"{domains[2]}.{two}"
    return two


def usr(l_a, l_b) -> UsrScore:
    """Jaccard overlap of the registrable-domain sets behind two snippet lists.

    Returns 0.0 (with no shared domains) when both lists are empty; the value
    is positive exactly when at least one domain is shared.
    """
    domains_a = {registrable_domain(s.url) for s in l_a}
    domains_b = {registrable_domain(s.url) for s in l_b}
    union = domains_a | domains_b
    shared = domains_a & domains_b
    value = len(shared) / len(union) if union else 0.0
    return UsrScore(value=value, shared_domains=frozenset(shared))


def label_edge(l_ab, max_labels: int) -> EdgeLabels:
    """Rank candidate tokens for an edge by raw occurrence count.

    Candidates per snippet: host labels other than the rightmost two, path
    segments split on non-alphanumerics, and title tokens. The generic filter
    and the minimum token length apply to all three streams. Ties break
    lexicographically. The source field records where the top-ranked token
    was seen most often.
    """
    if max_labels < 1:
        raise ValueError("max_labels must be >= 1")
    counts: dict = {}
    by_source: dict = {}

    def add(token: str, source: str) -> None:
        if len(token) < MIN_TOKEN_LENGTH or token in GENERIC_TOKENS:
            return
        counts[token] = counts.get(token, 0) + 1
        sources = by_source.setdefault(token, {})
        sources[source] = sources.get(source, 0) + 1

    for snippet in l_ab:
        for label in snippet.url.domains[2:]:
            add(label, "url_domain")
        for segment in snippet.url.paths:
            for token in tokenize(segment, stopwords=GENERIC_TOKENS):
                add(token, "url_path")
        for token in tokenize(snippet.title, stopwords=GENERIC_TOKENS):
            add(token, "title")

    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))[:max_labels]
    if not ranked:
        return EdgeLabels(labels=(), source=None)
    top_sources = by_source[ranked[0][0]]
    best = max(_SOURCE_PRIORITY, key=lambda s: (top_sources.get(s, 0), -_SOURCE_PRIORITY.index(s)))
    return EdgeLabels(labels=tuple(ranked), source=best)
