"""Labels and a second strength signal from the URL hierarchies of evidence.

Two actors whose snippets come from the same registrable domains share an
institutional footprint even when prose evidence is thin; that overlap is the
underlying-strength score. One rule, _site_size, says which host labels name
the site. The tokens of the host labels left of the site, of the path
segments and of the title name what an edge is about.
"""

from __future__ import annotations

from collections import namedtuple

from .snippets import UrlTokens
from .text import STOPWORDS, tokenize

# Multi-part public suffixes under which the registrable name needs a third
# label: "uni.ac.id" identifies a site, "ac.id" identifies a country's whole
# academic namespace. A short built-in list covers the common cases.
PUBLIC_SUFFIXES = frozenset(
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

MAX_LABELS = 5

UsrScore = namedtuple("UsrScore", "value shared_domains")

# labels: (token, weight) pairs, heaviest first; source: where the top label came from.
EdgeLabels = namedtuple("EdgeLabels", "labels source", defaults=(None,))


def _site_size(domains: tuple[str, ...]) -> int:
    """How many of the rightmost host labels name the site.

    Two, or three when those two are a public suffix. An IPv4 host is all
    four of its labels: 10.20.0.1 and 192.168.0.1 share no site, although
    both end in "0.1".
    """
    if len(domains) == 4 and all(label.isascii() and label.isdigit() for label in domains):
        return 4
    if len(domains) >= 3 and f"{domains[1]}.{domains[0]}" in PUBLIC_SUFFIXES:
        return 3
    return 2


def registrable_domain(url: UrlTokens) -> str:
    """The site's host labels, left to right: the rightmost _site_size of them, or all of a shorter host."""
    domains = url.domains
    return ".".join(reversed(domains[:_site_size(domains)]))


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


def label_edge(l_ab, names) -> EdgeLabels:
    """The MAX_LABELS candidate tokens of an edge seen most often.

    Candidates per snippet are the tokens of three streams: the host labels
    left of the registrable domain (none of an IPv4 host), the path segments
    and the title. One rule, text.tokenize, cuts all three, with the generic
    filter widened by names, every actor's name tokens, which say who, not
    what about. Ties break lexicographically. The source field records where
    the top-ranked token was seen most often, the first of _SOURCE_PRIORITY on a tie.
    """
    generic = GENERIC_TOKENS.union(names)
    counts: dict = {}
    by_source: dict = {}  # (token, source) -> count
    for snippet in l_ab:
        url = snippet.url
        # "." and "/" end a token, so joining the labels or segments cuts no token apart.
        host = ".".join(url.domains[_site_size(url.domains):])
        for text, source in (host, "url_domain"), ("/".join(url.paths), "url_path"), (snippet.title, "title"):
            for token in tokenize(text, generic):
                counts[token] = counts.get(token, 0) + 1
                by_source[token, source] = by_source.get((token, source), 0) + 1

    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))[:MAX_LABELS]
    if not ranked:
        return EdgeLabels(labels=(), source=None)
    top = ranked[0][0]
    # max keeps the first of equal keys, so a tie goes to the earlier source.
    best = max(_SOURCE_PRIORITY, key=lambda source: by_source.get((top, source), 0))
    return EdgeLabels(labels=tuple(ranked), source=best)
