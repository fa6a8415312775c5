"""Snippet model: tokenized URL, trimmed title and abstract, and term matching.

A URL is read as scheme://labels/segments. Host labels are stored right to
left, so domains[0] is always the top-level label no matter how deep the
hostname goes; path segments keep their original order and case. Queries and
fragments are dropped, the port is stripped, scheme and host are lowercased.
Rendering reverses that exactly, which gives parse/render a fixed point on
normalized URLs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import RawSnippet
from .errors import MalformedUrl


@dataclass(frozen=True)
class UrlTokens:
    scheme: str
    domains: tuple[str, ...]
    paths: tuple[str, ...]

    def render(self) -> str:
        host = ".".join(reversed(self.domains))
        tail = "/" + "/".join(self.paths) if self.paths else ""
        return f"{self.scheme}://{host}{tail}"


@dataclass(frozen=True)
class Snippet:
    url: UrlTokens
    title: str
    abstract: str


def parse_url(raw: str) -> UrlTokens:
    """Split a URL into scheme, right-to-left host labels, and path segments.

    Raises MalformedUrl when there is no '://' separator or the host is empty.
    Userinfo, if present, stays inside the host labels verbatim; empty path
    segments (from doubled or trailing slashes) are dropped.
    """
    if "://" not in raw:
        raise MalformedUrl(f"no scheme separator in {raw!r}")
    scheme, _, rest = raw.partition("://")
    scheme = scheme.strip().lower()
    if not scheme:
        raise MalformedUrl(f"empty scheme in {raw!r}")
    for cut in ("#", "?"):
        rest = rest.split(cut, 1)[0]
    host, _, path = rest.partition("/")
    host = host.strip().lower()
    head, sep, maybe_port = host.rpartition(":")
    if sep and maybe_port.isdigit():
        host = head
    labels = [label for label in host.split(".") if label]
    if not labels:
        raise MalformedUrl(f"empty host in {raw!r}")
    segments = tuple(segment for segment in path.split("/") if segment)
    return UrlTokens(scheme=scheme, domains=tuple(reversed(labels)), paths=segments)


def parse_snippet(raw: RawSnippet) -> Snippet:
    """Parse the URL and trim surrounding whitespace off title and abstract."""
    return Snippet(
        url=parse_url(raw.url),
        title=raw.title.strip(),
        abstract=raw.abstract.strip(),
    )


def parse_snippets(raws) -> list[Snippet]:
    """Parse each raw snippet, skipping those whose URL fails to parse.

    Fixture corpora are validated at load time, so only live engines return
    such URLs.
    """
    parsed = []
    for raw in raws:
        try:
            parsed.append(parse_snippet(raw))
        except MalformedUrl:
            continue
    return parsed


def contains_term(snippet: Snippet, term: str) -> bool:
    """True when term occurs, case-insensitively, in the title or the abstract.

    The URL is deliberately not searched: a name embedded in a hostname is
    not the kind of mention relation evidence is built on.
    """
    if not term.strip():
        raise ValueError("term must be non-empty")
    needle = term.lower()
    return needle in snippet.title.lower() or needle in snippet.abstract.lower()
