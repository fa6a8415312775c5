"""Snippet model: tokenized URL, trimmed title and abstract, and term matching.

Snippet is the one snippet type, built where an answer enters the program
(see backends); snippet_record is its one JSON form, for the cache journal
and the evidence dump.

A URL is read as scheme://labels/segments. Host labels are stored right to
left, so domains[0] is always the top-level label no matter how deep the
hostname goes; path segments keep their original order and case. Queries,
fragments, userinfo and the port are dropped, scheme and host are
lowercased, and each label is trimmed; a bracketed IPv6 host is one label.
Rendering loses nothing that parsing keeps, parse_url(u.render()) == u, so
the journal's rendered URLs replay exactly.
"""

from __future__ import annotations

from collections import namedtuple


class UrlTokens(namedtuple("UrlTokens", "scheme domains paths")):
    __slots__ = ()

    def render(self) -> str:
        host = ".".join(reversed(self.domains))
        tail = "/" + "/".join(self.paths) if self.paths else ""
        return f"{self.scheme}://{host}{tail}"


Snippet = namedtuple("Snippet", "url title abstract")


def parse_url(raw: str) -> UrlTokens:
    """Split a URL into scheme, right-to-left host labels, and path segments.

    Raises ValueError on a missing '://' separator or an empty scheme or host.
    Userinfo (everything up to the host's last '@') and the port are
    dropped; a host that reads [...] (an IPv6 address) stays one label;
    empty path segments (from doubled or trailing slashes) are dropped.
    """
    if "://" not in raw:
        raise ValueError(f"no scheme separator in {raw!r}")
    scheme, _, rest = raw.partition("://")
    scheme = scheme.strip().lower()
    if not scheme:
        raise ValueError(f"empty scheme in {raw!r}")
    for cut in ("#", "?"):
        rest = rest.split(cut, 1)[0]
    host, _, path = rest.partition("/")
    host = host.rpartition("@")[2].strip().lower()
    head, sep, maybe_port = host.rpartition(":")
    if sep and maybe_port.isdigit():
        host = head
    # Labels are trimmed, so the rendered host reparses to the same labels.
    labels = [label.strip() for label in host.split(".") if label.strip()]
    joined = ".".join(labels)
    if joined.startswith("[") and joined.endswith("]"):  # checked as rendered, so it reparses alike
        labels = [joined]
    if not labels:
        raise ValueError(f"empty host in {raw!r}")
    head, sep, maybe_port = labels[-1].rpartition(":")
    if sep and maybe_port.isdigit():  # rendered, it would read as the port
        raise ValueError(f"host still ends in a port in {raw!r}")
    segments = tuple(segment for segment in path.split("/") if segment)
    return UrlTokens(scheme=scheme, domains=tuple(reversed(labels)), paths=segments)


def snippet_record(snippet: Snippet) -> dict:
    """The JSON form of a snippet, as the cache journal and the evidence dump write it."""
    return {"url": snippet.url.render(), "title": snippet.title, "abstract": snippet.abstract}


def contains_term(snippet: Snippet, term: str) -> bool:
    """True when term occurs, case-insensitively, in the title or the abstract.

    The URL is deliberately not searched: a name embedded in a hostname is
    not the kind of mention relation evidence is built on.
    """
    if not term.strip():
        raise ValueError("term must be non-empty")
    needle = term.lower()
    return needle in snippet.title.lower() or needle in snippet.abstract.lower()
