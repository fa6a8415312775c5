"""Snippet model: tokenized URL, trimmed title and abstract.

Snippet is the one snippet type, built where an answer enters the program
(see backends); snippet_record is its one JSON form, for the cache journal
and the evidence dump.

A URL is read as scheme://labels/segments. Host labels are stored right to
left, so domains[0] is always the top-level label no matter how deep the
hostname goes; path segments keep their original order and case. Queries,
fragments, userinfo and the port are dropped, scheme and host are
lowercased, and each label is trimmed; a bracketed IPv6 host is one label.
Rendering loses nothing that parsing keeps, parse_url(u.render()) == u, so
the journal's rendered URLs replay exactly. The host rules run once per
distinct raw scheme and host, and check_url applies parse_url's rules
without building the tokens.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class UrlTokens(namedtuple("UrlTokens", "scheme domains paths")):
    __slots__ = ()

    def render(self) -> str:
        host = ".".join(reversed(self.domains))
        tail = "/" + "/".join(self.paths) if self.paths else ""
        return f"{self.scheme}://{host}{tail}"


Snippet = namedtuple("Snippet", "url title abstract")


def parse_url(raw: str) -> UrlTokens:
    """Split a URL into scheme, right-to-left host labels, and path segments.

    Raises ValueError on a missing '://' separator, an empty scheme or host,
    or a host that, with its port dropped, still ends in one.
    Userinfo (everything up to the host's last '@') and the port are
    dropped; a host that reads [...] (an IPv6 address) stays one label;
    empty path segments (from doubled or trailing slashes) are dropped.
    """
    (scheme, domains), path = check_url(raw)
    return UrlTokens(scheme, domains, tuple([segment for segment in path.split("/") if segment]))


def check_url(raw: str) -> tuple[tuple[str, tuple[str, ...]], str]:
    """Raise the ValueError parse_url raises for raw, if any; else return ((scheme, domains), raw path).

    The check without the tokens: the path is not split into segments.
    """
    scheme, separator, rest = raw.partition("://")
    if not separator:
        raise ValueError(f"no scheme separator in {raw!r}")
    host, _, path = rest.split("#", 1)[0].split("?", 1)[0].partition("/")
    site = _site(scheme, host)
    if type(site) is str:
        raise ValueError(f"{site} {raw!r}")
    return site, path


@lru_cache(maxsize=1024)
def _site(scheme: str, host: str):
    """(scheme, domains) of a URL's raw scheme and host, or the start of the message saying what is wrong.

    The host rules run once per distinct (scheme, host), since a corpus
    names a few sites in many URLs; a problem is returned, not raised, so
    that it is remembered too, and the caller adds the URL to its message.
    """
    scheme = scheme.strip().lower()
    if not scheme:
        return "empty scheme in"
    host = host.rpartition("@")[2].strip().lower()
    head, sep, maybe_port = host.rpartition(":")
    if sep and maybe_port.isdigit():
        host = head
    # Labels are trimmed, so the rendered host reparses to the same labels.
    labels = [label for label in map(str.strip, host.split(".")) if label]
    joined = ".".join(labels)
    if joined.startswith("[") and joined.endswith("]"):  # checked as rendered, so it reparses alike
        labels = [joined]
    if not labels:
        return "empty host in"
    head, sep, maybe_port = labels[-1].rpartition(":")
    if sep and maybe_port.isdigit():  # rendered, it would read as the port
        return "host still ends in a port in"
    labels.reverse()
    return scheme, tuple(labels)


def snippet_record(snippet: Snippet) -> dict:
    """The JSON form of a snippet, as the cache journal and the evidence dump write it."""
    return {"url": snippet.url.render(), "title": snippet.title, "abstract": snippet.abstract}
