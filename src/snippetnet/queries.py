"""Query construction: an ordered list of phrases, each double-quoted when rendered."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable


class Query(namedtuple("Query", "terms")):
    __slots__ = ()

    @property
    def rendered(self) -> str:
        """The exact string sent to a backend and used as the cache key."""
        return " ".join(f'"{term}"' for term in self.terms)


def unwritable(text: str) -> str | None:
    """Name what a non-empty text holds that XML 1.0 or UTF-8 cannot write, or None.

    That is a control character below U+0020, a lone surrogate (U+D800 to
    U+DFFF), U+FFFE or U+FFFF. XML 1.0 cannot hold most control characters
    nor any of the others, so a GraphML export holding one would not parse,
    and a lone surrogate has no UTF-8 form, so a live query holding one could
    not be sent.
    """
    if text.isprintable():  # one pass in C, for the usual text: none of these characters is printable
        return None
    if min(text) < " ":
        return "control character"
    if any("\ud800" <= char <= "\udfff" or char in "\ufffe\uffff" for char in text):
        return "lone surrogate or noncharacter"
    return None


def build_query(phrases: Iterable[str]) -> Query:
    """Trim each phrase and wrap the list in a Query.

    Raises ValueError when the list is empty, or when a trimmed phrase is
    blank, holds a double quote, or holds a character unwritable names. A
    double quote would close the quoted phrase early, so ['Ann" "Bo'] would
    render exactly like ['Ann', 'Bo'] and share its cache entry; an actor name
    is a phrase, and it reaches the GraphML export and the live query.
    Phrases are kept in the order given; callers that want one query per
    unordered pair must canonicalize the order.
    """
    given = list(phrases)
    if not given:
        raise ValueError("a query needs at least one phrase")
    trimmed = []
    for phrase in given:
        cleaned = phrase.strip()
        if not cleaned:
            raise ValueError(f"blank phrase in query: {given!r}")
        if '"' in cleaned:
            raise ValueError(f"double quote in phrase {cleaned!r}")
        problem = unwritable(cleaned)
        if problem:
            raise ValueError(f"{problem} in phrase {cleaned!r}")
        trimmed.append(cleaned)
    return Query(terms=tuple(trimmed))
