"""Query construction: an ordered list of phrases, each double-quoted when rendered."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Query:
    terms: tuple[str, ...]

    @property
    def rendered(self) -> str:
        """The exact string sent to a backend and used as the cache key."""
        return " ".join(f'"{term}"' for term in self.terms)


def build_query(phrases: Iterable[str]) -> Query:
    """Trim each phrase and wrap the list in a Query.

    Raises ValueError when the list is empty, or when a trimmed phrase is
    blank, holds a double quote or holds a control character below U+0020.
    A double quote would close the quoted phrase early, so ['Ann" "Bo'] would
    render exactly like ['Ann', 'Bo'] and share its cache entry; most control
    characters cannot be written in XML 1.0, so a GraphML export naming such
    an actor would not parse. Phrases are kept in the order given; callers
    that want one query per unordered pair must canonicalize the order.
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
        if any(char < " " for char in cleaned):
            raise ValueError(f"control character in phrase {cleaned!r}")
        trimmed.append(cleaned)
    return Query(terms=tuple(trimmed))
