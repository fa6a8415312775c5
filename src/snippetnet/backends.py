"""Search backends behind one port.

The fixture backend scans a local corpus and returns exact counts, which makes
it the reference every arithmetic claim is checked against. The live backend
adapts a JSON-over-HTTP search service; engine counts are estimates, so it is
explicitly outside those exactness guarantees.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Protocol

from .corpus import FixtureCorpus
from .errors import BackendError
from .queries import Query

# A snippet abstract is the first slice of the document body, mirroring the
# short preview a result page shows under each hit.
ABSTRACT_LENGTH = 200


@dataclass(frozen=True)
class RawSnippet:
    url: str
    title: str
    abstract: str


@dataclass(frozen=True)
class SearchResult:
    hit_count: int
    snippets: tuple[RawSnippet, ...]


class SearchBackendPort(Protocol):
    def search(self, query: Query, page_size: int) -> SearchResult:
        """Run one query, returning a hit count and at most page_size snippets."""


class FixtureBackend:
    """Deterministic, reentrant search over an in-memory corpus."""

    def __init__(self, corpus: FixtureCorpus):
        self.corpus = corpus

    def search(self, query: Query, page_size: int) -> SearchResult:
        """Exact conjunctive search over the fixture corpus.

        A document matches when every phrase of the query occurs, case
        insensitively, as a contiguous substring of its title, body, or url.
        hit_count is the exact number of matches; snippets cover the first
        result page only, in ascending document id order.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        phrases = [term.lower() for term in query.terms]
        matches = []
        for doc in self.corpus.documents:
            haystack = f"{doc.title}\n{doc.body}\n{doc.url}".lower()
            if all(phrase in haystack for phrase in phrases):
                matches.append(doc)
        snippets = tuple(
            RawSnippet(url=doc.url, title=doc.title, abstract=doc.body[:ABSTRACT_LENGTH])
            for doc in matches[:page_size]
        )
        return SearchResult(hit_count=len(matches), snippets=snippets)


class LiveBackend:
    """Adapter for a JSON search service reached over HTTP.

    Sends GET <endpoint>?q=<rendered>&page_size=<n> with an optional bearer
    token, and expects a body of the shape
    {"hit_count": int, "snippets": [{"url", "title", "abstract"}, ...]}.
    Transport and server failures raise BackendError; 5xx and network errors
    are marked retryable, malformed payloads are not.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 10.0):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def search(self, query: Query, page_size: int) -> SearchResult:
        params = urllib.parse.urlencode({"q": query.rendered, "page_size": page_size})
        request = urllib.request.Request(f"{self.endpoint}?{params}")
        if self.api_key:
            request.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            raise BackendError(
                f"search endpoint returned HTTP {exc.code}", retryable=exc.code >= 500
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise BackendError(f"search endpoint unreachable: {exc}", retryable=True) from exc
        try:
            payload = json.loads(body)
            hit_count = max(0, int(payload["hit_count"]))
            snippets = tuple(
                RawSnippet(
                    url=str(item.get("url", "")),
                    title=str(item.get("title", "")),
                    abstract=str(item.get("abstract", "")),
                )
                for item in payload.get("snippets", [])[:page_size]
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise BackendError(f"malformed search response: {exc!r}", retryable=False) from exc
        return SearchResult(hit_count=hit_count, snippets=snippets)
