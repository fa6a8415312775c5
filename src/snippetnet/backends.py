"""Search backends behind one port.

A backend is any object with search(query) -> SearchResult, which runs one
query and returns the hit count and at most PAGE_SIZE snippets. The fixture
backend scans a local corpus and returns exact counts: it is the reference
every arithmetic claim is checked against. The live backend adapts a
JSON-over-HTTP search service; engine counts are estimates, so it is
explicitly outside those exactness guarantees. It imports the web client
(urllib, and with it http, email and ssl) on its first search, so a run on
the fixture backend never loads it. An answer is read into parsed snippets
once, where it enters: the fixture backend builds them from its corpus,
and ``parse_result``, the one reader of a search answer, from live response
bodies and cache records alike.
"""

from __future__ import annotations

import json
import threading
from collections import namedtuple
from collections.abc import Callable

from .corpus import Corpus
from .errors import BackendError
from .queries import Query
from .snippets import Snippet, parse_url

PAGE_SIZE = 10  # one result page per query: the cache is keyed by the query alone
TIMEOUT_S = 10.0  # LiveBackend's limit on each request's connect and each read

SearchResult = namedtuple("SearchResult", "hit_count snippets")  # snippets: a tuple of Snippet


def parse_result(payload) -> SearchResult:
    """Read {"hit_count", "snippets": [{"url", "title", "abstract"}, ...]}.

    Coerces nothing: a field of another type raises TypeError or ValueError.
    Of the first PAGE_SIZE snippets, each URL is parsed and the title and
    abstract are trimmed; a snippet whose URL parse_url rejects is dropped,
    and the hit count stands.
    """
    hit_count, answers = payload["hit_count"], payload["snippets"]
    # type() rather than isinstance: a JSON true is a bool, not a count.
    if type(hit_count) is not int or hit_count < 0:
        raise ValueError(f"hit_count must be an integer >= 0, got {hit_count!r}")
    if not isinstance(answers, list):
        raise TypeError(f"snippets must be a list, got {answers!r}")
    snippets = []
    for number, fields in enumerate(answers):
        url, title, abstract = (fields[key] for key in ("url", "title", "abstract"))
        if not (isinstance(url, str) and isinstance(title, str) and isinstance(abstract, str)):
            raise TypeError(f"snippet url, title and abstract must be strings, got {fields!r}")
        if number < PAGE_SIZE:
            try:
                snippets.append(Snippet(parse_url(url), title.strip(), abstract.strip()))
            except ValueError:
                pass
    return SearchResult(hit_count=hit_count, snippets=tuple(snippets))


class FixtureBackend:
    """Deterministic, exact search over an in-memory corpus.

    corpus is the Corpus load_corpus returns, never copied, or a function of
    no arguments that returns it, called once, under the lock, at the first
    search: a run whose cache may answer every query never parses it. A
    document's page is unpacked and its url parsed when it first reaches a
    result page, and the Snippet kept (for all 6,000 documents of the seed-3
    deep-srwk corpus, snippets would hold 4.8 MB; the corpus holds 5.5 MB).
    The documents matching a phrase are remembered once known. A query
    intersects the known sets of its phrases, smallest first, and checks each
    other phrase only inside the documents that survive; only when none is
    known is its first phrase scanned for over the whole corpus. So a keyword,
    asked next to its actor's name, is checked only where the actor is named.

    Safe to share between threads: the gateway calls search outside its lock.
    The corpus is set, and each full scan made, under the lock, which reads
    the phrase memo again inside it, so a phrase is scanned for once. Threads
    otherwise only add to the memos, and read each phrase once per query: one
    another thread adds meanwhile is used or checked, never skipped. A dict
    get or set is atomic under the interpreter lock.
    """

    def __init__(self, corpus: Corpus | Callable[[], Corpus]):
        self._load = corpus if callable(corpus) else None
        self.corpus = None if callable(corpus) else corpus
        self._lock = threading.Lock()
        self._positions: dict[str, frozenset[int]] = {}
        self._snippets: dict[int, Snippet] = {}

    def search(self, query: Query) -> SearchResult:
        """Exact conjunctive search: a document matches when text.find_phrase finds every phrase of
        the query in its title, body, or url. Snippets are the first PAGE_SIZE matches, by ascending id."""
        memo = [(phrase, self._positions.get(phrase)) for phrase in map(str.lower, query.terms)]
        known = [positions for _, positions in memo if positions is not None]
        unseen = [phrase for phrase, positions in memo if positions is None]
        if not known:
            known.append(self._scanned(unseen.pop(0)))
        smallest, *rest = sorted(known, key=len)
        hits = sorted(smallest.intersection(*rest))
        for phrase in unseen:  # the corpus is set by now: a phrase is known only after it
            hits = self.corpus.holding(phrase, hits)
        return SearchResult(hit_count=len(hits), snippets=tuple(map(self._snippet, hits[:PAGE_SIZE])))

    def _scanned(self, phrase: str) -> frozenset[int]:  # the phrase's positions, scanned for at most once
        with self._lock:
            if self.corpus is None:
                self.corpus = self._load()
            if phrase not in self._positions:
                self._positions[phrase] = frozenset(self.corpus.scan(phrase))
            return self._positions[phrase]

    def _snippet(self, index: int) -> Snippet:  # one per document, which every cached page shares
        snippet = self._snippets.get(index)
        if snippet is None:
            title, abstract, url = self.corpus.shown(index)
            snippet = self._snippets[index] = Snippet(parse_url(url), title, abstract)
        return snippet


class LiveBackend:
    """Adapter for a JSON search service reached over HTTP.

    Sends GET <endpoint>?q=<rendered>&page_size=<PAGE_SIZE> (joined with &
    to an endpoint that carries its own query string) with an optional bearer
    token, and reads the body with parse_result. Transport and server
    failures raise BackendError; 5xx and network errors are marked retryable,
    a body that parse_result rejects is not.
    """

    def __init__(self, endpoint: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key

    def search(self, query: Query) -> SearchResult:
        import urllib.error
        import urllib.parse
        import urllib.request

        params = urllib.parse.urlencode({"q": query.rendered, "page_size": PAGE_SIZE})
        separator = "&" if "?" in self.endpoint else "?"
        request = urllib.request.Request(f"{self.endpoint}{separator}{params}")
        if self.api_key:
            request.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            raise BackendError(
                f"search endpoint returned HTTP {exc.code}", retryable=exc.code >= 500
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise BackendError(f"search endpoint unreachable: {exc}", retryable=True) from exc
        try:
            return parse_result(json.loads(body))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed search response: {exc!r}", retryable=False) from exc
