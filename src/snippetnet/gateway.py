"""Single coordinator for query execution.

Order of business for every query: cache first, then the budget gate, then the
backend, which answers with one result page. Cache hits never touch the
ledger. All cache and ledger mutations go through one lock, so QueryCache and
BudgetLedger need none of their own: a cache store appends one record to the
cache journal and a charge overwrites the fixed-width ledger record in place,
both O(1) bytes and no new file per query. The backend call itself runs
outside the lock, so independent queries may execute concurrently, and a
backend shared by several worker threads must be safe to call from all of
them at once (FixtureBackend is: its phrase memo only ever gains equal
entries). Two threads racing on the *same* uncached query can each spend
budget; pipeline callers only fan out distinct queries. The backend is any
object with search(query) -> SearchResult (see backends). The gateway counts
what it served in two ints, backend_calls and cache_hits, each bumped under
the lock.
"""

from __future__ import annotations

import threading

from .backends import SearchResult
from .budget import BudgetLedger
from .cache import QueryCache
from .queries import Query


class SearchGateway:
    def __init__(self, backend, cache: QueryCache | None = None,
                 ledger: BudgetLedger | None = None):
        self.backend = backend
        self.cache = cache if cache is not None else QueryCache()
        self.ledger = ledger if ledger is not None else BudgetLedger(daily_limit=1_000_000)
        self.backend_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()

    def execute(self, query: Query) -> SearchResult:
        """Serve a query from cache, or spend budget and ask the backend.

        Raises BudgetExhausted before any backend work when the query is
        uncached and today's allowance is spent; raises BackendError as the
        backend does (budget stays spent: the call was attempted).
        """
        rendered = query.rendered
        with self._lock:
            cached = self.cache.lookup(rendered)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.ledger.charge()
        result = self.backend.search(query)
        with self._lock:
            self.cache.store(rendered, result)
            self.backend_calls += 1
        return result
