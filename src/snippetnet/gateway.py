"""Single coordinator for query execution.

Order of business for every query: cache first, then the budget gate, then the
backend. Cache hits never touch the ledger. All cache and ledger mutations go
through one lock, so QueryCache and BudgetLedger need none of their own: a
cache store appends one record to the cache journal and a charge rewrites
the small ledger sidecar, both O(1) bytes per query. The backend call itself
runs outside the lock, so independent queries may execute concurrently. Two
threads racing on the *same* uncached query can each spend budget; pipeline
callers only fan out distinct queries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .backends import SearchBackendPort, SearchResult
from .budget import BudgetLedger
from .cache import QueryCache
from .queries import Query

DEFAULT_PAGE_SIZE = 10


@dataclass
class GatewayStats:
    backend_calls: int = 0
    cache_hits: int = 0


class SearchGateway:
    def __init__(self, backend: SearchBackendPort, cache: QueryCache | None = None,
                 ledger: BudgetLedger | None = None, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.backend = backend
        self.cache = cache if cache is not None else QueryCache()
        self.ledger = ledger if ledger is not None else BudgetLedger(daily_limit=1_000_000)
        self.page_size = page_size
        self.stats = GatewayStats()
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
                self.stats.cache_hits += 1
                return cached
            self.ledger.charge()
        result = self.backend.search(query, self.page_size)
        with self._lock:
            self.cache.store(rendered, result)
            self.stats.backend_calls += 1
        return result
