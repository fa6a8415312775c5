"""Single coordinator for query execution.

Order of business for every query: cache first, then the budget gate, then the
backend, which answers with one result page. Cache hits never touch the ledger.
All cache and ledger mutations go through one lock, so QueryCache and
BudgetLedger need none of their own: a cache store appends one record to the
cache journal and a charge overwrites the fixed-width ledger record in place,
both O(1) bytes and no new file per query. The backend call itself runs outside
the lock, so independent queries may execute concurrently, and a backend shared
by several worker threads must be safe to call from all of them at once
(FixtureBackend is: its phrase memo only ever gains equal entries). execute_all
is the one fan-out, on at most parallelism threads: only distinct queries go to
them, so no two threads ever pay for one query. The backend is any object with
search(query) (see backends). The gateway counts what it served in two ints,
backend_calls and cache_hits, each bumped under the lock.
"""

from __future__ import annotations

import threading

from .backends import SearchResult
from .budget import BudgetLedger
from .cache import QueryCache
from .queries import Query


class SearchGateway:
    def __init__(self, backend, cache: QueryCache | None = None,
                 ledger: BudgetLedger | None = None, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.backend = backend
        self.parallelism = parallelism
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

    def execute_all(self, queries) -> list[SearchResult]:
        """Serve every query through execute; results in the order asked.

        Distinct queries start in first-asked order on at most parallelism
        threads, the calling one among them, so at 1 no thread starts; each
        repeat then hits the cache on the calling thread. Once a query fails
        or the calling thread is interrupted, no further query starts; those
        in flight, at most parallelism, still pay. Raises the error of the
        earliest failed query in the order asked.
        """
        queries = list(queries)
        distinct = list(dict.fromkeys(queries))
        served, errors, stop = {}, {}, threading.Event()
        todo = enumerate(distinct)  # shared; its next() is atomic under the interpreter lock

        def work():
            for index, query in todo:
                if stop.is_set():
                    return
                try:
                    served[query] = self.execute(query)
                except BaseException as exc:  # raised again in the calling thread, below
                    errors[index] = exc
                    stop.set()

        threads = []
        try:
            for _ in range(min(self.parallelism, len(distinct)) - 1):
                thread = threading.Thread(target=work)
                thread.start()
                threads.append(thread)
            work()
        except BaseException:  # the calling thread was interrupted: start no further query
            stop.set()
            raise
        finally:
            for thread in threads:
                thread.join()
        try:
            if errors:
                raise errors[min(errors)]
        finally:
            errors.clear()  # each error's traceback holds work's frame, and through it this dict
        return [served.pop(query, None) or self.execute(query) for query in queries]
