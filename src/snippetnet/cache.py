"""Persistent query-result cache keyed by the rendered query string.

With a backing path the cache is a JSON Lines journal that only grows. Its
first line is the format header ``{"snippetnet_cache": 2}``; every later line
is one record ``{"fetched_at", "hit_count", "query", "snippets"}``, its
snippets written by ``snippets.snippet_record``. Each store appends one
record and flushes it before returning, so a run interrupted at any query
(budget exhaustion, a crash) keeps exactly the results it paid for, and a
run of Q queries writes O(Q) bytes. In memory the cache maps each query to
its SearchResult; ``fetched_at`` lives only in the file.

Opening replays the journal; the last record for a query wins. A final
segment without a trailing newline is a torn append: it is dropped and cut
off before the next append. A valid record has a string query and a
``fetched_at``, and the rest of it is a search answer that
``backends.parse_result``, the reader the live backend uses too, accepts; it
reads the raw snippets that earlier versions stored into the same snippets.
``_replay`` is the only record parser. A complete line that is not a valid
record, and a file that does not begin with the header or a cut-off piece of
it, raise ConfigError naming the file, and ``clear`` refuses the latter too.
Opening never writes: only an append or ``clear`` changes the file's bytes.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .backends import SearchResult, parse_result
from .errors import ConfigError
from .ioutil import atomic_write_bytes
from .snippets import snippet_record

HEADER = b'{"snippetnet_cache": 2}\n'


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class QueryCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._results: dict[str, SearchResult] = {}
        # Length of the journal's valid prefix when a torn append follows it;
        # the next append cuts the file back to it first.
        self._torn_at: int | None = None
        self._directory_made = False

    @classmethod
    def open(cls, path) -> "QueryCache":
        """Load the cache file at path, or start empty when it does not exist.

        Raises ConfigError naming the file when it does not match the cache
        schema; an OSError from reading it is raised as it is.
        """
        cache = cls(path)
        try:
            data = cache.path.read_bytes()
        except FileNotFoundError:
            return cache
        _check_header(data, cache.path)
        cut = data.rfind(b"\n") + 1
        if cut < len(data):
            cache._torn_at = cut
        cache._results = _replay(data[len(HEADER):cut], str(cache.path))
        return cache

    def __len__(self) -> int:
        return len(self._results)

    def lookup(self, rendered: str) -> SearchResult | None:
        return self._results.get(rendered)

    def store(self, rendered: str, result: SearchResult) -> None:
        self._results[rendered] = result
        if self.path is not None:
            record = {
                "query": rendered,
                "hit_count": result.hit_count,
                "snippets": [snippet_record(snippet) for snippet in result.snippets],
                "fetched_at": utc_now_iso(),
            }
            self._append((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))

    def clear(self) -> None:
        self._results = {}
        if self.path is not None:
            if self.path.exists():
                _check_header(self.path.read_bytes(), self.path)
            atomic_write_bytes(self.path, HEADER)
            self._torn_at = None

    def _append(self, line: bytes) -> None:
        # The directory is made once per cache, and no descriptor is kept
        # between stores: each append opens, writes all of line and closes.
        if not self._directory_made:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._directory_made = True
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if self._torn_at is not None:
                os.ftruncate(fd, self._torn_at)
                self._torn_at = None
            if os.lseek(fd, 0, os.SEEK_END) == 0:
                line = HEADER + line
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)


def _check_header(data: bytes, path) -> None:
    # An empty file or a cut-off header is a journal whose first append was torn.
    if not HEADER.startswith(data[:len(HEADER)]):
        raise ConfigError(f"{path}: not a snippetnet cache journal: it does not begin with {HEADER.decode().strip()}")


def _replay(body: bytes, source: str) -> dict[str, SearchResult]:
    results: dict[str, SearchResult] = {}
    for number, line in enumerate(body.split(b"\n")[:-1], start=2):
        try:
            row = json.loads(line)
            # fetched_at must be present, although only the file keeps it.
            rendered, _ = row["query"], row["fetched_at"]
            if not isinstance(rendered, str):
                raise TypeError(f"query must be a string, got {rendered!r}")
            results[rendered] = parse_result(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: line {number}: malformed cache record: {exc!r}") from exc
    return results

