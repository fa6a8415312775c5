"""Persistent query-result cache keyed by the rendered query string.

With a backing path the cache is a JSON Lines journal that only grows. Its
first line is the format header ``{"snippetnet_cache": 2}``; every later line
is one record ``{"fetched_at", "hit_count", "query", "snippets"}``. Each store
appends one record and flushes it before returning, so a run interrupted at
any query (budget exhaustion, a crash) keeps exactly the results it paid for,
and a run of Q queries writes O(Q) bytes. In memory the cache maps each query
to its SearchResult; ``fetched_at`` lives only in the file.

Opening replays the journal; the last record for a query wins. A final
segment without a trailing newline is a torn append: it is dropped and cut
off before the next append. A complete line that is not a valid record raises
ValueError. ``_replay`` is the only record parser. A file without the header
is the older whole-object format ``{query: {"fetched_at", "hit_count",
"snippets"}}``: each entry is reshaped into a journal record line and
replayed, and only if every line parses is the file rewritten once,
atomically, as the header plus those lines. A malformed old file is left as
it was.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .backends import RawSnippet, SearchResult
from .ioutil import atomic_write_bytes

HEADER = b'{"snippetnet_cache": 2}\n'
_RECORD_FIELDS = ("query", "hit_count", "snippets", "fetched_at")


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class QueryCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._results: dict[str, SearchResult] = {}
        # Length of the journal's valid prefix when a torn append follows it;
        # the next append cuts the file back to it first.
        self._torn_at: int | None = None

    @classmethod
    def open(cls, path) -> "QueryCache":
        """Load the cache file at path, or start empty when it does not exist.

        Raises ValueError when the file exists but does not match the cache
        schema, and OSError when it cannot be read at all.
        """
        cache = cls(path)
        try:
            data = cache.path.read_bytes()
        except FileNotFoundError:
            return cache
        source = str(cache.path)
        # An empty file or a cut-off header is a journal whose first append
        # was torn, not a file in the older format.
        if HEADER.startswith(data[:len(HEADER)]):
            cut = data.rfind(b"\n") + 1
            if cut < len(data):
                cache._torn_at = cut
            cache._results = _replay(data[len(HEADER):cut], source)
        else:
            lines = _whole_object_as_lines(data, source)
            cache._results = _replay(lines, f"{source} (whole-object cache read as a journal)")
            atomic_write_bytes(cache.path, HEADER + lines)
        return cache

    def __len__(self) -> int:
        return len(self._results)

    def lookup(self, rendered: str) -> SearchResult | None:
        return self._results.get(rendered)

    def store(self, rendered: str, result: SearchResult, fetched_at: str | None = None) -> None:
        self._results[rendered] = result
        if self.path is not None:
            self._append(_record_line({
                "query": rendered,
                "hit_count": result.hit_count,
                "snippets": [
                    {"url": s.url, "title": s.title, "abstract": s.abstract}
                    for s in result.snippets
                ],
                "fetched_at": fetched_at or utc_now_iso(),
            }))

    def clear(self) -> None:
        self._results = {}
        if self.path is not None:
            atomic_write_bytes(self.path, HEADER)
            self._torn_at = None

    def _append(self, line: bytes) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if self._torn_at is not None:
                handle.truncate(self._torn_at)
                self._torn_at = None
            if handle.seek(0, os.SEEK_END) == 0:
                line = HEADER + line
            handle.write(line)


def _record_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _whole_object_as_lines(data: bytes, source: str) -> bytes:
    """Reshape the older whole-object format into journal record lines, unchecked."""
    try:
        payload = json.loads(data)
        # AttributeError: not an object; TypeError: an entry that is not one.
        return b"".join(_record_line({**entry, "query": query}) for query, entry in payload.items())
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: neither a cache journal nor a whole-object cache: {exc!r}") from exc


def _replay(body: bytes, source: str) -> dict[str, SearchResult]:
    results: dict[str, SearchResult] = {}
    for number, line in enumerate(body.split(b"\n")[:-1], start=2):
        try:
            row = json.loads(line)
            # fetched_at must be present, although only the file keeps it.
            rendered, hit_count, snippets, _ = (row[key] for key in _RECORD_FIELDS)
            if not isinstance(rendered, str):
                raise TypeError(f"query must be a string, got {rendered!r}")
            results[rendered] = SearchResult(hit_count=int(hit_count), snippets=tuple(
                RawSnippet(url=str(s["url"]), title=str(s["title"]), abstract=str(s["abstract"]))
                for s in snippets
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{source}: line {number}: malformed cache record: {exc!r}") from exc
    return results
