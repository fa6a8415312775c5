"""Persistent query-result cache keyed by the rendered query string.

With a backing path the cache is a JSON Lines journal that only grows. Its
first line is the format header ``{"snippetnet_cache": 2}``; every later line
is one record ``{"fetched_at", "hit_count", "query", "snippets"}``. Each store
appends one record and flushes it before returning, so a run interrupted at
any query (budget exhaustion, a crash) keeps exactly the results it paid for,
and a run of Q queries writes O(Q) bytes.

Opening replays the journal; the last record for a query wins. A final
segment without a trailing newline is a torn append: it is dropped and cut
off before the next append. A complete line that is not a valid record raises
ValueError. A file without the header is read as the older whole-object
format and, if it parses, rewritten once as a journal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .backends import RawSnippet, SearchResult
from .ioutil import atomic_write_bytes

HEADER = b'{"snippetnet_cache": 2}\n'


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class CacheEntry:
    result: SearchResult
    fetched_at: str


class QueryCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, CacheEntry] = {}
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
            cache._entries = _replay(data[len(HEADER):cut], source)
        else:
            cache._entries = _parse_legacy(data, source)
            cache._save()
        return cache

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, rendered: str) -> SearchResult | None:
        entry = self._entries.get(rendered)
        return entry.result if entry is not None else None

    def store(self, rendered: str, result: SearchResult, fetched_at: str | None = None) -> None:
        entry = CacheEntry(result=result, fetched_at=fetched_at or utc_now_iso())
        self._entries[rendered] = entry
        if self.path is not None:
            self._append(_record_line(rendered, entry))

    def clear(self) -> None:
        self._entries = {}
        if self.path is not None:
            self._save()

    def _append(self, line: bytes) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if self._torn_at is not None:
                handle.truncate(self._torn_at)
                self._torn_at = None
            if handle.seek(0, os.SEEK_END) == 0:
                line = HEADER + line
            handle.write(line)

    def _save(self) -> None:
        """Rewrite the whole journal atomically from the entries in memory."""
        body = b"".join(_record_line(rendered, entry) for rendered, entry in self._entries.items())
        atomic_write_bytes(self.path, HEADER + body)
        self._torn_at = None


def _record_line(rendered: str, entry: CacheEntry) -> bytes:
    record = {
        "query": rendered,
        "hit_count": entry.result.hit_count,
        "snippets": [
            {"url": s.url, "title": s.title, "abstract": s.abstract}
            for s in entry.result.snippets
        ],
        "fetched_at": entry.fetched_at,
    }
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _parse_entry(row) -> CacheEntry:
    """Raises KeyError, TypeError or ValueError when row is not a cache entry."""
    snippets = tuple(
        RawSnippet(url=str(s["url"]), title=str(s["title"]), abstract=str(s["abstract"]))
        for s in row["snippets"]
    )
    return CacheEntry(
        result=SearchResult(hit_count=int(row["hit_count"]), snippets=snippets),
        fetched_at=str(row["fetched_at"]),
    )


def _replay(body: bytes, source: str) -> dict[str, CacheEntry]:
    entries: dict[str, CacheEntry] = {}
    for number, line in enumerate(body.split(b"\n")[:-1], start=2):
        try:
            row = json.loads(line)
            rendered = row["query"]
            if not isinstance(rendered, str):
                raise TypeError(f"query must be a string, got {rendered!r}")
            entries[rendered] = _parse_entry(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{source}: line {number}: malformed cache record: {exc!r}") from exc
    return entries


def _parse_legacy(data: bytes, source: str) -> dict[str, CacheEntry]:
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{source}: cache file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: cache file must hold a JSON object")
    entries: dict[str, CacheEntry] = {}
    for rendered, row in payload.items():
        try:
            entries[rendered] = _parse_entry(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{source}: malformed cache entry for {rendered!r}: {exc!r}") from exc
    return entries
