"""Persistent query-result cache keyed by the rendered query string.

With a backing path the cache is a JSON Lines journal that only grows. Its
first line is the format header: ``{"snippetnet_cache": 3}``, followed, in
a journal opened for a run, by the source of its answers, ``"backend"``
and, for the fixture backend, ``"corpus": {"bytes", "crc32"}``, the corpus
file's size and ``zlib.crc32``. Every later line is one record
``{"hit_count", "query", "snippets"}``, its snippets written by
``snippets.snippet_record``. Each store appends one record and flushes it
before returning, so a run interrupted at any query (budget exhaustion, a
crash) keeps exactly the results it paid for, and a run of Q queries writes
O(Q) bytes. In memory the cache maps each query to its SearchResult.

A journal is bound to the source that filled it. Opened for another backend
or corpus, a journal whose header names its source raises ConfigError
naming the journal, before any query is paid; ``clear`` empties it for
reuse. The source is written with the first answer: a journal that holds no
record (new, cleared, or torn in its first append) is cut back to nothing
before the first append, which writes this run's header. So opening never
writes: only an append or ``clear`` changes the file's bytes. A version-2
journal (header ``{"snippetnet_cache": 2}``, each record with a
``fetched_at`` time that nothing reads) names no source and is read as it
is; records appended to it take the version-3 form.

Opening replays the journal one line at a time from the file, never
holding it whole; the last record for a query wins. In memory every
zero-hit answer is one SearchResult, and equal snippets are one Snippet. A
final segment without a trailing newline is a torn append: it is dropped
and cut off before the next append. A valid record has a string query, and
the rest of it is a search answer that ``backends.parse_result``, the
reader the live backend uses too, accepts; it reads the raw snippets that
earlier versions stored into the same snippets. ``_replay`` is the only
record parser. A complete line that is not a valid record, and a file that
does not begin with a header or a cut-off piece of one, raise ConfigError
naming the file, and ``clear`` refuses the latter too.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from .backends import SearchResult, parse_result
from .errors import ConfigError
from .ioutil import atomic_write_bytes
from .snippets import snippet_record

VERSION = 3
HEADER = b'{"snippetnet_cache": %d}\n' % VERSION  # the header of a journal that names no source
_MAGIC = b'{"snippetnet_cache": '  # how every header begins
_NO_HITS = SearchResult(hit_count=0, snippets=())  # every zero-hit answer a journal replays


class QueryCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._results: dict[str, SearchResult] = {}
        self._header = HEADER
        # Length of the journal's valid prefix when a torn append follows it,
        # or 0 when it holds no record; the next append cuts the file back to it first.
        self._torn_at: int | None = None
        self._directory_made = False

    @classmethod
    def open(cls, path, backend: str | None = None, corpus=None) -> "QueryCache":
        """Load the cache file at path, or start empty when it does not exist.

        backend names the backend this run asks, and corpus the file the
        fixture backend reads. With them, a journal whose header names
        another source raises ConfigError naming the journal. The corpus is
        read once for its fingerprint; a missing one raises the OSError.
        Raises ConfigError naming the file when it does not match the cache
        schema; an OSError from reading it is raised as it is.
        """
        cache = cls(path)
        source = None
        if backend is not None:
            source = {"backend": backend}
            if corpus is not None:
                source["corpus"] = _fingerprint(corpus)
            cache._header = (json.dumps({"snippetnet_cache": VERSION, **source}) + "\n").encode("utf-8")
        try:
            handle = cache.path.open("rb")
        except FileNotFoundError:
            return cache
        with handle:
            first = handle.readline()
            start, recorded = _read_header(first, cache.path)
            if recorded is not None and source is not None and recorded != source:
                raise ConfigError(_mismatch(cache.path, recorded, source, corpus))
            cut, torn = _replay(handle, cache._results, str(cache.path)) if start else (0, first)
        if not cache._results and (start or torn):
            cache._torn_at = 0
        elif torn:
            cache._torn_at = start + cut
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
            }
            self._append((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))

    def clear(self) -> None:
        self._results = {}
        if self.path is not None:
            if self.path.exists():
                with self.path.open("rb") as handle:
                    _read_header(handle.readline(), self.path)
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
                line = self._header + line
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)


def _fingerprint(corpus) -> dict:
    # The corpus file's size and zlib.crc32, read 64 KiB at a time.
    crc, size = 0, 0
    with open(corpus, "rb") as handle:
        while chunk := handle.read(65536):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return {"bytes": size, "crc32": crc}


def _read_header(data: bytes, path) -> tuple[int, dict | None]:
    """(length, source) of the header that begins data; (0, None) for no data or a cut-off first line.

    source holds the header's backend and corpus, or is None when it names neither.
    """
    end = data.find(b"\n") + 1
    if not end:  # an empty file or a cut-off header is a journal whose first append was torn
        if _MAGIC.startswith(data[:len(_MAGIC)]):
            return 0, None
    elif data.startswith(_MAGIC):
        try:
            header = json.loads(data[:end])
        except ValueError:
            header = None
        if isinstance(header, dict) and header.get("snippetnet_cache") in (2, VERSION):
            source = {key: header[key] for key in ("backend", "corpus") if key in header}
            return end, source or None
    raise ConfigError(f"{path}: not a snippetnet cache journal: it does not begin with {HEADER.decode().strip()}")


def _mismatch(path, recorded: dict, source: dict, corpus) -> str:
    if recorded.get("backend") != source["backend"]:
        came = f"the {recorded.get('backend')} backend, and this run asks the {source['backend']} backend"
    else:
        came = f"another corpus than {corpus}, or from it before it changed"
    return f"{path}: its answers came from {came}; 'snippetnet cache clear' empties it for reuse"


def _replay(lines, results: dict, source: str) -> tuple[int, bytes]:
    """Read each complete line of lines, the records after the header, into results.

    Returns the length of the complete lines and the torn tail, a final
    line without its newline (b"" when there is none). Every zero-hit answer
    is one SearchResult, and equal snippets are one Snippet.
    """
    cut, snippets = 0, {}
    for number, line in enumerate(lines, start=2):
        if not line.endswith(b"\n"):
            return cut, line
        try:
            row = json.loads(line[:-1])  # without its newline, so an error's position reads as before
            rendered = row["query"]  # a version-2 record's fetched_at is not read
            if not isinstance(rendered, str):
                raise TypeError(f"query must be a string, got {rendered!r}")
            result = parse_result(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: line {number}: malformed cache record: {exc!r}") from exc
        if result == _NO_HITS:
            result = _NO_HITS
        elif result.snippets:
            result = SearchResult(result.hit_count, tuple([snippets.setdefault(s, s) for s in result.snippets]))
        results[rendered] = result
        cut += len(line)
    return cut, b""
