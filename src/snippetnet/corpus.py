"""Fixture corpus: the closed document universe a deterministic backend searches."""

from __future__ import annotations

import codecs
import json
import os
import weakref
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

from .errors import ConfigError
from .snippets import check_url
from .text import find_phrase

ABSTRACT_LENGTH = 200  # a snippet abstract is the body's first slice, as a result page previews it
BLOCK_SIZE = 64  # documents per block: few objects, and a small transient while a block is joined


class Corpus:
    """The documents of a JSON Lines corpus file, packed into a few strings, with the file kept open.

    A block holds at most BLOCK_SIZE consecutive documents, all ASCII or
    none, so no ASCII document is widened by a non-ASCII one. Per block,
    texts holds each f"{title}\\n{body}\\n{url}", lowered alone, joined by
    "\\n", and starts where each document starts in it, then its end; lines
    holds where each document's line starts in the file, then where the
    next document's line starts (after the last document, where its line
    ends). firsts holds each block's first index, then len(corpus). That is
    all a search reads: what a snippet shows is read back from the
    document's line by shown, so the file must not be edited while the
    corpus is in use. Corpus(path) reads the file as load_corpus says, and
    keeps its descriptor open until the corpus is collected, or the
    interpreter exits.
    """

    def __init__(self, path):
        self.path = path
        self.firsts, self.texts, self.starts, self.lines = [0], [], [], []
        self._fd = os.open(path, os.O_RDONLY)
        close = weakref.finalize(self, os.close, self._fd)
        try:
            with open(self._fd, "rb", closefd=False) as handle:  # its buffer is freed once the rows are read
                self._pack(handle)
        except BaseException:
            close()
            raise

    def _pack(self, handle) -> None:  # reads the checked rows, one line at a time, into blocks
        from array import array  # loaded only by a run that parses a corpus
        # 4-byte offsets, unless the file is too long for them.
        offset = "I" if os.fstat(self._fd).st_size < 1 << 32 else "Q"
        texts, lines, at, last_id = [], [], 0, None

        def end_block(end: int) -> None:  # packs the open block and empties it
            self.firsts.append(self.firsts[-1] + len(texts))
            self.texts.append("\n".join(texts))
            self.starts.append(array("I", accumulate((len(text) + 1 for text in texts), initial=0)))
            lines.append(end)
            self.lines.append(array(offset, lines))
            del texts[:], lines[:]

        # Split the raw bytes at b"\n" only: str.splitlines() also breaks at
        # U+2028, U+2029 and U+0085, which json.dumps(ensure_ascii=False) leaves
        # raw inside strings. Decoding per line also puts a line number on bad
        # UTF-8, and reading line by line holds one line, not the file, at a time.
        for lineno, line in enumerate(handle, start=1):
            try:
                row = _row(line)
                if row is not None and last_id is not None and row[0] <= last_id:
                    raise ValueError(f"ids must be unique and ascending (got {row[0]} after {last_id})")
            except ValueError as exc:
                raise ConfigError(f"{self.path}:{lineno}: {exc}") from exc
            if row is not None:
                last_id, url, title, body = row
                text = f"{title}\n{body}\n{url}".lower()
                if texts and (len(texts) == BLOCK_SIZE or text.isascii() != texts[0].isascii()):
                    end_block(at)
                texts.append(text)
                lines.append(at)
                end = at + len(line)
            at += len(line)
        if not texts:
            raise ConfigError(f"{self.path}: corpus is empty")
        end_block(end)

    def __len__(self) -> int:
        return self.firsts[-1]

    def scan(self, phrase: str) -> list[int]:
        """The ascending indexes of the documents holding phrase; a hit past its document's end is none."""
        hits = []
        for first, text, starts in zip(self.firsts, self.texts, self.starts):
            at = find_phrase(text, phrase)
            while at >= 0:
                local = bisect_right(starts, at) - 1
                following = starts[local + 1]
                if at + len(phrase) < following:
                    hits.append(first + local)
                at = find_phrase(text, phrase, following)
        return hits

    def holding(self, phrase: str, indexes: list[int]) -> list[int]:
        """Those of the ascending indexes whose documents hold phrase, each found in its bounds alone."""
        kept, following = [], 0
        for index in indexes:
            if index >= following:  # the first index in its block
                block = bisect_right(self.firsts, index) - 1
                first, following = self.firsts[block], self.firsts[block + 1]
                text, starts = self.texts[block], self.starts[block]
            local = index - first
            if find_phrase(text, phrase, starts[local], starts[local + 1] - 1) >= 0:
                kept.append(index)
        return kept

    def shown(self, index: int) -> tuple[str, str, str]:
        """The trimmed title, trimmed abstract and url a snippet shows, read back from the document's line.

        The read runs from the line's start to the next document's, or to
        the end of the last document's line. Raises ConfigError naming the
        corpus when that read comes up short, or when its first line is not
        a row whose lowered text is the one searched: the file was edited
        since it was read.
        """
        block = bisect_right(self.firsts, index) - 1
        local = index - self.firsts[block]
        lines, starts = self.lines[block], self.starts[block]
        at, size = lines[local], lines[local + 1] - lines[local]
        data = os.pread(self._fd, size, at)
        where = f"{self.path}: line at byte {at}"
        if len(data) < size:
            raise ConfigError(f"{where}: cut short since the corpus was read")
        try:
            row = _row(data.partition(b"\n")[0])
        except ValueError:
            row = None
        if row is not None:
            _, url, title, body = row
            if f"{title}\n{body}\n{url}".lower() == self.texts[block][starts[local]:starts[local + 1] - 1]:
                return title.strip(), body[:ABSTRACT_LENGTH].strip(), url
        raise ConfigError(f"{where}: no longer the document searched; the corpus changed since it was read")


_decoder = json.JSONDecoder()


def load_corpus(path) -> Corpus:
    """Read a JSON Lines corpus of {"id", "url", "title", "body"} rows into a Corpus.

    Ids must be JSON integers, unique and strictly ascending; url, title and
    body must be strings, and every url must pass snippets.check_url, the
    rule of parse_url, so no snippet built from the corpus is dropped as
    unparseable. Raises ConfigError naming the file and line on any
    malformed row, and on an empty file.

    Each line is UTF-8, and one byte order mark at its start is skipped, so a
    line holding only a mark and spaces is blank; a line in another encoding,
    UTF-16 or UTF-32 too, is malformed. Each row is packed as it passes, and
    the file stays open: a snippet's page is read back from it (Corpus.shown).
    """
    return Corpus(Path(path))


def _row(line: bytes) -> tuple | None:
    """The checked (id, url, title, body) of a raw line, or None for a blank one.

    Raises ValueError saying what is wrong: the line is not a JSON object,
    the id not an integer, a field not a string or missing, or the url one
    that parse_url refuses. Whether ids ascend is the caller's to check.
    """
    # The mark goes first, so a line of a mark and spaces is blank.
    line = line.removeprefix(codecs.BOM_UTF8).strip()
    if not line:
        return None
    try:
        # surrogatepass, as json.loads reads bytes: an encoded lone surrogate loads.
        text = line.decode(errors="surrogatepass")
        # The line is stripped, so raw_decode reads what decode would; only
        # text after the row is left for decode, which raises its error.
        row, end = _decoder.raw_decode(text)
        if end != len(text):
            row = _decoder.decode(text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ValueError(f"expected an object, got {type(row).__name__}")
    try:
        doc_id, url, title, body = row["id"], row["url"], row["title"], row["body"]
    except KeyError as exc:
        raise ValueError(f"missing field: {exc!r}") from exc
    # type() rather than isinstance: a JSON true is a bool, not an id.
    if type(doc_id) is not int:
        raise ValueError(f"id must be an integer, got {doc_id!r}")
    if not (isinstance(url, str) and isinstance(title, str) and isinstance(body, str)):
        raise ValueError("url, title and body must be strings")
    try:
        check_url(url)
    except ValueError as exc:
        raise ValueError(f"url does not parse: {exc}") from exc
    return doc_id, url, title, body
