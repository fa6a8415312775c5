"""Fixture corpus: the closed document universe a deterministic backend searches."""

from __future__ import annotations

import codecs
import json
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

from .errors import ConfigError
from .snippets import check_url
from .text import find_phrase

ABSTRACT_LENGTH = 200  # a snippet abstract is the body's first slice, as a result page previews it
BLOCK_SIZE = 64  # documents per block: few objects, and a small transient while a block is joined


class Corpus:
    """Documents packed into a few strings, from (url, title, body) rows.

    A block holds at most BLOCK_SIZE consecutive documents, all ASCII or
    none, so no ASCII document is widened by a non-ASCII one. Per block,
    texts holds each f"{title}\\n{body}\\n{url}", lowered alone, joined by
    "\\n"; pages each stripped title, stripped body[:ABSTRACT_LENGTH] and
    url, UTF-8 (surrogatepass) joined by b"\\xff", which UTF-8 never writes;
    starts and page_starts where each document starts in both, then their
    end. firsts holds each block's first index, then len(corpus).
    """

    def __init__(self, rows):
        self.firsts, self.texts, self.starts, self.pages, self.page_starts = [0], [], [], [], []
        texts, pages = [], []
        for url, title, body in rows:
            text = f"{title}\n{body}\n{url}".lower()
            if texts and (len(texts) == BLOCK_SIZE or text.isascii() != texts[0].isascii()):
                self._close(texts, pages)
            texts.append(text)
            pages.append(b"\xff".join((title.strip().encode(errors="surrogatepass"),
                                        body[:ABSTRACT_LENGTH].strip().encode(errors="surrogatepass"),
                                        url.encode(errors="surrogatepass"))))
        if texts:
            self._close(texts, pages)

    def _close(self, texts: list, pages: list) -> None:  # packs the open block and empties it
        from array import array  # loaded only by a run that parses a corpus
        self.firsts.append(self.firsts[-1] + len(texts))
        self.texts.append("\n".join(texts))
        self.starts.append(array("I", accumulate((len(text) + 1 for text in texts), initial=0)))
        self.pages.append(b"".join(pages))
        self.page_starts.append(array("I", accumulate(map(len, pages), initial=0)))
        del texts[:], pages[:]

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

    def shown(self, index: int) -> list[str]:  # the title, abstract and url a snippet shows
        block = bisect_right(self.firsts, index) - 1
        starts, local = self.page_starts[block], index - self.firsts[block]
        page = self.pages[block][starts[local]:starts[local + 1]]
        return [part.decode(errors="surrogatepass") for part in page.split(b"\xff")]


_decoder = json.JSONDecoder()


def load_corpus(path) -> Corpus:
    """Read a JSON Lines corpus of {"id", "url", "title", "body"} rows.

    Ids must be JSON integers, unique and strictly ascending; url, title and
    body must be strings, and every url must pass snippets.check_url, the
    rule of parse_url, so no snippet built from the corpus is dropped as
    unparseable. Raises ConfigError naming the file and line on any
    malformed row, and on an empty file.

    Each line is UTF-8, and one byte order mark at its start is skipped, so a
    line holding only a mark and spaces is blank; a line in another encoding,
    UTF-16 or UTF-32 too, is malformed. Each row is packed as it passes.
    """
    corpus = Corpus(_rows(Path(path)))
    if not len(corpus):
        raise ConfigError(f"{path}: corpus is empty")
    return corpus


def _rows(source: Path):  # the checked (url, title, body) of each row, one line read at a time
    last_id = None
    # Split the raw bytes at b"\n" only: str.splitlines() also breaks at
    # U+2028, U+2029 and U+0085, which json.dumps(ensure_ascii=False) leaves
    # raw inside strings. Decoding per line also puts a line number on bad
    # UTF-8, and reading line by line holds one line, not the file, at a time.
    with source.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            # The mark goes first, so a line of a mark and spaces is blank.
            line = line.removeprefix(codecs.BOM_UTF8).strip()
            if not line:
                continue
            try:
                # surrogatepass, as json.loads reads bytes: an encoded lone surrogate loads.
                text = line.decode(errors="surrogatepass")
                # The line is stripped, so raw_decode reads what decode would; only
                # text after the row is left for decode, which raises its error.
                row, end = _decoder.raw_decode(text)
                if end != len(text):
                    row = _decoder.decode(text)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ConfigError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ConfigError(f"{source}:{lineno}: expected an object, got {type(row).__name__}")
            try:
                doc_id, url, title, body = row["id"], row["url"], row["title"], row["body"]
            except KeyError as exc:
                raise ConfigError(f"{source}:{lineno}: missing field: {exc!r}") from exc
            # type() rather than isinstance: a JSON true is a bool, not an id.
            if type(doc_id) is not int:
                raise ConfigError(f"{source}:{lineno}: id must be an integer, got {doc_id!r}")
            if not (isinstance(url, str) and isinstance(title, str) and isinstance(body, str)):
                raise ConfigError(f"{source}:{lineno}: url, title and body must be strings")
            try:
                check_url(url)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: url does not parse: {exc}") from exc
            if last_id is not None and doc_id <= last_id:
                raise ConfigError(
                    f"{source}:{lineno}: ids must be unique and ascending (got {doc_id} after {last_id})"
                )
            last_id = doc_id
            yield url, title, body
