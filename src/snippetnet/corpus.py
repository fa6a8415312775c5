"""Fixture corpus: the closed document universe a deterministic backend searches."""

from __future__ import annotations

import codecs
import json
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError
from .snippets import check_url

ABSTRACT_LENGTH = 200  # a snippet abstract is the body's first slice, as a result page previews it


class FixtureDocument(namedtuple("FixtureDocument", "text page")):
    """A document held once, built from its row's (doc_id, url, title, body).

    text, the title, body and url joined by newlines and lowercased, is what
    search matches; page is what a snippet shows, the stripped title, the
    stripped body[:ABSTRACT_LENGTH] and the url, UTF-8 (surrogatepass) joined
    by b"\xff", a byte UTF-8 never writes. No doc_id or body is kept, so copy
    and pickle do not apply.
    """

    __slots__ = ()

    def __new__(cls, doc_id: int, url: str, title: str, body: str):
        page = b"\xff".join((title.strip().encode(errors="surrogatepass"),
                              body[:ABSTRACT_LENGTH].strip().encode(errors="surrogatepass"),
                              url.encode(errors="surrogatepass")))
        return _new_tuple(cls, (f"{title}\n{body}\n{url}".lower(), page))  # one step, not through the namedtuple's __new__

    def shown(self) -> list[str]:  # the title, abstract and url a snippet shows, unpacked from page
        return [part.decode(errors="surrogatepass") for part in self.page.split(b"\xff")]


_new_tuple = tuple.__new__
_decoder = json.JSONDecoder()


def load_corpus(path) -> tuple[FixtureDocument, ...]:
    """Read a JSON Lines corpus of {"id", "url", "title", "body"} rows.

    Ids must be JSON integers, unique and strictly ascending; url, title and
    body must be strings, and every url must pass snippets.check_url, the
    rule of parse_url, so no snippet built from the corpus is dropped as
    unparseable. Raises ConfigError naming the file and line on any
    malformed row, and on an empty file. A fixture run whose cache was
    filled from this very corpus calls this only at its first cache miss.

    Each line is UTF-8, and one byte order mark at its start is skipped, so a
    line holding only a mark and spaces is blank; a line in another encoding,
    UTF-16 or UTF-32 too, is malformed. A row becomes its FixtureDocument
    once it passes; its id and full body are not kept.
    """
    source = Path(path)
    docs = []
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
            docs.append(FixtureDocument(doc_id, url, title, body))
    if not docs:
        raise ConfigError(f"{source}: corpus is empty")
    return tuple(docs)
