"""Fixture corpus: the closed document universe a deterministic backend searches."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusError


@dataclass(frozen=True)
class FixtureDocument:
    doc_id: int
    url: str
    title: str
    body: str


def load_corpus(path) -> tuple[FixtureDocument, ...]:
    """Read a JSON Lines corpus of {"id", "url", "title", "body"} rows.

    Ids must be unique and strictly ascending; urls must carry a scheme
    separator so every snippet built from them parses. Raises CorpusError
    on any malformed row or on an empty file.
    """
    source = Path(path)
    docs = []
    last_id = None
    # Split the raw bytes at b"\n" only: str.splitlines() also breaks at
    # U+2028, U+2029 and U+0085, which json.dumps(ensure_ascii=False) leaves
    # raw inside strings. Decoding per line also puts a line number on bad UTF-8.
    with source.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise CorpusError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise CorpusError(f"{source}:{lineno}: expected an object, got {type(row).__name__}")
            try:
                doc = FixtureDocument(
                    doc_id=int(row["id"]),
                    url=str(row["url"]),
                    title=str(row["title"]),
                    body=str(row["body"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{source}:{lineno}: missing or invalid field: {exc!r}") from exc
            if "://" not in doc.url:
                raise CorpusError(f"{source}:{lineno}: url has no scheme separator: {doc.url!r}")
            if last_id is not None and doc.doc_id <= last_id:
                raise CorpusError(
                    f"{source}:{lineno}: ids must be unique and ascending (got {doc.doc_id} after {last_id})"
                )
            last_id = doc.doc_id
            docs.append(doc)
    if not docs:
        raise CorpusError(f"{source}: corpus is empty")
    return tuple(docs)
