"""Shared tokenizer and the built-in English stopword list.

Text is lowercased first, then cut at every character that is not a word
character: a letter or digit (str.isalnum) or a combining mark (Unicode
category M). So "Café" gives "café", "İstanbul" stays one token, and a run of
CJK characters with no space is one token. Text is not normalized, so a
precomposed and a decomposed "é" spell different tokens. Tokens shorter than
three characters or on the stopword list are dropped. The same rule gives
actor ids, and feeds keyword extraction and edge labeling, so ids, scores and
labels stay comparable.
"""

from __future__ import annotations

MIN_TOKEN_LENGTH = 3


class _WordTable(dict):
    """A str.translate table: a word character maps to itself, any other to a space, each decided once."""

    def __missing__(self, code: int) -> int:
        char = chr(code)
        if char.isalnum() or char.isascii():
            kept = char.isalnum()
        else:  # only a non-ASCII character that is no letter or digit loads unicodedata
            from unicodedata import category
            kept = category(char).startswith("M")
        self[code] = mapped = code if kept else 0x20
        return mapped


_WORDS = _WordTable()

STOPWORDS = frozenset(
    """
    a about above after again against all also am an and any are as at be
    because been before being below between both but by can cannot could did
    do does doing down during each few for from further had has have having
    he her here hers herself him himself his how i if in into is it its
    itself just may me might more most must my myself no nor not now of off
    on once only or other our ours ourselves out over own same she should so
    some such than that the their theirs them themselves then there these
    they this those through to too under until up upon very was we were what
    when where which while who whom why will with within without would you
    your yours yourself yourselves
    """.split()
)


def raw_tokens(text: str) -> list[str]:
    """Every token of text, in order, before short tokens and stopwords are dropped."""
    return text.lower().translate(_WORDS).split()


def tokenize(text: str, stopwords: frozenset = STOPWORDS) -> list[str]:
    """The tokens of text, less those shorter than MIN_TOKEN_LENGTH or in stopwords."""
    return [token for token in raw_tokens(text) if len(token) >= MIN_TOKEN_LENGTH and token not in stopwords]


def contains_phrase(text: str, phrase: str) -> bool:
    """Where a phrase occurs, in search and detection: a substring; case-insensitive, as the caller lowers both."""
    return phrase in text
