"""Shared tokenizer and the built-in English stopword list.

Text is lowercased first, then cut at every character other than an ASCII
letter or digit, any non-ASCII one too, so "Café" gives "caf". Tokens shorter
than three characters or on the stopword list are dropped. The same tokenizer
feeds keyword extraction and edge labeling so scores and labels stay comparable.
"""

from __future__ import annotations

MIN_TOKEN_LENGTH = 3

# Maps every byte but [0-9a-z] to a space, "?" too, which non-ASCII encodes to.
_TABLE = bytes(byte if chr(byte) in "0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for byte in range(256))

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
    return text.lower().encode("ascii", "replace").translate(_TABLE).decode("ascii").split()


def tokenize(text: str, stopwords: frozenset = STOPWORDS) -> list[str]:
    """The tokens of text, less those shorter than MIN_TOKEN_LENGTH or in stopwords."""
    return [token for token in raw_tokens(text) if len(token) >= MIN_TOKEN_LENGTH and token not in stopwords]
