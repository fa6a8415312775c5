"""Shared tokenizer and the built-in English stopword list.

Tokens are lowercase runs of ASCII letters and digits; anything shorter than
three characters or on the stopword list is dropped. The same tokenizer feeds
keyword extraction and edge labeling so scores and labels stay comparable.
"""

from __future__ import annotations

import re

MIN_TOKEN_LENGTH = 3

_SPLIT = re.compile(r"[^0-9a-z]+")

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


def tokenize(text: str, stopwords: frozenset = STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop short tokens and stopwords."""
    out = []
    for token in _SPLIT.split(text.lower()):
        if len(token) >= MIN_TOKEN_LENGTH and token not in stopwords:
            out.append(token)
    return out
