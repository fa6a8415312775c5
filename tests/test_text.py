import random

import pytest

from conftest import regex_raw_tokens, regex_slugify, regex_tokenize
from snippetnet.labeling import GENERIC_TOKENS
from snippetnet.relations import slugify
from snippetnet.text import STOPWORDS, raw_tokens, tokenize

# Letters whose lowercase form is unusual or not ASCII: the Kelvin sign
# (lowercases to ASCII "k"), dotted capital I (to "i" plus a combining dot),
# sharp s, e acute, the fi ligature, dotless i, long s and a no-break space.
_TRICKY = ["\u212a", "İ", "ß", "é", "ﬁ", "ı", "ſ", "\xa0"]
_ALPHABET = (
    _TRICKY
    + list("?\"'`.,;:-_/@#()")
    + list("0123456789")
    + list(" \t\n\r\x0b\x0c")
    + list("abcdefghijklmnopqrstuvwxyz")
    + list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    + ["the", "and", "with", "http", "www", "com", "Index"]  # stopwords of both lists
)


def _fuzzed_strings(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(0, 24)))


class TestTokenize:
    @pytest.mark.parametrize("stopwords", [STOPWORDS, GENERIC_TOKENS], ids=["stopwords", "generic-tokens"])
    def test_equals_the_regex_on_fuzzed_text(self, stopwords):
        for text in _fuzzed_strings(seed=12, count=20_000):
            assert tokenize(text, stopwords=stopwords) == regex_tokenize(text, stopwords), repr(text)

    def test_raw_tokens_equal_the_regex_split_on_fuzzed_text(self):
        for text in _fuzzed_strings(seed=13, count=20_000):
            assert raw_tokens(text) == regex_raw_tokens(text), repr(text)

    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("Café au lait", ["caf", "lait"]),  # a non-ASCII letter ends a token
            ("\u212aelvin scale", ["kelvin", "scale"]),  # the Kelvin sign lowercases to ASCII k
            ("İstanbul", ["stanbul"]),  # dotted I lowercases to i plus a combining dot
            ("Straße", ["stra"]),
            ("The Data-Mining group, 2024!", ["data", "mining", "group", "2024"]),
            ("", []),
        ],
    )
    def test_examples(self, text, tokens):
        assert tokenize(text) == tokens


class TestSlugify:
    def test_equals_the_regex_on_fuzzed_names(self):
        for name in _fuzzed_strings(seed=14, count=20_000):
            assert slugify(name) == regex_slugify(name), repr(name)

    @pytest.mark.parametrize(
        "name,slug",
        [
            ("Alice Nguyen", "alice-nguyen"),
            ("  O'Brien, Jr. ", "o-brien-jr"),
            ("Ayşe Demir", "ay-e-demir"),  # a non-ASCII letter is a separator
            ("\u212aim Lee", "kim-lee"),  # the Kelvin sign lowercases to ASCII k
            ("ß", "actor"),  # no token left at all
        ],
    )
    def test_examples(self, name, slug):
        assert slugify(name) == slug
