import random
import re

import pytest

from conftest import oracle_raw_tokens, oracle_slugify, oracle_tokenize
from snippetnet.labeling import GENERIC_TOKENS
from snippetnet.relations import slugify
from snippetnet.text import STOPWORDS, contains_phrase, find_phrase, raw_tokens, tokenize

# Letters whose lowercase form is unusual or not ASCII: the Kelvin sign
# (lowercases to ASCII "k"), dotted capital I (to "i" plus a combining dot),
# sharp s, e acute, the fi ligature, dotless i, long s and a no-break space;
# then a combining acute accent, a CJK ideograph and a superscript two.
_TRICKY = ["\u212a", "İ", "ß", "é", "ﬁ", "ı", "ſ", "\xa0", "\u0301", "李", "²"]
_ALPHABET = (
    _TRICKY
    + list("?\"'`.,;:-_/@#()")
    + list("0123456789")
    + list(" \t\n\r\x0b\x0c")
    + list("abcdefghijklmnopqrstuvwxyz")
    + list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    + ["the", "and", "with", "http", "www", "com", "Index"]  # stopwords of both lists
)


def _fuzzed_strings(seed: int, count: int, alphabet=_ALPHABET):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))


# On ASCII text the word rule is the ASCII rule: every run of characters
# other than [0-9a-z] in the lowercased text separates tokens, so ASCII ids,
# keywords and labels stay what they were.
_NON_ALNUM = re.compile(r"[^0-9a-z]+")
_ASCII_ALPHABET = [piece for piece in _ALPHABET if piece.isascii()]


class TestTokenize:
    @pytest.mark.parametrize("stopwords", [STOPWORDS, GENERIC_TOKENS], ids=["stopwords", "generic-tokens"])
    def test_equals_the_oracle_on_fuzzed_text(self, stopwords):
        for text in _fuzzed_strings(seed=12, count=20_000):
            assert tokenize(text, stopwords=stopwords) == oracle_tokenize(text, stopwords), repr(text)

    def test_raw_tokens_equal_the_oracle_on_fuzzed_text(self):
        for text in _fuzzed_strings(seed=13, count=20_000):
            assert raw_tokens(text) == oracle_raw_tokens(text), repr(text)

    def test_ascii_text_splits_where_the_ascii_rule_split_it(self):
        for text in _fuzzed_strings(seed=15, count=20_000, alphabet=_ASCII_ALPHABET):
            assert raw_tokens(text) == [token for token in _NON_ALNUM.split(text.lower()) if token], repr(text)

    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("Café au lait", ["café", "lait"]),  # a non-ASCII letter is a word character
            ("\u212aelvin scale", ["kelvin", "scale"]),  # the Kelvin sign lowercases to ASCII k
            ("İstanbul", ["i\u0307stanbul"]),  # dotted I lowercases to i plus a combining dot, a mark
            ("Cafe\u0301 x\u0301", ["cafe\u0301"]),  # a combining accent continues a word; "x́" is too short
            ("Straße", ["straße"]),
            ("李明和王芳 合作", ["李明和王芳"]),  # a run with no space is one token; "合作" is too short
            ("x² and 10²", ["10²"]),  # a superscript digit is a digit
            ("The Data-Mining group, 2024!", ["data", "mining", "group", "2024"]),
            ("", []),
        ],
    )
    def test_examples(self, text, tokens):
        assert tokenize(text) == tokens


class TestSlugify:
    def test_equals_the_oracle_on_fuzzed_names(self):
        for name in _fuzzed_strings(seed=14, count=20_000):
            assert slugify(name) == oracle_slugify(name), repr(name)

    def test_ascii_names_keep_their_ascii_ids(self):
        for name in _fuzzed_strings(seed=16, count=20_000, alphabet=_ASCII_ALPHABET):
            assert slugify(name) == (_NON_ALNUM.sub("-", name.lower()).strip("-") or "actor"), repr(name)

    @pytest.mark.parametrize(
        "name,slug",
        [
            ("Alice Nguyen", "alice-nguyen"),
            ("  O'Brien, Jr. ", "o-brien-jr"),
            ("Ayşe Demir", "ayşe-demir"),  # a non-ASCII letter stays in the id
            ("\u212aim Lee", "kim-lee"),  # the Kelvin sign lowercases to ASCII k
            ("Jürgen Müller", "jürgen-müller"),  # two names that differ only beyond ASCII
            ("Jörgen Möller", "jörgen-möller"),  # get two ids
            ("李明", "李明"),  # and so do two CJK names
            ("王芳", "王芳"),
            ("ß", "ß"),
            ("- ! -", "actor"),  # no token left at all
        ],
    )
    def test_examples(self, name, slug):
        assert slugify(name) == slug


class TestContainsPhrase:
    """The one rule for where a phrase occurs: a substring of text, both sides lowered by the caller."""

    def test_matches_a_lowered_phrase_in_lowered_text(self):
        assert contains_phrase("Alice NGUYEN homepage".lower(), "alice nguyen")

    def test_no_match(self):
        assert not contains_phrase("x", "alice")

    def test_the_caller_lowers(self):
        # The corpus stores its texts lowered, so the rule itself lowers nothing.
        assert not contains_phrase("Alice NGUYEN homepage", "alice nguyen")

    def test_a_substring_of_a_longer_word_matches(self):
        # Whole-word matching is not the rule yet: "ann lee" occurs in "joann lee".
        assert contains_phrase("talk by joann lee", "ann lee")

    def test_find_phrase_looks_only_between_start_and_end(self):
        # Search and detection share this rule: a packed corpus finds a phrase
        # in one document of a block by the document's bounds.
        text = "ann lee\nbo chen\nann lee"
        assert find_phrase(text, "ann lee") == 0
        assert find_phrase(text, "ann lee", 1) == 16
        assert find_phrase(text, "ann lee", 1, len(text) - 1) == -1
        assert find_phrase(text, "lee\nbo", 0, 10) == 4
        assert find_phrase(text, "absent") == -1
