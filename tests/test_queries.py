import random

import pytest

from snippetnet.queries import Query, build_query


class TestBuildQuery:
    def test_single_phrase_is_quoted(self):
        q = build_query(["Maria K. L. Santoso"])
        assert q.rendered == '"Maria K. L. Santoso"'
        assert q.terms == ("Maria K. L. Santoso",)

    def test_two_phrases_joined_by_single_space(self):
        assert build_query(["a", "b"]).rendered == '"a" "b"'

    def test_phrases_are_trimmed(self):
        q = build_query(["  Alice Nguyen \t", " graph "])
        assert q.terms == ("Alice Nguyen", "graph")
        assert q.rendered == '"Alice Nguyen" "graph"'

    def test_order_is_preserved(self):
        assert build_query(["b", "a"]).rendered == '"b" "a"'

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="a query needs at least one phrase"):
            build_query([])

    def test_blank_phrase_rejected(self):
        with pytest.raises(ValueError, match="blank phrase in query"):
            build_query(["alice", "   "])

    @pytest.mark.parametrize("phrases", [['Ann" "Bo'], ['"Ann Bo"'], ["Ann", 'B"o']])
    def test_double_quote_in_phrase_rejected(self, phrases):
        # 'Ann" "Bo' would otherwise render as the pair query "Ann" "Bo".
        with pytest.raises(ValueError, match="double quote in phrase"):
            build_query(phrases)

    @pytest.mark.parametrize("phrases", [["Alice\x01 Nguyen"], ["Ann", "B\to"], ["x\x1fy"], ["a\nb"]])
    def test_control_character_in_phrase_rejected(self, phrases):
        with pytest.raises(ValueError, match="control character in phrase"):
            build_query(phrases)

    @pytest.mark.parametrize("phrases", [["Alice\uffff Nguyen"], ["a\ufffe"], ["\ud800x"], ["Ann", "B\udfffo"]])
    def test_surrogate_or_noncharacter_in_phrase_rejected(self, phrases):
        # XML 1.0 cannot hold these, and a lone surrogate has no UTF-8 encoding.
        with pytest.raises(ValueError, match="lone surrogate or noncharacter in phrase"):
            build_query(phrases)

    @pytest.mark.parametrize(
        "code_point",
        [0x1F, 0x20, 0x7F, 0xE9, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFD, 0xFFFE, 0xFFFF,
         0x10000, 0x1F600, 0x10FFFF],
        ids=lambda code_point: f"U+{code_point:04X}",
    )
    def test_a_phrase_is_accepted_exactly_when_xml_can_hold_it(self, code_point):
        # The XML 1.0 Char production, less the tab, newline and carriage
        # return that the control-character rule refuses as well.
        xml_char = 0x20 <= code_point <= 0xD7FF or 0xE000 <= code_point <= 0xFFFD or 0x10000 <= code_point
        phrase = f"a{chr(code_point)}b"
        if xml_char:
            assert build_query([phrase]).terms == (phrase,)
        else:
            with pytest.raises(ValueError):
                build_query([phrase])

    def test_control_characters_around_a_phrase_are_trimmed(self):
        assert build_query(["\tAlice Nguyen\n"]).terms == ("Alice Nguyen",)

    def test_every_phrase_appears_quoted(self):
        rng = random.Random(20260818)
        alphabet = "abcdefghij XYZ.'-"
        for _ in range(200):
            phrases = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip() or "x"
                for _ in range(rng.randint(1, 4))
            ]
            q = build_query(phrases)
            for term in q.terms:
                assert f'"{term}"' in q.rendered

    def test_rendered_is_pure_function_of_terms(self):
        a = Query(terms=("x", "y"))
        b = Query(terms=("x", "y"))
        assert a.rendered == b.rendered
        assert a == b
