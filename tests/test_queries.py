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
