import pytest

from snippetnet.backends import RawSnippet
from snippetnet.errors import MalformedUrl
from snippetnet.snippets import Snippet, contains_term, parse_snippet, parse_url


class TestParseUrl:
    def test_splits_scheme_domains_paths(self):
        tokens = parse_url("http://www.example.com/a/b")
        assert tokens.scheme == "http"
        assert tokens.domains == ("com", "example", "www")
        assert tokens.paths == ("a", "b")

    def test_domains_are_rightmost_first(self):
        tokens = parse_url("https://news.bbc.co.uk/world")
        assert tokens.domains == ("uk", "co", "bbc", "news")

    def test_host_and_scheme_lowercased_paths_preserved(self):
        tokens = parse_url("HTTP://WWW.Example.COM/Papers/Mining")
        assert tokens.scheme == "http"
        assert tokens.domains == ("com", "example", "www")
        assert tokens.paths == ("Papers", "Mining")

    def test_query_and_fragment_stripped(self):
        tokens = parse_url("http://site.org/page?q=x&y=2#anchor")
        assert tokens.paths == ("page",)

    def test_fragment_stripped_before_query(self):
        # the fragment may itself contain a question mark
        tokens = parse_url("http://site.org/page#frag?not=query")
        assert tokens.paths == ("page",)

    def test_port_dropped(self):
        tokens = parse_url("http://localhost:8080/api/v1")
        assert tokens.domains == ("localhost",)
        assert tokens.paths == ("api", "v1")

    def test_trailing_slash_and_empty_segments(self):
        tokens = parse_url("http://a.com//x///y/")
        assert tokens.paths == ("x", "y")

    def test_bare_host(self):
        tokens = parse_url("https://uni.ac.id")
        assert tokens.domains == ("id", "ac", "uni")
        assert tokens.paths == ()

    @pytest.mark.parametrize(
        "bad",
        ["", "example.com/a", "http//missing.colon", "://nohost", "http://"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(MalformedUrl):
            parse_url(bad)

    def test_render_round_trip_of_normalized_form(self):
        for url in [
            "http://www.example.com/a/b",
            "https://uni.ac.id",
            "http://a.com/x/y",
        ]:
            tokens = parse_url(url)
            assert parse_url(tokens.render()) == tokens

    def test_render_is_normalized(self):
        tokens = parse_url("HTTP://A.Com:80/x/?q=1#f")
        assert tokens.render() == "http://a.com/x"


class TestParseSnippet:
    def test_builds_snippet_with_parsed_url(self):
        raw = RawSnippet(url="http://a.com/x", title="  Title  ", abstract=" body text ")
        snip = parse_snippet(raw)
        assert snip.url.domains == ("com", "a")
        assert snip.title == "Title"
        assert snip.abstract == "body text"

    def test_rejects_bad_url(self):
        with pytest.raises(MalformedUrl):
            parse_snippet(RawSnippet(url="not-a-url", title="t", abstract="a"))


class TestContainsTerm:
    def _snip(self, title="", abstract=""):
        return Snippet(url=parse_url("http://a.com"), title=title, abstract=abstract)

    def test_matches_title_case_insensitive(self):
        assert contains_term(self._snip(title="Alice NGUYEN homepage"), "alice nguyen")

    def test_matches_abstract(self):
        assert contains_term(self._snip(abstract="with Bob Santos et al"), "Bob Santos")

    def test_no_match(self):
        assert not contains_term(self._snip(title="x", abstract="y"), "alice")

    def test_url_text_is_not_searched(self):
        snip = Snippet(url=parse_url("http://alice.com/alice"), title="t", abstract="a")
        assert not contains_term(snip, "alice")

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            contains_term(self._snip(title="x"), "  ")
