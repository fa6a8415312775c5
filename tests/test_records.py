"""The record types are named tuples: immutable, equal and hashed by value,
with the keyword repr they have always had, and with Actor's checks still
run when one is built."""

import copy
import pickle

import pytest

from snippetnet.backends import SearchResult
from snippetnet.corpus import FixtureDocument
from snippetnet.labeling import EdgeLabels, UsrScore
from snippetnet.network import Edge, SocialNetwork
from snippetnet.queries import build_query
from snippetnet.relations import Actor, RelationEvidence
from snippetnet.snippets import Snippet, parse_url
from snippetnet.strength import StrengthScore


def _examples():
    """One record of every public type, each built afresh on every call."""
    url = parse_url("http://cs.uni.ac.id/people/ann")
    snippet = Snippet(url, "Ann Lee and Bo Chen", "A joint paper.")
    score = StrengthScore(0.5, "jaccard", "srwk", ("graph", "mobility"))
    usr = UsrScore(0.25, frozenset({"uni.ac.id"}))
    labels = EdgeLabels((("people", 2),), "url_path")
    edge = Edge(("ann-lee", "bo-chen"), score, usr, labels, 1)
    return {
        "Query": build_query(["Ann Lee", "Bo Chen"]),
        "UrlTokens": url,
        "Snippet": snippet,
        "SearchResult": SearchResult(3, (snippet,)),
        "FixtureDocument": FixtureDocument(1, "http://uni.ac.id/a", "Title", "Body"),
        "Actor": Actor("Ann Lee"),
        "RelationEvidence": RelationEvidence(("ann-lee", "bo-chen"), 3, (snippet,), True),
        "StrengthScore": score,
        "UsrScore": usr,
        "EdgeLabels": labels,
        "Edge": edge,
        "SocialNetwork": SocialNetwork((Actor("Ann Lee"), Actor("Bo Chen")), (edge,), {"measure": "jaccard"}),
    }


FIELDS = {
    "Query": ("terms",),
    "UrlTokens": ("scheme", "domains", "paths"),
    "Snippet": ("url", "title", "abstract"),
    "SearchResult": ("hit_count", "snippets"),
    "FixtureDocument": ("text", "page"),
    "Actor": ("name", "id"),
    "RelationEvidence": ("pair", "doubleton_count", "l_ab", "detected"),
    "StrengthScore": ("value", "measure", "variant", "keywords_used"),
    "UsrScore": ("value", "shared_domains"),
    "EdgeLabels": ("labels", "source"),
    "Edge": ("pair", "weight", "usr", "labels", "evidence_size"),
    "SocialNetwork": ("nodes", "edges", "provenance"),
}
RECORD_TYPES = sorted(FIELDS)


def test_every_record_type_has_an_example():
    assert sorted(_examples()) == RECORD_TYPES


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_fields_cannot_be_assigned(name):
    record = _examples()[name]
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name][0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_equal_values_make_equal_records_with_equal_hashes(name):
    first, second = _examples()[name], _examples()[name]
    assert first == second and first is not second
    if name == "SocialNetwork":  # its provenance is a dict, so it never was hashable
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_repr_names_every_field(name):
    record = _examples()[name]
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


def test_actor_repr_is_unchanged():
    assert repr(Actor("Ann Lee")) == "Actor(name='Ann Lee', id='ann-lee')"


def test_actor_trims_its_name_and_derives_its_id():
    actor = Actor(" Ann ")
    assert (actor.name, actor.id) == ("Ann", "ann")
    assert actor == Actor("Ann") == Actor(name="Ann")


@pytest.mark.parametrize("name", ["", "   ", "\t\n"])
def test_actor_rejects_a_blank_name(name):
    with pytest.raises(ValueError, match="actor name must be non-empty"):
        Actor(name)


def test_actor_survives_copy_and_pickle():
    actor = Actor("José Álvarez")
    assert copy.copy(actor) == copy.deepcopy(actor) == actor
    assert pickle.loads(pickle.dumps(actor)) == actor


def test_fixture_document_keeps_what_a_snippet_shows_and_one_lowercased_text():
    body = " Body Ä " + "x" * 300
    doc = FixtureDocument(7, "HTTP://Uni.ac.id/A", "  A Title ", body)
    shown = ["A Title", body[:200].strip(), "HTTP://Uni.ac.id/A"]
    assert doc == (f"  a title \n{body.lower()}\nhttp://uni.ac.id/a", b"\xff".join(s.encode() for s in shown))
    assert doc.shown() == shown
    assert shown[1].startswith("Body Ä x") and len(shown[1]) == 199


def test_optional_fields_default_to_none():
    assert StrengthScore(0.5, "jaccard", "sr").keywords_used is None
    assert EdgeLabels(()).source is None


def test_records_behave_as_tuples():
    # The documented tuple semantics: a record unpacks, and equals a plain
    # tuple with the same items.
    hit_count, snippets = result = _examples()["SearchResult"]
    assert (hit_count, snippets) == result
    assert UsrScore(0.0, frozenset()) == (0.0, frozenset())
