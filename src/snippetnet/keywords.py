"""Per-actor context and tf-idf keyword ranking for telling namesakes apart."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .corpus import FixtureCorpus
from .gateway import SearchGateway
from .queries import build_query
from .relations import Actor
from .snippets import parse_snippets
from .text import tokenize


def fetch_actor_context(actor: Actor, gateway: SearchGateway):
    """One singleton query: returns (parsed snippets, hit count)."""
    result = gateway.execute(build_query([actor.name]))
    return parse_snippets(result.snippets), result.hit_count


def extract_keywords(l_a, corpus_doc_freq: dict, universe_size: int, k: int) -> tuple:
    """Rank the tokens of an actor's snippets by tf-idf against the corpus.

    Returns the top k (term, score) pairs, best first, scores >= 0.

    tf counts occurrences across all snippet titles and abstracts; idf is
    ln(universe_size / (1 + document_frequency)). Scores floor at zero
    because idf goes negative for terms in nearly every document. With no
    usable universe (universe_size <= 0, as with live engines) ranking
    degrades to plain tf. Ties break lexicographically, so rankings are
    total and increasing k never reorders earlier entries.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tf: dict = {}
    for snippet in l_a:
        for token in tokenize(f"{snippet.title} {snippet.abstract}"):
            tf[token] = tf.get(token, 0) + 1
    scored = []
    for term, count in tf.items():
        if universe_size > 0:
            idf = math.log(universe_size / (1 + corpus_doc_freq.get(term, 0)))
            score = max(0.0, count * idf)
        else:
            score = float(count)
        scored.append((term, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored[:k])


def document_frequencies(corpus: FixtureCorpus) -> dict:
    """How many corpus documents contain each token at least once."""
    frequencies: dict = {}
    for doc in corpus.documents:
        for token in set(tokenize(f"{doc.title} {doc.body}")):
            frequencies[token] = frequencies.get(token, 0) + 1
    return frequencies


def classify_attribute(term: str) -> str:
    """Return "stable" for email-shaped terms and "flexible" for everything else.

    Stable means exactly one '@' with non-empty local and domain parts and no
    whitespace. A bare '@' or a word like a place name or a topic is
    flexible: it can change between contexts without the person changing.
    """
    if not term:
        raise ValueError("term must be non-empty")
    if term.count("@") == 1 and not any(ch.isspace() for ch in term):
        local, _, domain = term.partition("@")
        if local and domain:
            return "stable"
    return "flexible"


def load_keyword_overrides(path) -> dict:
    """Read a per-actor keyword file; returns {actor_id: [terms...]}.

    Accepts two shapes: a plain map of actor id to a list of keyword strings,
    or the richer structure the keywords command writes, where each actor maps
    to {"keywords": [{"term": ...}, ...]}.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: keyword file must hold a JSON object")
    overrides: dict = {}
    for actor_id, value in payload.items():
        if isinstance(value, list):
            terms = [str(term) for term in value]
        elif isinstance(value, dict) and isinstance(value.get("keywords"), list):
            terms = [str(entry["term"]) for entry in value["keywords"] if isinstance(entry, dict) and "term" in entry]
        else:
            raise ValueError(f"{path}: entry for {actor_id!r} is neither a term list nor a keyword set")
        overrides[actor_id] = terms
    return overrides
