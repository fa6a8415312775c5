"""Per-actor context and tf-idf keyword ranking for telling namesakes apart.

Keywords are ranked against the run's own result pages: the collection is
the distinct snippets on the context pages already fetched, so ranking pays
no query and reads no corpus, the same on every backend.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from .errors import ConfigError
from .gateway import SearchGateway
from .queries import build_query
from .text import STOPWORDS, tokenize


def fetch_actor_context(actors, gateway: SearchGateway) -> dict:
    """One singleton query per actor, fanned out by gateway.execute_all: {actor id: the SearchResult it was served}."""
    actors = list(actors)
    results = gateway.execute_all(build_query([actor.name]) for actor in actors)
    return {actor.id: result for actor, result in zip(actors, results)}


def extract_keywords(l_a, doc_freq: dict, collection_size: int, k: int, stopwords: frozenset = STOPWORDS) -> tuple:
    """Rank the tokens of an actor's snippets by tf-idf against a snippet collection.

    Returns the top k (term, score) pairs, best first, scores >= 0.

    tf counts occurrences across all snippet titles and abstracts, where a
    token in stopwords is no candidate; idf is ln(collection_size / (1 +
    document frequency)). Scores floor at zero, as idf is negative for a term
    in nearly every snippet and at most zero for every term of a collection
    of two or fewer. Ties break lexicographically, so rankings are total and
    increasing k never reorders earlier entries.
    """
    tf = Counter(token for snippet in l_a for token in tokenize(f"{snippet.title} {snippet.abstract}", stopwords))
    scored = [(term, max(0.0, count * math.log(collection_size / (1 + doc_freq.get(term, 0)))))
              for term, count in tf.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored[:k])


def document_frequencies(snippets) -> dict:
    """How many of the given snippets hold each token of their title or abstract; the url never counts."""
    return Counter(token for snippet in snippets for token in set(tokenize(f"{snippet.title} {snippet.abstract}")))


def load_keyword_overrides(path, actor_ids) -> dict:
    """Read and check a per-actor keyword file; returns {actor_id: first term, trimmed}.

    Accepts two shapes: a plain map of actor id to a list of keyword strings,
    or the richer structure the keywords command writes, where each actor maps
    to {"keywords": [{"term": ...}, ...]}. Every id must be one of actor_ids,
    so a misspelt id cannot leave its actor without a keyword. Every term, not
    only the first, must be a string build_query accepts: not blank, no double
    quote. An empty list gives that actor no keyword; a byte order mark starting
    the file is skipped. Anything else, bad JSON or UTF-8 included, raises
    ConfigError naming the path first, then the actor at fault; an OSError is raised as it is.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: keyword file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: keyword file must hold a JSON object")
    unknown = sorted(set(payload) - set(actor_ids))
    if unknown:
        raise ConfigError(f"{path}: ids that name no actor in this run: {', '.join(unknown)}")
    overrides: dict = {}
    for actor_id, value in payload.items():
        if isinstance(value, list):
            terms = value
        elif isinstance(value, dict) and isinstance(value.get("keywords"), list):
            if not all(isinstance(entry, dict) and "term" in entry for entry in value["keywords"]):
                raise ConfigError(f'{path}: keywords of {actor_id!r} must be objects with a "term"')
            terms = [entry["term"] for entry in value["keywords"]]
        else:
            raise ConfigError(f"{path}: entry for {actor_id!r} is neither a term list nor a keyword set")
        if not all(isinstance(term, str) for term in terms):
            raise ConfigError(f"{path}: keyword terms for {actor_id!r} must be strings, got {terms!r}")
        if terms:
            try:
                overrides[actor_id] = build_query(terms).terms[0]
            except ValueError as exc:
                raise ConfigError(f"{path}: keyword terms for {actor_id!r}: {exc}") from exc
    return overrides
