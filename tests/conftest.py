import json
import tempfile
import threading
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import pytest

import corpusdata
from corpusdata import mask_timestamps, scan_matches  # mask_timestamps is re-exported for the tests
from snippetnet.backends import FixtureBackend
from snippetnet.budget import BudgetLedger
from snippetnet.cache import QueryCache
from snippetnet.corpus import load_corpus
from snippetnet.errors import BackendError
from snippetnet.gateway import SearchGateway
from snippetnet.relations import Actor
from snippetnet.snippets import UrlTokens
from snippetnet.text import MIN_TOKEN_LENGTH, STOPWORDS


# ---------------------------------------------------------------- oracle ----
# scan_matches, the exhaustive scan over raw corpus rows, lives in corpusdata,
# which checks its own designed-in facts with it; this counts its matches.

def scan_count(rows, phrases):
    return len(scan_matches(rows, phrases))


# The tokenizer rule stated one character at a time: lowercase, then a token
# is a maximal run of characters whose Unicode category is a letter (L*), a
# number (N*) or a mark (M*); short tokens and stopwords are dropped.
def _is_word_char(char):
    return unicodedata.category(char)[0] in "LNM"


def oracle_raw_tokens(text):
    return ["".join(run) for is_word, run in groupby(text.lower(), _is_word_char) if is_word]


def oracle_tokenize(text, stopwords=STOPWORDS):
    return [
        token for token in oracle_raw_tokens(text)
        if len(token) >= MIN_TOKEN_LENGTH and token not in stopwords
    ]


# The actor-id rule: the raw tokens joined by "-", or "actor" if there are none.
def oracle_slugify(name):
    return "-".join(oracle_raw_tokens(name)) or "actor"


# The URL grammar as the straightforward loop states it: cut at "#" then "?",
# strip each label as it is tested and again as it is kept.
def reference_parse_url(raw):
    if "://" not in raw:
        raise ValueError(f"no scheme separator in {raw!r}")
    scheme, _, rest = raw.partition("://")
    scheme = scheme.strip().lower()
    if not scheme:
        raise ValueError(f"empty scheme in {raw!r}")
    for cut in ("#", "?"):
        rest = rest.split(cut, 1)[0]
    host, _, path = rest.partition("/")
    host = host.rpartition("@")[2].strip().lower()
    head, sep, maybe_port = host.rpartition(":")
    if sep and maybe_port.isdigit():
        host = head
    labels = [label.strip() for label in host.split(".") if label.strip()]
    joined = ".".join(labels)
    if joined.startswith("[") and joined.endswith("]"):
        labels = [joined]
    if not labels:
        raise ValueError(f"empty host in {raw!r}")
    head, sep, maybe_port = labels[-1].rpartition(":")
    if sep and maybe_port.isdigit():
        raise ValueError(f"host still ends in a port in {raw!r}")
    segments = tuple(segment for segment in path.split("/") if segment)
    return UrlTokens(scheme=scheme, domains=tuple(reversed(labels)), paths=segments)


# ------------------------------------------------------ adjacency matrix ----
# A second view of a built network, for checking its edge set: a symmetric
# 0/1 matrix with a zero diagonal, rows in id order.

@dataclass(frozen=True)
class AdjacencyMatrix:
    order: tuple
    cells: tuple


def to_matrix(network):
    order = tuple(sorted(actor.id for actor in network.nodes))
    index = {actor_id: i for i, actor_id in enumerate(order)}
    size = len(order)
    grid = [[0] * size for _ in range(size)]
    for edge in network.edges:
        i, j = index[edge.pair[0]], index[edge.pair[1]]
        grid[i][j] = 1
        grid[j][i] = 1
    return AdjacencyMatrix(order=order, cells=tuple(tuple(row) for row in grid))


# --------------------------------------------------------------- fan-out ----
# Twenty actors named together in the title of every document, so all 190
# pairs are detected and each paid stage of an srwk run with FANOUT_KEYWORDS
# has many distinct queries: 190 pairs, 20 contexts, and 20 narrowed
# singletons plus 190 joint queries for scoring.

FANOUT_ACTORS = [Actor(f"Person {i:02d}") for i in range(20)]
FANOUT_KEYWORDS = {actor.id: "topic" for actor in FANOUT_ACTORS}


def fanout_corpus():
    names = " and ".join(actor.name for actor in FANOUT_ACTORS)
    return corpus_from_rows([{"id": i, "url": f"https://example.org/{i}", "title": names,
                              "body": f"{names} on topic {i}"} for i in range(1, 4)])


class StagedBackend:
    """FixtureBackend over fanout_corpus() that counts its calls by query and by stage.

    A query's stage follows from its shape in an srwk run with
    FANOUT_KEYWORDS: "scoring" holds the keyword, "contexts" is one phrase,
    "detection" is two names. hook(stage, n), when given, runs before the
    search, with n the calls of that stage so far; a call in stage `fail`
    raises BackendError.
    """

    def __init__(self, hook=None, fail=None):
        self._fixture = FixtureBackend(fanout_corpus())
        self._lock = threading.Lock()
        self.hook, self.fail = hook, fail
        self.stages = Counter()
        self.queries = Counter()

    def search(self, query):
        stage = "scoring" if "topic" in query.terms else "contexts" if len(query.terms) == 1 else "detection"
        with self._lock:
            self.stages[stage] += 1
            self.queries[query.rendered] += 1
            n = self.stages[stage]
        if self.hook is not None:
            self.hook(stage, n)
        if stage == self.fail:
            raise BackendError(f"{stage} down")
        return self._fixture.search(query)


# --------------------------------------------------------------- helpers ----

def corpus_from_rows(rows):
    """load_corpus over rows written as JSON Lines to a file that is removed once loaded.

    Each string is written raw, a lone surrogate through surrogatepass, so
    it reads back as it was: escaped, two adjacent surrogates would read
    back as one character. The corpus reads pages back through the
    descriptor it keeps open, never by the path, so it answers as if the
    file were still there.
    """
    lines = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        path.write_bytes(lines.encode(errors="surrogatepass"))
        return load_corpus(path)


def searched(corpus):
    """What a search reads of a corpus: each block's first index, lowered text and document starts."""
    return corpus.firsts, corpus.texts, corpus.starts


def make_gateway(corpus, daily_limit=1_000_000, cache_path=None, ledger_path=None,
                 today_fn=None, parallelism=1):
    cache = QueryCache.open(cache_path) if cache_path else QueryCache()
    kwargs = {} if today_fn is None else {"today_fn": today_fn}
    if ledger_path:
        ledger = BudgetLedger.open(daily_limit, ledger_path, **kwargs)
    else:
        ledger = BudgetLedger(daily_limit, **kwargs)
    return SearchGateway(FixtureBackend(corpus), cache=cache, ledger=ledger, parallelism=parallelism)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -------------------------------------------------------------- fixtures ----

@pytest.fixture
def corpus20_rows():
    return corpusdata.corpus20()


@pytest.fixture
def corpus20(corpus20_file):
    return load_corpus(corpus20_file)


@pytest.fixture
def actors6():
    return [Actor(name) for name in corpusdata.ACTORS]


@pytest.fixture
def gateway20(corpus20):
    return make_gateway(corpus20)


@pytest.fixture
def corpus20_file(tmp_path, corpus20_rows):
    path = tmp_path / "corpus.jsonl"
    corpusdata.write_jsonl(path, corpus20_rows)
    return path


@pytest.fixture
def actors6_file(tmp_path):
    path = tmp_path / "actors.txt"
    path.write_text(
        "# six people\n" + "\n".join(corpusdata.ACTORS) + "\n",
        encoding="utf-8",
    )
    return path
