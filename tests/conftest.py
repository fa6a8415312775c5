import json
import re
from pathlib import Path

import pytest

import corpusdata
from snippetnet.backends import FixtureBackend
from snippetnet.budget import BudgetLedger
from snippetnet.cache import QueryCache
from snippetnet.corpus import FixtureCorpus, FixtureDocument
from snippetnet.gateway import SearchGateway
from snippetnet.relations import Actor


# ---------------------------------------------------------------- oracle ----
# Independent exhaustive scan over raw corpus rows. This deliberately does not
# go through FixtureCorpus or FixtureBackend; it re-states the matching rule
# from scratch so the implementation has something to be checked against.

def scan_matches(rows, phrases):
    needles = [p.lower() for p in phrases]
    out = []
    for row in rows:
        haystack = f"{row['title']}\n{row['body']}\n{row['url']}".lower()
        if all(needle in haystack for needle in needles):
            out.append(row["id"])
    return out


def scan_count(rows, phrases):
    return len(scan_matches(rows, phrases))


# --------------------------------------------------------------- helpers ----

def corpus_from_rows(rows):
    return FixtureCorpus(
        documents=tuple(
            FixtureDocument(doc_id=row["id"], url=row["url"], title=row["title"], body=row["body"])
            for row in rows
        )
    )


def make_gateway(corpus, daily_limit=1_000_000, cache_path=None, ledger_path=None,
                 page_size=10, today_fn=None):
    cache = QueryCache.open(cache_path) if cache_path else QueryCache()
    kwargs = {} if today_fn is None else {"today_fn": today_fn}
    if ledger_path:
        ledger = BudgetLedger.open(daily_limit, ledger_path, **kwargs)
    else:
        ledger = BudgetLedger(daily_limit, **kwargs)
    return SearchGateway(FixtureBackend(corpus), cache=cache, ledger=ledger, page_size=page_size)


_TIMESTAMP_FIELDS = re.compile(r'"(generated_at|started_at|finished_at|fetched_at)": "[^"]*"')


def mask_timestamps(text):
    return _TIMESTAMP_FIELDS.sub(lambda m: f'"{m.group(1)}": "X"', text)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -------------------------------------------------------------- fixtures ----

@pytest.fixture
def corpus20_rows():
    return corpusdata.corpus20()


@pytest.fixture
def corpus20(corpus20_rows):
    return corpus_from_rows(corpus20_rows)


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
