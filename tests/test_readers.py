"""Each reader of an actors, corpus, keywords, cache or ledger file is the one
place that refuses it: a file it cannot use raises ConfigError naming the
file, a missing input raises FileNotFoundError as the OS reported it, and a
missing state file starts empty."""

import re

import pytest

from snippetnet.budget import BudgetLedger, read_ledger_state
from snippetnet.cache import HEADER, QueryCache
from snippetnet.cli import load_actors
from snippetnet.corpus import load_corpus
from snippetnet.errors import ConfigError
from snippetnet.keywords import load_keyword_overrides


def _keywords(path):
    return load_keyword_overrides(path, ["alice-nguyen", "bob-santos"])


# (reader, bytes it refuses, what a missing file does: None when it starts empty)
READERS = {
    "cache-open-bad-header": (QueryCache.open, b"garbage\n", None),
    "cache-open-bad-record": (QueryCache.open, HEADER + b"{nope\n", None),
    "cache-clear-not-a-journal": (lambda path: QueryCache(path).clear(), b"garbage\n", None),
    "ledger-open-not-an-object": (lambda path: BudgetLedger.open(10, path), b"[1]", None),
    "ledger-open-truncated": (lambda path: BudgetLedger.open(10, path), b'{"day_key"', None),
    "ledger-read-not-an-object": (read_ledger_state, b"[1]", None),
    "ledger-read-truncated": (read_ledger_state, b'{"day_key"', None),
    "keywords-truncated": (_keywords, b'{"alice-nguyen": ["gra', FileNotFoundError),
    "keywords-unknown-id": (_keywords, b'{"nobody": ["graph"]}', FileNotFoundError),
    "corpus": (load_corpus, b"[1]\n", FileNotFoundError),
    "actors": (load_actors, b"Alice Nguyen\n\xff\n", FileNotFoundError),
}


@pytest.mark.parametrize("reader, content, missing", READERS.values(), ids=READERS)
def test_reader_refuses_its_bad_file_naming_it(tmp_path, reader, content, missing):
    path = tmp_path / "bad input"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(str(path))) as refused:
        reader(path)
    # A library caller's `except ValueError` is for bad arguments, not files.
    assert not isinstance(refused.value, ValueError)

    absent = tmp_path / "absent"
    if missing is None:
        reader(absent)
    else:
        with pytest.raises(missing, match=re.escape(str(absent))):
            reader(absent)
