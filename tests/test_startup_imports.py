"""What `import snippetnet.cli` loads, checked in a fresh interpreter.

A run on the fixture backend never talks to the network, and its threads are
plain threading.Thread workers, so importing the command line must not load
the web client, the hashing behind `secrets`, or concurrent.futures and the
logging it pulls in; a threaded run does not load the last two either. The records are named
tuples, so it loads neither dataclasses, nor the inspect module that
dataclasses pulls in, nor typing. Nor does it load array, which only a run
that parses a corpus needs: a warm rerun, answered from the cache, never
does. The modules are compared
with those of a bare interpreter, so whatever a machine's `site` preloads
does not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_AT_STARTUP = (
    "urllib.request",
    "http.client",
    "email",
    "ssl",
    "secrets",
    "hashlib",
    "concurrent.futures",
    "logging",
    "xml.sax.saxutils",
    "dataclasses",
    "inspect",
    "typing",
    "array",
)


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    return result.stdout


def loaded_modules(code: str) -> set:
    return set(json.loads(run_python(code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")))


def test_importing_the_cli_loads_no_web_client_hashing_or_thread_pool():
    added = loaded_modules("import snippetnet.cli") - loaded_modules("pass")
    assert "snippetnet.cli" in added
    unwanted = sorted(
        module for module in added
        if any(module == name or module.startswith(name + ".") for name in NOT_AT_STARTUP)
    )
    assert unwanted == []


def test_importing_the_package_does_not_load_the_cli():
    # Were snippetnet.cli loaded by the package, `python -m snippetnet.cli`
    # would find it in sys.modules and run a second copy of it.
    added = loaded_modules("import snippetnet")
    assert "snippetnet" in added
    assert "snippetnet.cli" not in added


# Runs after the lean import, so urllib is first imported by the code that
# needs it, and a threaded detection must still load no thread pool; urlopen
# is replaced before the first live search, as the LiveBackend tests do by
# dotted path.
_LAZY_USERS = """
import json, sys
from pathlib import Path
sys.path.insert(0, {tests!r})
import snippetnet.cli
loaded_early = "urllib.request" in sys.modules or "concurrent.futures" in sys.modules
from corpusdata import ACTORS, corpus20, write_jsonl
from snippetnet.backends import FixtureBackend, LiveBackend
from snippetnet.budget import BudgetLedger
from snippetnet.cache import QueryCache
from snippetnet.corpus import load_corpus
from snippetnet.gateway import SearchGateway
from snippetnet.queries import build_query
from snippetnet.relations import Actor, detect_all

actors = [Actor(name) for name in ACTORS]
write_jsonl(Path({corpus!r}), corpus20())
corpus = load_corpus({corpus!r})

def detect(parallelism):
    gateway = SearchGateway(FixtureBackend(corpus), cache=QueryCache(), ledger=BudgetLedger(1000),
                            parallelism=parallelism)
    return detect_all(actors, gateway)

serial, threaded = detect(1), detect(2)
pool_loaded = "concurrent.futures" in sys.modules or "logging" in sys.modules

import urllib.request

class Response:
    def read(self):
        return b'{{"hit_count": 4, "snippets": []}}'
    def __enter__(self):
        return self
    def __exit__(self, *args):
        return False

requested = []
def fake_urlopen(request, timeout):
    requested.append(request.full_url)
    return Response()

urllib.request.urlopen = fake_urlopen
result = LiveBackend("http://search.example/api").search(build_query(["alice"]))
print(json.dumps({{
    "loaded_early": loaded_early,
    "threaded_matches_serial": threaded == serial,
    "pool_loaded": pool_loaded,
    "detected": sum(item.detected for item in serial),
    "hit_count": result.hit_count,
    "requested": requested,
}}))
"""


def test_lazily_imported_thread_pool_and_web_client_still_work(tmp_path):
    code = _LAZY_USERS.format(tests=str(Path(__file__).resolve().parent), corpus=str(tmp_path / "corpus.jsonl"))
    report = json.loads(run_python(code))
    assert report["loaded_early"] is False
    assert report["threaded_matches_serial"] is True
    assert report["pool_loaded"] is False  # threads fan out on plain threading.Thread
    assert report["detected"] > 0
    assert report["hit_count"] == 4
    assert report["requested"] == ["http://search.example/api?q=%22alice%22&page_size=10"]


# The word rule needs Unicode categories only for a non-ASCII character that
# is no letter or digit; the ASCII demo never meets one, so a full extract,
# srwk keywords and labels included, does not load unicodedata. Text that
# does meet one still tokenizes by category.
_DEMO_EXTRACT = """
import json, sys
from snippetnet.cli import main
demo = {demo!r}
code = main(["extract", "--actors", demo + "/actors.txt", "--corpus", demo + "/corpus.jsonl", "--variant", "srwk",
             "--threshold", "0", "--cache", {cache!r}, "--out", {out!r}])
loaded_by_demo = "unicodedata" in sys.modules
from snippetnet.text import raw_tokens
tokens = raw_tokens("İstanbul")
print(json.dumps({{"code": code, "loaded_by_demo": loaded_by_demo, "tokens": tokens,
                  "loaded_after": "unicodedata" in sys.modules}}))
"""


def test_a_demo_extract_does_not_load_unicodedata(tmp_path):
    demo = str(SRC.parent / "demo")
    code = _DEMO_EXTRACT.format(demo=demo, cache=str(tmp_path / "cache.json"), out=str(tmp_path / "net.json"))
    report = json.loads(run_python(code).splitlines()[-1])
    assert report == {"code": 0, "loaded_by_demo": False, "tokens": ["i\u0307stanbul"], "loaded_after": True}
