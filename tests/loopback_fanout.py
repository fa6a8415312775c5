"""Wall time of `snippetnet extract --backend live` against a loopback search service.

Usage: PYTHONPATH=src python tests/loopback_fanout.py [--seed 5] [--delay-ms 10] [--repeats 2]

The service runs on 127.0.0.1 and answers each ``?q=`` with a FixtureBackend
over the perfbench `cold-wide` corpus (32 actors, 800 documents) generated
from the seed, after waiting --delay-ms, as an engine's latency would. Each
run is a fresh process from an empty cache, with --threshold 0.1. The script
prints a Markdown table: backend calls, and the median wall time of the
repeats for each variant at parallelism 1, 2, 4 and 8. Nothing leaves the
machine. The name does not start with ``test_``, so pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import corpusgen  # noqa: E402  (perfbench's seeded corpus generator)
import run as perfbench_run  # noqa: E402  (for the cold-wide shape)
from snippetnet.backends import FixtureBackend  # noqa: E402
from snippetnet.corpus import load_corpus  # noqa: E402
from snippetnet.queries import build_query  # noqa: E402
from snippetnet.snippets import snippet_record  # noqa: E402

PARALLELISM = (1, 2, 4, 8)
VARIANTS = ("sr", "srwk")


def serve(backend, delay_s):
    """Start the loopback service on a free port; returns (server, thread)."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            time.sleep(delay_s)
            q = parse_qs(urlsplit(self.path).query)["q"][0]
            result = backend.search(build_query(re.findall(r'"([^"]*)"', q)))
            body = json.dumps({"hit_count": result.hit_count,
                               "snippets": [snippet_record(s) for s in result.snippets]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        # Eight clients connecting at once overflow the default listen backlog
        # of 5, and a refused connection retries after a one-second timeout.
        request_queue_size = 128

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def extract_once(workdir: Path, actors: Path, endpoint: str, variant: str, parallelism: int):
    """One cold run in a fresh process; returns (wall seconds, backend calls)."""
    cache = workdir / "cache.json"
    for stale in (cache, Path(f"{cache}.ledger")):
        stale.unlink(missing_ok=True)
    out = workdir / "network.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SNIPPETNET_API_ENDPOINT": endpoint}
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "snippetnet.cli", "extract", "--backend", "live", "--actors", str(actors),
         "--cache", str(cache), "--threshold", "0.1", "--variant", variant,
         "--parallelism", str(parallelism), "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - started
    report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
    return wall, report["backend_calls"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--delay-ms", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        actors, corpus = corpusgen.write(corpusgen.generate(perfbench_run.COLD_WIDE, args.seed), workdir)
        server, thread = serve(FixtureBackend(load_corpus(corpus)), args.delay_ms / 1000)
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/search"
        try:
            print("| variant | calls | " + " | ".join(f"p={p}" for p in PARALLELISM) + " |")
            print("|---|---|" + "---|" * len(PARALLELISM))
            for variant in VARIANTS:
                cells, calls = [], set()
                for parallelism in PARALLELISM:
                    runs = [extract_once(workdir, actors, endpoint, variant, parallelism) for _ in range(args.repeats)]
                    calls.update(paid for _, paid in runs)
                    cells.append(f"{statistics.median(wall for wall, _ in runs):.2f} s")
                print(f"| {variant} | {'/'.join(map(str, sorted(calls)))} | " + " | ".join(cells) + " |")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
