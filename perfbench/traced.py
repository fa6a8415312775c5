"""Run ``snippetnet.cli.main(argv)`` with a span around every call into each layer.

Usage: python3 perfbench/traced.py SPANS_OUT RUN_ID <snippetnet arguments...>

Before main runs, the public callables in HOOKS are wrapped from outside:
class methods in place on their class, module functions in every snippetnet
module that holds them (so ``snippetnet.cli``'s imported names are covered).
Each call records [layer, start, end, parent span index, thread id]; the
parent comes from a per-thread stack. Spans stay in memory and are written
to SPANS_OUT as JSON when the run ends, with the run id, the process's
/proc/self/io write count and the hooks that could not be found. A hook that
a later version renames or removes is reported as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (layer span name, module, attribute path)
HOOKS = (
    ("cache.open", "snippetnet.cache", "QueryCache.open"),
    ("cache.store", "snippetnet.cache", "QueryCache.store"),
    ("budget.charge", "snippetnet.budget", "BudgetLedger.charge"),
    ("gateway.execute", "snippetnet.gateway", "SearchGateway.execute"),
    ("backends.search", "snippetnet.backends", "FixtureBackend.search"),
    ("ioutil.atomic_write", "snippetnet.ioutil", "atomic_write_bytes"),
    ("cli.extract", "snippetnet.cli", "cmd_extract"),
    ("corpus.load", "snippetnet.cli", "load_corpus"),
    ("relations.detect_all", "snippetnet.cli", "detect_all"),
    ("keywords.context", "snippetnet.cli", "fetch_actor_context"),
    ("keywords.doc_freq", "snippetnet.cli", "document_frequencies"),
    ("keywords.extract", "snippetnet.cli", "extract_keywords"),
    ("strength.score", "snippetnet.cli", "sr"),
    ("strength.score", "snippetnet.cli", "sr_with_keywords"),
    ("labeling.usr", "snippetnet.cli", "usr"),
    ("labeling.label", "snippetnet.cli", "label_edge"),
    ("network.build", "snippetnet.cli", "build_network"),
    ("network.export", "snippetnet.cli", "export"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer, fn):
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [layer, time.perf_counter(), None, stack[-1] if stack else -1, threading.get_ident()]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self, hooks=HOOKS) -> list:
        """Wrap every hook that resolves; returns the 'module:path' of those that do not."""
        absent = []
        for layer, module_name, path in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self.wrap(layer, raw.__func__)))
                elif callable(raw):
                    setattr(owner, attr, self.wrap(layer, raw))
                else:
                    absent.append(f"{module_name}:{path}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                absent.append(f"{module_name}:{path}")
                continue
            wrapped = self.wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "snippetnet" or name.startswith("snippetnet.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
        return absent


def _written_bytes():
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key == "wchar":
                    return int(value)
    except OSError:
        pass
    return None


def main(argv) -> int:
    spans_out, run_id, cli_args = argv[0], argv[1], argv[2:]
    import snippetnet.cli

    tracer = Tracer()
    absent = tracer.install()
    code = 1
    try:
        code = snippetnet.cli.main(cli_args)
    finally:
        written = _written_bytes()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"run_id": run_id, "absent": absent, "wchar": written, "spans": tracer.spans},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
