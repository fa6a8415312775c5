"""Benchmark for snippetnet extract: seeded corpora, real commands, checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program under test is ``src/snippetnet``.
Set-up generates the workload's corpus from the seed (and, for warm-sweep,
primes a query cache with one cold run). The measured part is a closed loop
with one client: the workload's pass (a fixed list of ``snippetnet extract``
commands, each a fresh interpreter whose CPU seconds, peak RSS and wall time
from spawn to exit are recorded) repeats until ``--seconds`` have gone by.
Every command's outputs are checked by ``oracle.py``, which does not import
snippetnet. perfbench/README.md explains the workloads and metrics.

With ``--trace 0`` the result line carries the end-to-end metrics, as
medians over passes. With ``--trace 1`` traced passes (commands run through
``traced.py``) alternate with untraced ones and the result line carries the
per-layer metrics, as medians over the traced passes. The last line of
standard output is always the JSON result; the lines before it are a
readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpusgen
import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
# High enough that no workload ever meets the per-day query budget.
DAILY_LIMIT = 10_000_000
COMMAND_TIMEOUT_S = 150
PRIME_REPEATS = 3


@dataclass(frozen=True)
class Command:
    out: str
    measure: str = "jaccard"
    variant: str = "sr"
    threshold: float = 0.0
    fmt: str = "json"
    parallelism: int = 1


@dataclass(frozen=True)
class Workload:
    shape: corpusgen.Shape
    commands: tuple  # one pass
    warm: bool  # set-up primes the cache; measured commands must pay nothing


# Many pair queries over a mid-sized corpus: per-query cache persistence
# and the ledger dominate.
COLD_WIDE = corpusgen.Shape(
    community_sizes=(8, 7, 6, 5),
    isolates=6,
    documents=800,
    detected_per_community=(18, 14, 11, 8),
    hit_only_pairs=80,
    solo_docs_per_actor=10,
    docs_per_detected_pair=3,
    docs_per_hit_only_pair=1,
)
# Few queries over a large corpus: the search backend dominates.
DEEP = corpusgen.Shape(
    community_sizes=(4, 4, 3),
    isolates=1,
    documents=6000,
    detected_per_community=(5, 5, 3),
    hit_only_pairs=15,
    solo_docs_per_actor=80,
    docs_per_detected_pair=4,
    docs_per_hit_only_pair=2,
)
# The smallest size, for the smoke test in perfbench/tests.
SMOKE = corpusgen.Shape(
    community_sizes=(3, 2),
    isolates=1,
    documents=60,
    detected_per_community=(3, 1),
    hit_only_pairs=3,
    solo_docs_per_actor=4,
    docs_per_detected_pair=2,
    docs_per_hit_only_pair=1,
)

SWEEP = tuple(
    Command(f"sweep-{threshold}-{measure}.{fmt}", measure=measure, threshold=threshold, fmt=fmt)
    for threshold in (0.0, 0.1, 0.3)
    for fmt in ("json", "dot", "graphml")
    for measure in ("jaccard", "dice", "overlap")
)

# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "cold-wide": Workload(COLD_WIDE, (Command("cold.json"),), warm=False),
    "deep-srwk": Workload(DEEP, (Command("deep.json", variant="srwk", parallelism=2),), warm=False),
    "warm-sweep": Workload(COLD_WIDE, SWEEP, warm=True),
}
PRIME = Command("prime.json")


@dataclass
class CommandResult:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    backend_calls: int
    report: dict
    trace: dict | None


class Runner:
    """Runs and checks commands inside one work directory, counting failures."""

    def __init__(self, workdir: Path, actors: Path, corpus: Path, expected):
        self.workdir = workdir
        self.actors = actors
        self.corpus = corpus
        self.expected = expected
        self.cache = workdir / "cache.json"
        self.ledger = workdir / "cache.json.ledger"
        self.issued = 0  # the ledger's total_issued after the last command
        self.reference = {}  # output name -> masked bytes of its first run
        self.attempted = 0
        self.failures = []  # one list of mismatch messages per failed command

    def reset_cache(self) -> None:
        for path in self.workdir.glob("cache.json*"):
            path.unlink()
        self.issued = 0

    def run(self, command: Command, traced: bool, warm: bool) -> CommandResult:
        self.attempted += 1
        out = self.workdir / command.out
        args = [
            "extract", "--actors", str(self.actors), "--corpus", str(self.corpus),
            "--cache", str(self.cache), "--daily-limit", str(DAILY_LIMIT),
            "--measure", command.measure, "--variant", command.variant,
            "--threshold", repr(command.threshold), "--format", command.fmt,
            "--parallelism", str(command.parallelism), "--out", str(out), "--dump-evidence",
        ]
        spans = self.workdir / f"spans-{self.attempted}.json"
        peak = self.workdir / "peak-rss-kb.txt"
        peak.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(TRACED), str(spans), str(self.attempted), *args]
        else:
            argv = [sys.executable, str(LAUNCH), str(peak), *args]
        code, wall, usage = _spawn(argv, self.workdir / "stdout.txt", self.workdir / "stderr.txt")
        report = {}
        if code != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            errors = [f"exit code {code}: {' '.join(tail)}"]
        else:
            errors, report = self._check(command, out, warm)
        if errors:
            self.failures.append(errors)
        # The next command's base comes from the ledger file itself, so that a
        # command which failed before reporting still moves it.
        self.issued = self._ledger_total()
        trace = None
        if traced and spans.exists():
            trace = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        # Peak RSS comes from launch.py (untraced commands only); the rusage
        # maxrss is the fallback where /proc gives no VmHWM.
        peak_kb = peak.read_text(encoding="ascii").strip() if peak.exists() else "None"
        return CommandResult(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=(usage.ru_maxrss if peak_kb == "None" else int(peak_kb)) * 1024 / 1e6,
            backend_calls=int(report.get("backend_calls", 0)),
            report=report,
            trace=trace,
        )

    def _check(self, command: Command, out: Path, warm: bool):
        """(mismatches, report) for one finished command."""
        try:
            network = out.read_bytes()
            evidence = Path(f"{out}.evidence.jsonl").read_bytes()
            report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"cannot read outputs: {exc}"], {}
        errors = self.expected.check_report(report, self.issued, command.variant, warm)
        errors += self.expected.check_evidence(evidence.decode("utf-8"))
        errors += self.expected.check_network(
            network, command.fmt, command.measure, command.threshold, command.variant
        )
        masked = oracle.mask_timestamps(network) + b"\0" + evidence
        first = self.reference.setdefault(command.out, masked)
        if masked != first:
            errors.append(f"{command.out}: bytes differ from an earlier run of the same config")
        return errors, report

    def _ledger_total(self) -> int:
        try:
            return int(json.loads(self.ledger.read_text(encoding="utf-8"))["total_issued"])
        except (OSError, ValueError, KeyError, TypeError):
            return 0


def _spawn(argv, stdout_path: Path, stderr_path: Path):
    """Run argv to completion; (exit code, wall seconds from spawn to exit, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=str(ROOT))
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snippetnet" / "cli.py").is_file():
        print(f"error: no snippetnet sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _generate(shape, seed: int, into: Path):
    """(corpus, actors path, documents path, CPU seconds to generate and write)."""
    gc.collect()
    started = time.process_time()
    corpus = corpusgen.generate(shape, seed)
    actors, docs = corpusgen.write(corpus, into)
    return corpus, actors, docs, time.process_time() - started


def _run(args, workload: Workload, workdir: Path) -> int:
    # Compile the package's bytecode once, as an installed package would have.
    code, _, _ = _spawn([sys.executable, "-c", "import snippetnet.cli"],
                        workdir / "stdout.txt", workdir / "stderr.txt")
    if code != 0:
        print("error: snippetnet does not import", file=sys.stderr)
        return 2

    # Set-up is timed in CPU seconds: the median corpus generation plus, for
    # warm-sweep, the median of PRIME_REPEATS cold priming runs. The machine's
    # speed drifts for seconds at a time, so generation is repeated after
    # every pass (into a spare directory; the same seed gives the same corpus)
    # and its samples span the whole run rather than one moment of it.
    corpus, actors, docs, generate_s = _generate(workload.shape, args.seed, workdir)
    generate_times = [generate_s]
    spare = workdir / "regenerated"
    spare.mkdir()
    expected = oracle.Expected(corpus.names, corpus.documents)
    runner = Runner(workdir, actors, docs, expected)
    prime_times = [0.0]
    prime_calls = 0
    if workload.warm:
        prime_times = []
        for _ in range(PRIME_REPEATS):
            runner.reset_cache()
            prime = runner.run(PRIME, traced=False, warm=False)
            prime_times.append(prime.cpu_s)
            prime_calls = prime.backend_calls

    passes = {False: [], True: []}  # traced? -> passes, each a list of CommandResult
    started = time.perf_counter()
    traced = False
    while (time.perf_counter() - started < args.seconds or not passes[False]
           or (args.trace and not passes[True])):
        if not workload.warm:
            runner.reset_cache()
        passes[traced].append([runner.run(command, traced, workload.warm) for command in workload.commands])
        traced = bool(args.trace) and not traced
        generate_times.append(_generate(workload.shape, args.seed, spare)[3])

    setup_s = statistics.median(generate_times) + statistics.median(prime_times)
    walls = {kind: [sum(r.wall_s for r in p) for p in runs] for kind, runs in passes.items()}
    cpus = [sum(r.cpu_s for r in p) for p in passes[False]]
    calls = prime_calls + statistics.median([sum(r.backend_calls for r in p) for p in passes[False]])
    print(
        f"workload {args.workload} seed {args.seed}: n={len(corpus.names)} D={len(corpus.documents)} "
        f"Q={calls:.0f} detected={len(expected.detected)}/{expected.pair_count} "
        f"({len(expected.detected) / expected.pair_count:.3f}); {len(workload.commands)} command(s) a pass"
    )
    print(f"  untraced pass cpu (s): {' '.join(f'{c:.3f}' for c in cpus)}")
    print(f"  corpus generation cpu (s): {' '.join(f'{g:.3f}' for g in generate_times)}")
    for kind, label in ((False, "untraced"), (True, "traced")):
        if walls[kind]:
            print(f"  {label} pass wall (s): {' '.join(f'{w:.3f}' for w in walls[kind])}")
    print(f"  wall_s = {statistics.median(walls[False]):.6g} s (median untraced pass; not gated, see README)")
    if args.trace:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        per_pass = [layers.pass_metrics(p, overhead) for p in passes[True]]
        metrics = {
            name: {"value": statistics.median([m[name] for m in per_pass]), "unit": unit}
            for name, unit in layers.UNITS.items()
        }
        absent = sorted({hook for p in passes[True] for r in p if r.trace for hook in r.trace["absent"]})
        print(f"  absent hooks (their layers read 0): {', '.join(absent) or 'none'}")
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "backend_calls": {"value": calls, "unit": "count"},
            "peak_rss_mb": {"value": statistics.median([max(r.maxrss_mb for r in p) for p in passes[False]]), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    failed = len(runner.failures)
    print(f"  error_rate = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} commands failed)")
    for errors in runner.failures[:5]:
        print(f"  failure: {'; '.join(errors)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
