"""Acceptance gate: ten end-to-end criteria, one test each.

Each test finishes by calling _report, which prints a single
"criterion NN PASS|FAIL  <what was checked>" line and then asserts, so a
verbose run shows one verdict per criterion either way.
"""

import random
import time

from conftest import make_gateway, mask_timestamps, read_json, scan_count, to_matrix
from corpusdata import ACTORS, no_cooccurrence_actors, no_cooccurrence_corpus, write_jsonl
from snippetnet.cache import QueryCache
from snippetnet.cli import extract, main
from snippetnet.corpus import load_corpus
from snippetnet.errors import BudgetExhausted
from snippetnet.labeling import label_edge, usr
from snippetnet.network import Edge, build_network
from snippetnet.relations import Actor, detect_all
from snippetnet.snippets import Snippet, parse_url
from snippetnet.strength import StrengthScore, clamp, dice, jaccard, overlap


def _report(number: int, ok: bool, what: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}  {what}")
    assert ok, f"criterion {number:02d}: {what}"


def _actor(name):
    return Actor(name=name)


def _extract(tmp_path, actors_file, corpus_file, out_name="network.json", **flags):
    argv = [
        "extract",
        "--actors", str(actors_file),
        "--corpus", str(corpus_file),
        "--cache", str(tmp_path / "cache.json"),
        "--threshold", flags.pop("threshold", "0.0"),
        "--out", str(tmp_path / out_name),
    ]
    for flag, value in flags.items():
        argv.extend(["--" + flag.replace("_", "-"), str(value)])
    return main(argv), tmp_path / out_name


def test_criterion_01_query_count_law(tmp_path, actors6_file, corpus20_file):
    started = time.monotonic()
    code, out = _extract(tmp_path, actors6_file, corpus20_file)
    elapsed = time.monotonic() - started
    report = read_json(str(out) + ".report.json")
    ok = (
        code == 0
        and report["doubleton_queries"] == 15
        and report["singleton_queries"] <= 6
        and report["backend_calls"] <= 21
        and report["backend_calls"] < 108
        and report["bound_check"]["naive_query_bound"] == 108
        and report["bound_check"]["holds"] is True
        and elapsed < 5.0
    )
    _report(
        1, ok,
        f"cold 6-actor run: {report['doubleton_queries']} doubleton + "
        f"{report['singleton_queries']} singleton queries, "
        f"{report['backend_calls']} backend calls (< 108) in {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence(tmp_path, actors6_file, corpus20_file, corpus20_rows):
    # independent oracle: exhaustive scan for the counts, plain arithmetic
    # for the measures; the weight extract writes for each detected pair
    # (every one is an edge at threshold 0) must equal it exactly, no tolerance
    by_id = {a.id: a for a in (_actor(name) for name in ACTORS)}
    checked = 0
    exact = True
    for measure in ("jaccard", "dice", "overlap"):
        code, out = _extract(tmp_path, actors6_file, corpus20_file, out_name=f"{measure}.json", measure=measure)
        exact = exact and code == 0
        for edge in read_json(out)["edges"] if code == 0 else []:
            a, b = (by_id[actor_id] for actor_id in edge["pair"])
            count_a = scan_count(corpus20_rows, [a.name])
            count_b = scan_count(corpus20_rows, [b.name])
            count_ab = min(scan_count(corpus20_rows, [a.name, b.name]), count_a, count_b)
            oracle = {
                "jaccard": count_ab / (count_a + count_b - count_ab),
                "dice": 2 * count_ab / (count_a + count_b),
                "overlap": count_ab / min(count_a, count_b),
            }
            exact = exact and edge["weight"]["value"] == oracle[measure]
            checked += 1
    ok = exact and checked == 6  # two detected pairs, three measures each
    _report(2, ok, f"{checked} pipeline scores equal the exhaustive-scan oracle exactly")


def test_criterion_03_rule1_soundness(gateway20):
    alice, bob = _actor("Alice Nguyen"), _actor("Bob Santos")
    farid, carol = _actor("Farid Omar"), _actor("Carol Reyes")
    cooccurring = detect_all([alice, bob], gateway20)[0]
    zero_doubleton = detect_all([alice, farid], gateway20)[0]
    beyond_window = detect_all([alice, carol], gateway20)[0]
    ok = (
        cooccurring.detected is True
        and zero_doubleton.detected is False
        and zero_doubleton.doubleton_count == 0
        and beyond_window.detected is False
        and beyond_window.doubleton_count > 0
    )
    _report(
        3, ok,
        "detected flags true/false/false for co-occurring, zero-doubleton, "
        "and beyond-abstract-window pairs",
    )


def test_criterion_04_clamp_and_range_invariants():
    rng = random.Random(0xACC4)
    violations = 0
    trials = 10_000
    for _ in range(trials):
        sa, sb = rng.randint(0, 100_000), rng.randint(0, 100_000)
        d = rng.randint(0, 150_000)
        counts, swapped = clamp(sa, sb, d), clamp(sb, sa, d)
        j, s, o = jaccard(*counts), dice(*counts), overlap(*counts)
        if not (0.0 <= j <= s <= o <= 1.0):
            violations += 1
        elif (j, s, o) != (jaccard(*swapped), dice(*swapped), overlap(*swapped)):
            violations += 1
    _report(4, violations == 0, f"{trials} random triples, {violations} invariant violations")


def test_criterion_05_threshold_monotonicity(corpus20):
    actors = [_actor(name) for name in ACTORS]
    gateway = make_gateway(corpus20)
    nets = [extract(actors, gateway, threshold=t)[0] for t in (0.0, 0.2, 0.5, 1.0)]
    edge_sets = [{e.pair for e in net.edges} for net in nets]
    nested = all(edge_sets[i + 1] <= edge_sets[i] for i in range(len(nets) - 1))
    constant_nodes = len({tuple(n.id for n in net.nodes) for net in nets}) == 1
    sizes = [len(s) for s in edge_sets]
    ok = nested and constant_nodes and sizes == sorted(sizes, reverse=True)
    _report(
        5, ok,
        f"edge sets of sizes {sizes} nest as thresholds rise; node set constant",
    )


def test_criterion_06_cache_idempotence_and_resume(tmp_path, actors6_file, corpus20_file):
    # idempotence: an identical second run buys nothing and emits the same bytes
    twice = tmp_path / "twice"
    twice.mkdir()
    code1, out = _extract(twice, actors6_file, corpus20_file)
    first = mask_timestamps(out.read_text(encoding="utf-8"))
    code2, out = _extract(twice, actors6_file, corpus20_file)
    second = mask_timestamps(out.read_text(encoding="utf-8"))
    rerun_report = read_json(str(out) + ".report.json")
    idempotent = code1 == code2 == 0 and first == second and rerun_report["backend_calls"] == 0

    # resume: exhaust at daily_limit=5, rerun unlimited, compare to a clean run
    broke = tmp_path / "broke"
    clean = tmp_path / "clean"
    broke.mkdir()
    clean.mkdir()
    code3, _ = _extract(broke, actors6_file, corpus20_file, daily_limit="5")
    code4, resumed_out = _extract(broke, actors6_file, corpus20_file)
    code5, clean_out = _extract(clean, actors6_file, corpus20_file)
    resumed = mask_timestamps(resumed_out.read_text(encoding="utf-8"))
    uninterrupted = mask_timestamps(clean_out.read_text(encoding="utf-8"))
    resumable = code3 == 3 and code4 == 0 and code5 == 0 and resumed == uninterrupted

    _report(
        6, idempotent and resumable,
        "rerun made 0 backend calls with byte-identical output (timestamps masked); "
        "interrupted-at-5 then resumed equals uninterrupted",
    )


def test_criterion_07_budget_enforcement(tmp_path):
    corpus_file = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_file, no_cooccurrence_corpus())
    actors = [_actor(name) for name in no_cooccurrence_actors()]
    cache_path = tmp_path / "cache.json"
    gateway = make_gateway(load_corpus(corpus_file), daily_limit=10, cache_path=cache_path)
    raised = False
    try:
        detect_all(actors, gateway)  # needs 15 doubleton queries
    except BudgetExhausted:
        raised = True
    persisted = QueryCache.open(cache_path)
    ok = raised and gateway.backend_calls == 10 and len(persisted) == 10
    _report(
        7, ok,
        f"11th uncached query raised BudgetExhausted; {len(persisted)} cache entries persisted",
    )


def test_criterion_08_matrix_consistency():
    rng = random.Random(0xACC8)
    networks = 0
    consistent = True
    no_usr, no_labels = usr([], []), label_edge([], ())
    for _ in range(100):
        n = rng.randint(2, 8)
        actors = [Actor(name=f"Person {chr(65 + i)}") for i in range(n)]
        ids = sorted(a.id for a in actors)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                count = rng.choice([0, 0, 1, 4])
                pair = tuple(sorted((actors[i].id, actors[j].id)))
                if count > 0:
                    weight = StrengthScore(value=rng.random(), measure="jaccard", variant="sr")
                    edges.append(Edge(pair, weight, no_usr, no_labels, count))
        net = build_network(actors, edges)
        matrix = to_matrix(net)
        networks += 1
        size = len(matrix.order)
        symmetric = all(
            matrix.cells[i][j] == matrix.cells[j][i] for i in range(size) for j in range(size)
        )
        zero_diagonal = all(matrix.cells[i][i] == 0 for i in range(size))
        ones = {
            (matrix.order[i], matrix.order[j])
            for i in range(size)
            for j in range(i + 1, size)
            if matrix.cells[i][j] == 1
        }
        if not (symmetric and zero_diagonal and matrix.order == tuple(ids)
                and ones == {e.pair for e in net.edges}):
            consistent = False
    _report(8, consistent and networks == 100, f"{networks} randomized networks, matrices consistent")


URL_ROUND_TRIPS = [
    ("http://www.example.com/a/b", "http://www.example.com/a/b"),
    ("http://example.com", "http://example.com"),
    ("https://uni.ac.id", "https://uni.ac.id"),
    ("HTTP://WWW.EXAMPLE.COM/a/b", "http://www.example.com/a/b"),
    ("http://Example.Com/Mixed/Case", "http://example.com/Mixed/Case"),
    ("http://example.com/a/b/", "http://example.com/a/b"),
    ("http://example.com//double//slash", "http://example.com/double/slash"),
    ("http://example.com/a?q=1", "http://example.com/a"),
    ("http://example.com/a#frag", "http://example.com/a"),
    ("http://example.com/a?q=1#frag", "http://example.com/a"),
    ("http://example.com/a#frag?fake", "http://example.com/a"),
    ("http://example.com:8080/a", "http://example.com/a"),
    ("http://localhost:3000", "http://localhost"),
    ("https://news.bbc.co.uk/world/asia", "https://news.bbc.co.uk/world/asia"),
    ("http://deep.sub.domain.example.org/x", "http://deep.sub.domain.example.org/x"),
    ("ftp://files.example.net/pub/data.txt", "ftp://files.example.net/pub/data.txt"),
    ("http://user@example.com/a", "http://example.com/a"),
    ("http://example.com/papers/graph-mining", "http://example.com/papers/graph-mining"),
    ("http://example.com/%7Euser/page", "http://example.com/%7Euser/page"),
    ("http://trailing.dot.example.com./a", "http://trailing.dot.example.com/a"),
]


def test_criterion_09_url_grammar_round_trip():
    failures = []
    for raw, normalized in URL_ROUND_TRIPS:
        tokens = parse_url(raw)
        if tokens.render() != normalized:
            failures.append((raw, tokens.render(), normalized))
            continue
        if parse_url(normalized) != tokens:  # normalized form is a fixed point
            failures.append((raw, "reparse mismatch", normalized))
    ok = not failures and len(URL_ROUND_TRIPS) == 20
    _report(
        9, ok,
        f"20 URLs parse and re-render exactly"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_10_usr_and_labeling():
    def snip(url):
        return Snippet(url=parse_url(url), title="", abstract="")

    same = [snip("http://a.com/x"), snip("http://b.org/y")]
    also_same = [snip("http://a.com/z"), snip("http://b.org")]
    disjoint = [snip("http://c.net/1")]

    rng = random.Random(0xACC10)
    hosts = [f"http://h{i}.com/p" for i in range(6)]
    symmetric = True
    in_range = True
    for _ in range(200):
        l_a = [snip(u) for u in rng.sample(hosts, rng.randint(0, 4))]
        l_b = [snip(u) for u in rng.sample(hosts, rng.randint(0, 4))]
        forward, backward = usr(l_a, l_b), usr(l_b, l_a)
        symmetric = symmetric and forward == backward
        in_range = in_range and 0.0 <= forward.value <= 1.0

    documented = label_edge(
        [snip("http://conf.example.com/papers/graph-mining"), snip("http://www.example.com/papers/2010")], ()
    )
    ok = (
        in_range
        and symmetric
        and usr(same, also_same).value == 1.0
        and usr(same, disjoint).value == 0.0
        and documented.labels[0] == ("papers", 2)
    )
    _report(
        10, ok,
        "usr in range and symmetric, 1.0/0.0 extremes; "
        f"documented evidence labels to {documented.labels[0]!r}",
    )
