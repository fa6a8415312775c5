"""Command-line interface.

Three subcommands: extract runs the whole pipeline (detect, score, label,
build, export), keywords writes per-actor keyword sets, cache inspects or
clears the persistent query cache. Every flag is checked by the argument
parser, before any file is read. Exit codes: 0 success, 2 bad flags or
input files, 3 query budget exhausted (cache is preserved, rerun to resume),
4 backend failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .backends import FixtureBackend, LiveBackend
from .budget import BudgetLedger, read_ledger_state
from .cache import QueryCache, utc_now_iso
from .corpus import load_corpus
from .errors import BackendError, BudgetExhausted, ConfigError, SnippetNetError
from .gateway import SearchGateway
from .keywords import (
    classify_attribute,
    document_frequencies,
    extract_keywords,
    fetch_actor_context,
    load_keyword_overrides,
)
from .ioutil import atomic_write_bytes, atomic_write_json
from .labeling import MAX_LABELS, label_edge, usr
from .network import EXPORT_FORMATS, build_network, export
from .queries import build_query
from .relations import Actor, detect_all
from .strength import MEASURES, sr, sr_with_keywords

API_KEY_ENV = "SNIPPETNET_API_KEY"
API_ENDPOINT_ENV = "SNIPPETNET_API_ENDPOINT"


def _ledger_path(cache_path) -> Path:
    return Path(str(cache_path) + ".ledger")


def load_actors(path) -> list:
    """Plain text, one actor name per line; blank lines and '#' comments skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read actors file {path}: {exc}") from exc
    actors = []
    for number, line in enumerate(text.splitlines(), start=1):
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        try:
            build_query([name])  # every query about this actor must render unambiguously
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from exc
        actors.append(Actor(name))
    ids = [actor.id for actor in actors]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: actor names collapse to duplicate ids")
    return actors


def _open_state(args):
    """Build the gateway plus the fixture corpus behind it (empty for live)."""
    corpus = ()
    if args.backend == "fixture":
        corpus = load_corpus(args.corpus)
        backend = FixtureBackend(corpus)
    else:
        endpoint = os.environ.get(API_ENDPOINT_ENV)
        if not endpoint:
            raise ConfigError(f"live backend needs {API_ENDPOINT_ENV} set")
        backend = LiveBackend(endpoint, api_key=os.environ.get(API_KEY_ENV))
    try:
        cache = QueryCache.open(args.cache)
        ledger = BudgetLedger.open(args.daily_limit, _ledger_path(args.cache))
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    gateway = SearchGateway(backend, cache=cache, ledger=ledger)
    return gateway, corpus


def _rank_keywords(contexts: dict, corpus, k: int) -> dict:
    """Each actor's top-k (term, score) pairs, tf-idf against the corpus if there is one."""
    doc_freq = document_frequencies(corpus)
    return {
        actor_id: extract_keywords(snippets, doc_freq, len(corpus), k)
        for actor_id, (snippets, _) in contexts.items()
    }


def _keyword_overrides(path) -> dict:
    """The first term per actor in the override file, checked before any query is paid."""
    try:
        overrides = load_keyword_overrides(path)
        picked = {actor_id: terms[0] for actor_id, terms in overrides.items() if terms and terms[0].strip()}
        for term in picked.values():
            build_query([term])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read keywords file {path}: {exc}") from exc
    return picked


def cmd_extract(args) -> int:
    started = utc_now_iso()
    actors = load_actors(args.actors)
    if len(actors) < 2:
        raise ConfigError("need at least two actors")
    overrides = _keyword_overrides(args.keywords) if args.variant == "srwk" and args.keywords else None
    gateway, corpus = _open_state(args)
    by_id = {actor.id: actor for actor in actors}

    # Paid queries per stage: detection issues the pair queries, the context
    # stage the plain singletons, scoring the keyword queries (none for sr,
    # whose singletons the context stage already cached).
    evidence = detect_all(actors, gateway, parallelism=args.parallelism)
    doubleton_calls = gateway.stats.backend_calls
    detected = [item for item in evidence if item.detected]
    involved = sorted({actor_id for item in detected for actor_id in item.pair})
    contexts = {actor_id: fetch_actor_context(by_id[actor_id], gateway) for actor_id in involved}
    singleton_calls = gateway.stats.backend_calls - doubleton_calls

    keywords_by_actor: dict = {}
    if overrides is not None:
        keywords_by_actor = overrides
    elif args.variant == "srwk":
        ranked = _rank_keywords(contexts, corpus, 1)
        keywords_by_actor = {actor_id: terms[0][0] for actor_id, terms in ranked.items() if terms}

    scores: dict = {}
    usr_scores: dict = {}
    edge_labels: dict = {}
    for item in detected:
        a, b = by_id[item.pair[0]], by_id[item.pair[1]]
        kw_a = keywords_by_actor.get(a.id)
        kw_b = keywords_by_actor.get(b.id)
        if args.variant == "srwk" and kw_a and kw_b:
            score = sr_with_keywords(a, kw_a, b, kw_b, gateway, args.measure)
        else:
            # srwk falls back to the plain score when an actor yielded no
            # keyword; the variant field on the score says which one ran.
            score = sr(a, b, item, gateway, args.measure)
        scores[item.pair] = score
        usr_scores[item.pair] = usr(contexts[a.id][0], contexts[b.id][0])
        edge_labels[item.pair] = label_edge(item.l_ab, MAX_LABELS)

    provenance = {
        "backend": args.backend,
        "corpus": Path(args.corpus).name if args.corpus else None,
        "measure": args.measure,
        "variant": args.variant,
        "threshold": args.threshold,
        "generated_at": utc_now_iso(),
    }
    network = build_network(
        actors, evidence, scores, usr_scores, edge_labels,
        threshold=args.threshold, provenance=provenance,
    )
    atomic_write_bytes(args.out, export(network, args.format))

    if args.dump_evidence:
        lines = []
        for item in evidence:
            lines.append(
                json.dumps(
                    {
                        "pair": list(item.pair),
                        "doubleton_count": item.doubleton_count,
                        "detected": item.detected,
                        "snippets": [
                            {"url": s.url.render(), "title": s.title, "abstract": s.abstract}
                            for s in item.l_ab
                        ],
                    },
                    sort_keys=True,
                )
            )
        atomic_write_bytes(_evidence_path(args.out), ("\n".join(lines) + "\n").encode("utf-8"))

    total_calls = gateway.stats.backend_calls
    bound = 3 * len(actors) * len(actors)
    report = {
        "actors": len(actors),
        "pairs": len(evidence),
        "detected": len(detected),
        "edges": len(network.edges),
        "doubleton_queries": doubleton_calls,
        "singleton_queries": singleton_calls,
        "keyword_queries": total_calls - doubleton_calls - singleton_calls,
        "backend_calls": total_calls,
        "cache_hits": gateway.stats.cache_hits,
        "ledger": gateway.ledger.snapshot(),
        "bound_check": {
            "total_backend_calls": total_calls,
            "naive_query_bound": bound,
            "holds": total_calls < bound,
        },
        "started_at": started,
        "finished_at": utc_now_iso(),
    }
    atomic_write_json(_report_path(args.out), report)
    print(
        f"wrote {args.out}: {len(network.edges)} edges over {len(actors)} actors "
        f"({total_calls} backend calls, {gateway.stats.cache_hits} cache hits)"
    )
    return 0


def _report_path(output) -> str:
    return str(output) + ".report.json"


def _evidence_path(output) -> str:
    return str(output) + ".evidence.jsonl"


def cmd_keywords(args) -> int:
    actors = sorted(load_actors(args.actors), key=lambda a: a.id)
    if not actors:
        raise ConfigError("actors file lists nobody")
    gateway, corpus = _open_state(args)
    contexts = {actor.id: fetch_actor_context(actor, gateway) for actor in actors}
    ranked = _rank_keywords(contexts, corpus, args.top_k)
    payload = {
        actor.id: {
            "name": actor.name,
            "singleton_count": contexts[actor.id][1],
            "keywords": [
                {"term": term, "score": score, "kind": classify_attribute(term)}
                for term, score in ranked[actor.id]
            ],
        }
        for actor in actors
    }
    atomic_write_json(args.out, payload)
    print(f"wrote {args.out}: keyword sets for {len(actors)} actors")
    return 0


def cmd_cache(action: str, cache_path) -> int:
    if action == "stats":
        try:
            cache = QueryCache.open(cache_path)
            ledger_state = read_ledger_state(_ledger_path(cache_path))
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        print(json.dumps({"entries": len(cache), "ledger": ledger_state}, indent=2, sort_keys=True))
        return 0
    QueryCache(cache_path).clear()
    print(f"cleared {cache_path}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--actors", required=True, help="text file, one actor name per line")
    parser.add_argument("--backend", choices=("fixture", "live"), default="fixture")
    parser.add_argument("--corpus", help="JSON Lines corpus for the fixture backend")
    parser.add_argument("--daily-limit", type=positive_int, default=1000, help="query budget per UTC day")
    parser.add_argument("--cache", default="snippetnet-cache.json", help="persistent query cache path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snippetnet",
        description="Extract a labeled social network from search hit counts and snippets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="run the full extraction pipeline")
    _add_gateway_args(extract)
    extract.add_argument("--measure", choices=sorted(MEASURES), default="jaccard")
    extract.add_argument("--variant", choices=("sr", "srwk"), default="sr")
    extract.add_argument("--threshold", type=fraction, required=True,
                         help="minimum strength for an edge, in [0, 1]")
    extract.add_argument("--out", required=True, help="network output path")
    extract.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    extract.add_argument("--keywords", help="per-actor keyword override file (JSON)")
    extract.add_argument("--parallelism", type=positive_int, default=1)
    extract.add_argument("--dump-evidence", action="store_true",
                         help="also write per-pair evidence as JSON Lines")

    keywords = sub.add_parser("keywords", help="write per-actor keyword sets")
    _add_gateway_args(keywords)
    keywords.add_argument("--out", required=True, help="keyword sets output path")
    keywords.add_argument("--top-k", type=positive_int, default=10)

    cache = sub.add_parser("cache", help="inspect or clear the query cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache", required=True, help="persistent query cache path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "cache" and args.backend == "fixture" and not args.corpus:
            parser.error("argument --corpus: required with --backend fixture")
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "keywords":
            return cmd_keywords(args)
        return cmd_cache(args.action, Path(args.cache))
    except BudgetExhausted as exc:
        print(f"error: {exc} (cache preserved; rerun later to resume)", file=sys.stderr)
        return 3
    except BackendError as exc:
        print(f"error: search backend failed: {exc}", file=sys.stderr)
        return 4
    except (OSError, SnippetNetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
