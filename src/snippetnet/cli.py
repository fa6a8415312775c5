"""Command-line interface.

Three subcommands: extract runs the whole pipeline (detect, score, label,
build, export), keywords writes per-actor keyword sets, cache inspects or
clears the persistent query cache. Exit codes: 0 success, 2 configuration
problems, 3 query budget exhausted (cache is preserved, rerun to resume),
4 backend failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .backends import FixtureBackend, LiveBackend
from .budget import BudgetLedger, read_ledger_state
from .cache import QueryCache
from .corpus import load_corpus
from .errors import (
    BackendError,
    BudgetExhausted,
    ConfigError,
    CorpusError,
    SnippetNetError,
)
from .gateway import DEFAULT_PAGE_SIZE, SearchGateway
from .keywords import (
    classify_attribute,
    document_frequencies,
    extract_keywords,
    fetch_actor_context,
    load_keyword_overrides,
)
from .ioutil import atomic_write_bytes, atomic_write_text
from .labeling import label_edge, usr
from .network import EXPORT_FORMATS, build_network, export
from .relations import Actor, detect_all
from .strength import MEASURES, sr, sr_with_keywords

API_KEY_ENV = "SNIPPETNET_API_KEY"
API_ENDPOINT_ENV = "SNIPPETNET_API_ENDPOINT"

# How many candidate keywords to rank per actor when none are supplied;
# only the top one feeds the keyword-augmented queries.
AUTO_KEYWORD_CANDIDATES = 5


@dataclass
class RunConfig:
    actors_file: str
    backend: str = "fixture"
    corpus_file: str | None = None
    measure: str = "jaccard"
    variant: str = "sr"
    threshold: float = 0.0
    daily_limit: int = 1000
    page_size: int = DEFAULT_PAGE_SIZE
    cache_path: str = "snippetnet-cache.json"
    output: str = "network.json"
    output_format: str = "json"
    keywords_file: str | None = None
    max_labels: int = 5
    parallelism: int = 1
    dump_evidence: bool = False


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _ledger_path(cache_path) -> Path:
    return Path(str(cache_path) + ".ledger")


def load_actors(path) -> list:
    """Plain text, one actor name per line; blank lines and '#' comments skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read actors file: {exc}") from exc
    actors = []
    for line in text.splitlines():
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        actors.append(Actor(name))
    ids = [actor.id for actor in actors]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: actor names collapse to duplicate ids")
    return actors


def _open_state(config: RunConfig):
    """Build the gateway plus the fixture corpus behind it (None for live)."""
    if config.daily_limit < 1:
        raise ConfigError("daily limit must be >= 1")
    if config.page_size < 1:
        raise ConfigError("page size must be >= 1")
    if config.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    corpus = None
    if config.backend == "fixture":
        if not config.corpus_file:
            raise ConfigError("fixture backend needs --corpus")
        corpus = load_corpus(config.corpus_file)
        backend = FixtureBackend(corpus)
    elif config.backend == "live":
        endpoint = os.environ.get(API_ENDPOINT_ENV)
        if not endpoint:
            raise ConfigError(f"live backend needs {API_ENDPOINT_ENV} set")
        backend = LiveBackend(endpoint, api_key=os.environ.get(API_KEY_ENV))
    else:
        raise ConfigError(f"unknown backend {config.backend!r}")
    try:
        cache = QueryCache.open(config.cache_path)
        ledger = BudgetLedger.open(config.daily_limit, _ledger_path(config.cache_path))
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    gateway = SearchGateway(backend, cache=cache, ledger=ledger, page_size=config.page_size)
    return gateway, corpus


def _pick_keywords(config: RunConfig, involved, contexts, corpus) -> dict:
    """One keyword per involved actor: from the override file, or extracted."""
    if config.keywords_file:
        try:
            overrides = load_keyword_overrides(config.keywords_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read keywords file: {exc}") from exc
        return {
            actor_id: terms[0]
            for actor_id, terms in overrides.items()
            if terms and str(terms[0]).strip()
        }
    doc_freq = document_frequencies(corpus) if corpus is not None else {}
    universe = corpus.universe_size if corpus is not None else 0
    chosen: dict = {}
    for actor_id in involved:
        snippets, hit_count = contexts[actor_id]
        keyword_set = extract_keywords(
            snippets, doc_freq, universe, AUTO_KEYWORD_CANDIDATES,
            actor_id=actor_id, singleton_count=hit_count,
        )
        if keyword_set.keywords:
            chosen[actor_id] = keyword_set.keywords[0][0]
    return chosen


def cmd_extract(config: RunConfig) -> int:
    started = _utc_now()
    if not 0.0 <= config.threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {config.threshold}")
    if config.measure not in MEASURES:
        raise ConfigError(f"unknown measure {config.measure!r}")
    if config.variant not in ("sr", "srwk"):
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.output_format not in EXPORT_FORMATS:
        raise ConfigError(f"unknown format {config.output_format!r}")
    if config.max_labels < 1:
        raise ConfigError("max labels must be >= 1")
    actors = load_actors(config.actors_file)
    if len(actors) < 2:
        raise ConfigError("need at least two actors")
    gateway, corpus = _open_state(config)
    by_id = {actor.id: actor for actor in actors}

    evidence = detect_all(actors, gateway, parallelism=config.parallelism)
    detected = [item for item in evidence if item.detected]
    involved = sorted({actor_id for item in detected for actor_id in item.pair})
    contexts = {actor_id: fetch_actor_context(by_id[actor_id], gateway) for actor_id in involved}

    keywords_by_actor: dict = {}
    if config.variant == "srwk":
        keywords_by_actor = _pick_keywords(config, involved, contexts, corpus)

    scores: dict = {}
    usr_scores: dict = {}
    edge_labels: dict = {}
    for item in detected:
        a, b = by_id[item.pair[0]], by_id[item.pair[1]]
        kw_a = keywords_by_actor.get(a.id)
        kw_b = keywords_by_actor.get(b.id)
        if config.variant == "srwk" and kw_a and kw_b:
            score = sr_with_keywords(a, kw_a, b, kw_b, gateway, config.measure)
        else:
            # srwk falls back to the plain score when an actor yielded no
            # keyword; the variant field on the score says which one ran.
            score = sr(a, b, item, gateway, config.measure)
        scores[item.pair] = score
        usr_scores[item.pair] = usr(contexts[a.id][0], contexts[b.id][0])
        edge_labels[item.pair] = label_edge(item.l_ab, config.max_labels)

    provenance = {
        "backend": config.backend,
        "corpus": Path(config.corpus_file).name if config.corpus_file else None,
        "measure": config.measure,
        "variant": config.variant,
        "threshold": config.threshold,
        "generated_at": _utc_now(),
    }
    network = build_network(
        actors, evidence, scores, usr_scores, edge_labels,
        threshold=config.threshold, provenance=provenance,
    )
    atomic_write_bytes(config.output, export(network, config.output_format))

    if config.dump_evidence:
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
        atomic_write_text(_evidence_path(config.output), "\n".join(lines) + "\n")

    total_calls = gateway.stats.backend_calls
    bound = 3 * len(actors) * len(actors)
    report = {
        "actors": len(actors),
        "pairs": len(evidence),
        "detected": len(detected),
        "edges": len(network.edges),
        "singleton_queries": gateway.stats.singleton_queries,
        "doubleton_queries": gateway.stats.doubleton_queries,
        "backend_calls": total_calls,
        "cache_hits": gateway.stats.cache_hits,
        "ledger": gateway.ledger.snapshot(),
        "bound_check": {
            "total_backend_calls": total_calls,
            "naive_query_bound": bound,
            "holds": total_calls < bound,
        },
        "started_at": started,
        "finished_at": _utc_now(),
    }
    atomic_write_text(_report_path(config.output), json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {config.output}: {len(network.edges)} edges over {len(actors)} actors "
        f"({total_calls} backend calls, {gateway.stats.cache_hits} cache hits)"
    )
    return 0


def _report_path(output) -> str:
    return str(output) + ".report.json"


def _evidence_path(output) -> str:
    return str(output) + ".evidence.jsonl"


def cmd_keywords(config: RunConfig, top_k: int, out_path) -> int:
    if top_k < 1:
        raise ConfigError("top-k must be >= 1")
    actors = load_actors(config.actors_file)
    if not actors:
        raise ConfigError("actors file lists nobody")
    gateway, corpus = _open_state(config)
    doc_freq = document_frequencies(corpus) if corpus is not None else {}
    universe = corpus.universe_size if corpus is not None else 0
    payload: dict = {}
    for actor in sorted(actors, key=lambda a: a.id):
        snippets, hit_count = fetch_actor_context(actor, gateway)
        keyword_set = extract_keywords(
            snippets, doc_freq, universe, top_k,
            actor_id=actor.id, singleton_count=hit_count,
        )
        payload[actor.id] = {
            "name": actor.name,
            "singleton_count": keyword_set.singleton_count,
            "keywords": [
                {"term": term, "score": score, "kind": classify_attribute(term).kind}
                for term, score in keyword_set.keywords
            ],
        }
    atomic_write_text(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}: keyword sets for {len(actors)} actors")
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
    if action == "clear":
        QueryCache(cache_path).clear()
        print(f"cleared {cache_path}")
        return 0
    raise ConfigError(f"unknown cache action {action!r}")


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--actors", required=True, help="text file, one actor name per line")
    parser.add_argument("--backend", choices=("fixture", "live"), default="fixture")
    parser.add_argument("--corpus", help="JSON Lines corpus for the fixture backend")
    parser.add_argument("--daily-limit", type=int, default=1000, help="query budget per UTC day")
    parser.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
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
    extract.add_argument("--threshold", type=float, required=True,
                         help="minimum strength for an edge, in [0, 1]")
    extract.add_argument("--out", required=True, help="network output path")
    extract.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    extract.add_argument("--keywords", help="per-actor keyword override file (JSON)")
    extract.add_argument("--max-labels", type=int, default=5)
    extract.add_argument("--parallelism", type=int, default=1)
    extract.add_argument("--dump-evidence", action="store_true",
                         help="also write per-pair evidence as JSON Lines")

    keywords = sub.add_parser("keywords", help="write per-actor keyword sets")
    _add_gateway_args(keywords)
    keywords.add_argument("--out", required=True, help="keyword sets output path")
    keywords.add_argument("--top-k", type=int, default=10)

    cache = sub.add_parser("cache", help="inspect or clear the query cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache", required=True, help="persistent query cache path")
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        actors_file=args.actors,
        backend=args.backend,
        corpus_file=args.corpus,
        measure=getattr(args, "measure", "jaccard"),
        variant=getattr(args, "variant", "sr"),
        threshold=getattr(args, "threshold", 0.0),
        daily_limit=args.daily_limit,
        page_size=args.page_size,
        cache_path=args.cache,
        output=getattr(args, "out", "network.json"),
        output_format=getattr(args, "format", "json"),
        keywords_file=getattr(args, "keywords", None),
        max_labels=getattr(args, "max_labels", 5),
        parallelism=getattr(args, "parallelism", 1),
        dump_evidence=getattr(args, "dump_evidence", False),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            return cmd_extract(_config_from_args(args))
        if args.command == "keywords":
            return cmd_keywords(_config_from_args(args), top_k=args.top_k, out_path=args.out)
        if args.command == "cache":
            return cmd_cache(args.action, Path(args.cache))
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"error: {exc} (cache preserved; rerun later to resume)", file=sys.stderr)
        return 3
    except BackendError as exc:
        print(f"error: search backend failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SnippetNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
