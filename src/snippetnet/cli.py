"""Command-line interface, and extract, the one pipeline behind it.

extract runs every stage (detect, fetch contexts, choose srwk keywords,
score, annotate, build), for the extract subcommand and for library code,
which imports it from here: the package itself does not import this module.
cmd_extract reads the input files, opens the cache and ledger, calls extract
and writes the network, evidence and report. keywords writes per-actor
keyword sets, cache inspects or clears the persistent query cache. Every
flag is checked by the argument parser, before any file is read. Exit codes:
0 success, 2 bad flags or input files, 3 query budget exhausted (cache is
preserved, rerun to resume), 4 backend failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .backends import FixtureBackend, LiveBackend
from .budget import BudgetLedger, read_ledger_state
from .cache import QueryCache
from .corpus import load_corpus
from .errors import BackendError, BudgetExhausted, ConfigError, SnippetNetError
from .gateway import SearchGateway
from .keywords import document_frequencies, extract_keywords, fetch_actor_context, load_keyword_overrides
from .ioutil import atomic_write_bytes, json_bytes
from .labeling import label_edge, usr
from .network import EXPORT_FORMATS, Edge, build_network, export
from .queries import build_query
from .relations import Actor, detect_all
from .snippets import snippet_record
from .strength import MEASURES, sr, sr_with_keywords
from .text import STOPWORDS, tokenize

API_KEY_ENV = "SNIPPETNET_API_KEY"
API_ENDPOINT_ENV = "SNIPPETNET_API_ENDPOINT"
VARIANTS = ("sr", "srwk")


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def _ledger_path(cache_path) -> Path:
    return Path(str(cache_path) + ".ledger")


def load_actors(path) -> list:
    """Plain text, one actor name per line; blank lines, '#' comments and a BOM starting any line skipped.

    Raises ConfigError naming the file for bad UTF-8, a name build_query refuses or two names with one id.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read actors file {path}: {exc}") from exc
    found: dict = {}  # actor id -> (line number, Actor)
    # Lines end at "\n" only: splitlines() would also split at U+2028, U+2029, U+0085.
    for number, line in enumerate(text.split("\n"), start=1):
        name = line.removeprefix("\ufeff").strip()
        if not name or name.startswith("#"):
            continue
        try:
            build_query([name])  # every query about this actor must render unambiguously
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from exc
        actor = Actor(name)
        if actor.id in found:
            raise ConfigError(
                f"{path}: lines {found[actor.id][0]} and {number}: names collapse to the same id {actor.id!r}"
            )
        found[actor.id] = number, actor
    return [actor for _, actor in found.values()]


def _open_state(args, parallelism):
    """Build a gateway of that parallelism over the chosen backend, with the cache and ledger of args.

    A cache that holds answers may answer every query, so the fixture
    backend parses the corpus at its first miss; otherwise it is parsed here,
    on the calling thread. (Parsed on a worker thread, it costs a second
    malloc arena, which raised peak memory.)
    """
    if args.backend == "live":
        endpoint = os.environ.get(API_ENDPOINT_ENV)
        if not endpoint:
            raise ConfigError(f"live backend needs {API_ENDPOINT_ENV} set")
        backend = LiveBackend(endpoint, api_key=os.environ.get(API_KEY_ENV))
    cache = QueryCache.open(args.cache, args.backend, args.corpus)
    if args.backend == "fixture":
        parse = partial(load_corpus, args.corpus)
        backend = FixtureBackend(parse if len(cache) else parse())
    ledger = BudgetLedger.open(args.daily_limit, _ledger_path(args.cache))
    return SearchGateway(backend, cache=cache, ledger=ledger, parallelism=parallelism)


def _rank_keywords(contexts: dict, names, k: int) -> dict:
    """Each context's top-k (term, score) pairs, tf-idf against the distinct snippets of all contexts.

    No token of names (every actor's) is a candidate: the actor's own name
    narrows nothing, and a partner's would turn the narrowed singleton into
    the pair query.
    """
    collection = {snippet for context in contexts.values() for snippet in context.snippets}
    doc_freq = document_frequencies(collection)
    stopwords = STOPWORDS.union(names)
    return {
        actor_id: extract_keywords(context.snippets, doc_freq, len(collection), k, stopwords)
        for actor_id, context in contexts.items()
    }


def extract(actors, gateway, *, threshold, measure="jaccard", variant="sr", keywords=None, provenance=None):
    """Run the pipeline over actors; returns (network, evidence, stage_counts).

    keywords maps an actor id to the keyword srwk narrows its queries with;
    None lets srwk pick each actor's top tf-idf term against the snippets on
    the context pages of the actors in a detected pair, a token of no
    actor's name; an actor with no such term keeps the plain score.
    Every detected pair is scored by one sr call, from counts the run already
    holds: its two context singletons and its doubleton, or, when both actors
    have a keyword, the narrowed counts that srwk scoring pays for. The pairs
    scoring at or above the threshold are the edges, and only they get their
    usr and labels; build_network only assembles them.
    Each paid stage fans out as wide as the gateway's parallelism. Every
    argument is checked before any query is paid, each in one place:
    ValueError for fewer than two actors, an unknown variant or measure, a
    threshold outside [0, 1], keywords without srwk, a keyword id naming no
    actor or a term build_query refuses, and (by detect_all) two actors with
    one id.
    stage_counts holds this call's paid queries by stage: doubleton_queries
    (detection), singleton_queries (contexts of actors in a detected pair)
    and keyword_queries (srwk scoring; 0 for sr).
    """
    actors = list(actors)
    if len(actors) < 2:
        raise ValueError("need at least two actors")
    by_id = {actor.id: actor for actor in actors}
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}")
    if not 0.0 <= threshold <= 1.0:  # false for NaN too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if keywords is not None:
        if variant != "srwk":
            raise ValueError("keywords need variant 'srwk'")
        unknown = sorted(set(keywords) - set(by_id))
        if unknown:
            raise ValueError(f"keywords name no actor of this call: {', '.join(unknown)}")
        for actor_id, term in keywords.items():
            if not isinstance(term, str):
                raise ValueError(f"keyword of {actor_id!r} must be a string, got {term!r}")
            try:
                build_query([term])
            except ValueError as exc:
                raise ValueError(f"keyword of {actor_id!r}: {exc}") from exc
    names = frozenset(token for actor in actors for token in tokenize(actor.name))  # who: no keyword, no label
    paid_before = gateway.backend_calls
    evidence = detect_all(actors, gateway)
    paid_detecting = gateway.backend_calls
    detected = [item for item in evidence if item.detected]
    involved = sorted({actor_id for item in detected for actor_id in item.pair})
    contexts = fetch_actor_context((by_id[actor_id] for actor_id in involved), gateway)
    paid_contexts = gateway.backend_calls

    if keywords is None and variant == "srwk":
        ranked = _rank_keywords(contexts, names, 1)
        keywords = {actor_id: terms[0][0] for actor_id, terms in ranked.items() if terms}
    keywords = keywords or {}

    # srwk falls back to the plain counts (the contexts' singletons and the
    # doubleton) when an actor has no keyword; the score's variant says which.
    narrowed = [(a, b) for a, b in (item.pair for item in detected) if keywords.get(a) and keywords.get(b)]
    paid = dict(zip(narrowed, sr_with_keywords(
        [(by_id[a], keywords[a], by_id[b], keywords[b]) for a, b in narrowed], gateway)))
    counts = [paid.get(item.pair) or (contexts[item.pair[0]].hit_count, contexts[item.pair[1]].hit_count,
                                      item.doubleton_count, None)
              for item in detected]
    edges = [
        Edge(item.pair, score, usr(contexts[item.pair[0]].snippets, contexts[item.pair[1]].snippets),
             label_edge(item.l_ab, names), len(item.l_ab))
        for item, score in zip(detected, sr(counts, measure)) if score.value >= threshold
    ]
    network = build_network(actors, edges, provenance)
    stage_counts = {
        "doubleton_queries": paid_detecting - paid_before,
        "singleton_queries": paid_contexts - paid_detecting,
        "keyword_queries": gateway.backend_calls - paid_contexts,
    }
    return network, evidence, stage_counts


def cmd_extract(args) -> int:
    started = utc_now_iso()
    actors = load_actors(args.actors)
    if len(actors) < 2:
        raise ConfigError(f"{args.actors}: need at least two actors")
    keywords = None  # or the first term per actor of the override file, checked before any query
    if args.keywords is not None:
        keywords = load_keyword_overrides(args.keywords, [actor.id for actor in actors])
    gateway = _open_state(args, args.parallelism)
    provenance = {
        "backend": args.backend,
        "corpus": Path(args.corpus).name if args.corpus else None,
        "measure": args.measure,
        "variant": args.variant,
        "threshold": args.threshold,
        "generated_at": utc_now_iso(),
    }
    network, evidence, stage_counts = extract(
        actors, gateway, threshold=args.threshold, measure=args.measure, variant=args.variant,
        keywords=keywords, provenance=provenance,
    )
    atomic_write_bytes(args.out, export(network, args.format))

    if args.dump_evidence:
        lines = [
            json.dumps({"pair": list(item.pair), "doubleton_count": item.doubleton_count,
                        "detected": item.detected, "snippets": [snippet_record(s) for s in item.l_ab]},
                       sort_keys=True)
            for item in evidence
        ]
        atomic_write_bytes(f"{args.out}.evidence.jsonl", ("\n".join(lines) + "\n").encode("utf-8"))

    total_calls = gateway.backend_calls
    bound = 3 * len(actors) * len(actors)
    report = {
        "actors": len(actors),
        "pairs": len(evidence),
        "detected": sum(item.detected for item in evidence),
        "edges": len(network.edges),
        **stage_counts,
        "backend_calls": total_calls,
        "cache_hits": gateway.cache_hits,
        "ledger": gateway.ledger.snapshot(),
        "bound_check": {
            "total_backend_calls": total_calls,
            "naive_query_bound": bound,
            "holds": total_calls < bound,
        },
        "started_at": started,
        "finished_at": utc_now_iso(),
    }
    atomic_write_bytes(f"{args.out}.report.json", json_bytes(report))
    print(
        f"wrote {args.out}: {len(network.edges)} edges over {len(actors)} actors "
        f"({total_calls} backend calls, {gateway.cache_hits} cache hits)"
    )
    return 0


def cmd_keywords(args) -> int:
    actors = sorted(load_actors(args.actors), key=lambda a: a.id)
    if not actors:
        raise ConfigError(f"{args.actors}: actors file lists nobody")
    gateway = _open_state(args, 1)
    contexts = fetch_actor_context(actors, gateway)
    names = frozenset(token for actor in actors for token in tokenize(actor.name))
    ranked = _rank_keywords(contexts, names, args.top_k)
    payload = {
        actor.id: {
            "name": actor.name,
            "singleton_count": contexts[actor.id].hit_count,
            "keywords": [{"term": term, "score": score} for term, score in ranked[actor.id]],
        }
        for actor in actors
    }
    atomic_write_bytes(args.out, json_bytes(payload))
    print(f"wrote {args.out}: keyword sets for {len(actors)} actors")
    return 0


def cmd_cache(action: str, cache_path) -> int:
    if action == "clear":
        QueryCache(cache_path).clear()
        print(f"cleared {cache_path}")
        return 0
    cache = QueryCache.open(cache_path)
    ledger_state = read_ledger_state(_ledger_path(cache_path))
    print(json.dumps({"entries": len(cache), "ledger": ledger_state}, indent=2, sort_keys=True))
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def file_path(text: str) -> str:
    if not text:  # "" would read "." or write a file with no name
        raise argparse.ArgumentTypeError("must name a file, got an empty path")
    if os.path.basename(text) in ("", ".", ".."):  # "x/", "x/." and "x/.." name a directory
        raise argparse.ArgumentTypeError(f"must name a file, not a directory: {text}")
    return text


def fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--actors", type=file_path, required=True, help="text file, one actor name per line")
    parser.add_argument("--backend", choices=("fixture", "live"), default="fixture")
    parser.add_argument("--corpus", type=file_path, help="JSON Lines corpus for the fixture backend")
    parser.add_argument("--daily-limit", type=positive_int, default=1000, help="query budget per UTC day")
    parser.add_argument("--cache", type=file_path, default="snippetnet-cache.json", help="persistent query cache path")
    parser.set_defaults(error=parser.error)  # main's checks after parsing print this subcommand's usage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snippetnet",
        description="Extract a labeled social network from search hit counts and snippets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract_parser = sub.add_parser("extract", help="run the full extraction pipeline")
    _add_gateway_args(extract_parser)
    extract_parser.add_argument("--measure", choices=sorted(MEASURES), default="jaccard")
    extract_parser.add_argument("--variant", choices=VARIANTS, default="sr")
    extract_parser.add_argument("--threshold", type=fraction, required=True,
                                help="minimum strength for an edge, in [0, 1]")
    extract_parser.add_argument("--out", type=file_path, required=True, help="network output path")
    extract_parser.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    extract_parser.add_argument("--keywords", type=file_path,
                                help="per-actor keyword override file (JSON); needs --variant srwk")
    extract_parser.add_argument("--parallelism", type=positive_int, default=1)
    extract_parser.add_argument("--dump-evidence", action="store_true",
                                help="also write per-pair evidence as JSON Lines")

    keywords = sub.add_parser("keywords", help="write per-actor keyword sets")
    _add_gateway_args(keywords)
    keywords.add_argument("--out", type=file_path, required=True, help="keyword sets output path")
    keywords.add_argument("--top-k", type=positive_int, default=10)

    cache = sub.add_parser("cache", help="inspect or clear the query cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache", type=file_path, required=True, help="persistent query cache path")
    return parser


def _check_out(args) -> None:
    """Refuse, by args.error, a written path (--out, its report or evidence) that is a directory or a kept file,
    or that lies under a file: its nearest existing ancestor must be a directory."""
    written = [args.out]
    if args.command == "extract":
        written.append(f"{args.out}.report.json")
        if args.dump_evidence:
            written.append(f"{args.out}.evidence.jsonl")
    # Kept: what the run reads or keeps its state in, which the write would replace.
    kept = [args.actors, args.corpus, getattr(args, "keywords", None), args.cache, _ledger_path(args.cache)]
    kept_at = {Path(path).resolve(): path for path in kept if path is not None}
    for path in written:
        if Path(path).is_dir():
            args.error(f"argument --out: {path} is a directory")
        ancestor = next(parent for parent in Path(path).parents if parent.exists())
        if not ancestor.is_dir():
            args.error(f"argument --out: {path} lies under {ancestor}, which is not a directory")
        if Path(path).resolve() in kept_at:
            args.error(f"argument --out: {path} would replace {kept_at[Path(path).resolve()]}, "
                       "which this run reads or keeps")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "cache":
            if args.backend == "fixture" and args.corpus is None:
                args.error("argument --corpus: required with --backend fixture")
            if args.backend == "live" and args.corpus is not None:
                args.error("argument --corpus: not allowed with --backend live")
            if args.command == "extract" and args.keywords is not None and args.variant != "srwk":
                args.error("argument --keywords: needs --variant srwk")
            _check_out(args)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "keywords":
            return cmd_keywords(args)
        return cmd_cache(args.action, Path(args.cache))
    except SystemExit as exc:
        return exc.code
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
