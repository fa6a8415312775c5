"""Per-layer metrics of one traced pass, from the spans ``traced.py`` records.

A layer's ``_s`` figure is the summed duration of its spans (inclusive of
the layers it calls; no hooked layer calls itself), except ``gateway.self_s``, which is the
time inside ``SearchGateway.execute`` that no child span covers. Which
end-to-end metric each figure should move, and on which workload, is set
out in perfbench/README.md.
"""

from __future__ import annotations

import math

UNITS = {
    "cache.store_calls": "count",
    "cache.store_s": "s",
    "cache.store_ms_first_decile": "ms",
    "cache.store_ms_last_decile": "ms",
    "ioutil.atomic_writes": "count",
    "ioutil.write_mb": "MB",
    "budget.charge_calls": "count",
    "budget.charge_s": "s",
    "cache.open_s": "s",
    "corpus.load_s": "s",
    "cli.startup_s": "s",
    "backends.search_calls": "count",
    "backends.search_s": "s",
    "backends.search_ms_p50": "ms",
    "backends.search_ms_p99": "ms",
    "keywords.doc_freq_s": "s",
    "gateway.execute_calls": "count",
    "gateway.hit_ratio": "ratio",
    "gateway.self_s": "s",
    "relations.detect_all_s": "s",
    "relations.detected_share": "ratio",
    "keywords.context_s": "s",
    "keywords.extract_s": "s",
    "strength.score_s": "s",
    "labeling.usr_s": "s",
    "labeling.label_s": "s",
    "network.build_s": "s",
    "network.export_s": "s",
    "cli.extract_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}

# Layers whose summed span time is reported as "<layer>_s".
_TIMED = (
    "cache.store", "budget.charge", "cache.open", "corpus.load", "backends.search",
    "keywords.doc_freq", "relations.detect_all", "keywords.context", "keywords.extract",
    "strength.score", "labeling.usr", "labeling.label", "network.build", "network.export",
    "cli.extract",
)
_MISS_CHILDREN = {"budget.charge", "backends.search"}


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _decile_mean_ms(durations, last):
    if not durations:
        return 0.0
    k = max(1, len(durations) // 10)
    part = durations[-k:] if last else durations[:k]
    return 1000 * sum(part) / len(part)


def _command_spans(trace):
    """(layer -> span durations in call order, gateway self s, gateway hits).

    A gateway call is a hit when it neither charged the budget nor searched.
    """
    spans = trace["spans"]
    children = {}
    for index, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(index)

    durations = {}
    gateway_self = 0.0
    gateway_hits = 0
    for index, (layer, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        durations.setdefault(layer, []).append(end - start)
        if layer == "gateway.execute":
            kids = children.get(index, [])
            gateway_self += (end - start) - sum(spans[k][2] - spans[k][1] for k in kids if spans[k][2])
            if not any(spans[k][0] in _MISS_CHILDREN for k in kids):
                gateway_hits += 1
    return durations, gateway_self, gateway_hits


def pass_metrics(results, overhead_s: float) -> dict:
    """Every metric in UNITS for one traced pass (a list of CommandResult)."""
    durations = {}
    gateway_self = 0.0
    gateway_hits = 0
    written = 0
    startup = 0.0
    detected = pairs = 0
    for result in results:
        if result.trace is None:
            continue
        spans, self_s, hits = _command_spans(result.trace)
        for layer, values in spans.items():
            durations.setdefault(layer, []).extend(values)
        gateway_self += self_s
        gateway_hits += hits
        written += result.trace.get("wchar") or 0
        startup += result.wall_s - sum(spans.get("cli.extract", []))
        detected += int(result.report.get("detected", 0))
        pairs += int(result.report.get("pairs", 0))

    stores = durations.get("cache.store", [])
    searches_ms = [1000 * d for d in durations.get("backends.search", [])]
    executes = len(durations.get("gateway.execute", []))
    metrics = {f"{layer}_s": sum(durations.get(layer, [])) for layer in _TIMED}
    metrics.update({
        "cache.store_calls": len(stores),
        "cache.store_ms_first_decile": _decile_mean_ms(stores, last=False),
        "cache.store_ms_last_decile": _decile_mean_ms(stores, last=True),
        "ioutil.atomic_writes": len(durations.get("ioutil.atomic_write", [])),
        "ioutil.write_mb": written / 1e6,
        "budget.charge_calls": len(durations.get("budget.charge", [])),
        "cli.startup_s": startup,
        "backends.search_calls": len(searches_ms),
        "backends.search_ms_p50": _percentile(searches_ms, 50) if searches_ms else 0.0,
        "backends.search_ms_p99": _percentile(searches_ms, 99) if searches_ms else 0.0,
        "gateway.execute_calls": executes,
        "gateway.hit_ratio": gateway_hits / executes if executes else 0.0,
        "gateway.self_s": gateway_self,
        "relations.detected_share": detected / pairs if pairs else 0.0,
        "cli.cpu_s": sum(r.cpu_s for r in results),
        "trace.overhead_s": overhead_s,
    })
    return {name: metrics[name] for name in UNITS}
