"""Turning a run's samples and spans into metrics and tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from common import TAIL, median, nearest_rank
from oracle import Tally
from spans import layer_totals

TAIL_NAME = f"latency_p{int(TAIL * 100)}_ms"

#: Span names that are the tracer's own work, never a layer.
OVERHEAD_SPANS = ("trace.install", "trace.dump")

#: The root span of each traced request.  Its self time is whatever no
#: wrapped function covers (argparse and printing in ``cli``; the
#: transport between client and ``serve.core`` in ``serve.http``), so it
#: does not count as attributed to a named layer.
ROOT_SPANS = ("cli", "serve.http")

#: Per-layer values only the daemon workload measures; zero elsewhere.
SERVE_ONLY = ("serve.core.tier.solution_ratio", "serve.core.tier.summary_ratio",
              "serve.core.tier.lowering_ratio", "serve.core.tier.cold_ratio",
              "serve.core.coalesced", "serve.core.shed", "serve.payload.bytes",
              "runner.pool.roundtrip_ms", "runner.pool.ipc_ms")


@dataclass
class RunOutcome:
    """What one workload run measured."""

    latencies: List[float] = field(default_factory=list)
    deck_wall: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_kb: int = 0
    setup: List[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    per_pair: int = 0
    #: Traced runs: (spans, wall seconds) per traced request; the
    #: untraced ``latencies`` of the same run give the overhead.
    traced: List[tuple] = field(default_factory=list)
    #: Extra per-layer values a workload measures outside spans.
    layer_extra: Dict[str, float] = field(default_factory=dict)


def end_to_end(run: RunOutcome) -> Dict[str, float]:
    n = len(run.latencies)
    completed = n - run.tally.failed
    return {
        "latency_p50_ms": nearest_rank(run.latencies, 0.50) * 1e3,
        TAIL_NAME: nearest_rank(run.latencies, TAIL) * 1e3,
        "throughput_rps": completed / run.deck_wall,
        "cpu_ms_per_req": run.cpu_seconds * 1e3 / n,
        "peak_rss_mb": run.peak_rss_kb / 1024,
        "setup_s": median(run.setup),
        "ok_frac": 1.0 - run.tally.fail_frac,
    }


def layer_table(traced: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: self ms and calls per traced request, counters per
    request, and the layer's share of traced request wall time."""
    totals: Dict[str, Dict[str, float]] = {}
    wall = 0.0
    for spans, seconds in traced:
        wall += seconds
        for name, row in layer_totals(spans).items():
            into = totals.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    n = max(1, len(traced))
    table = {}
    for name, row in sorted(totals.items()):
        entry = {"ms": row.pop("self_s") * 1e3 / n,
                 "calls": row.pop("calls") / n}
        entry["share"] = entry["ms"] / (wall * 1e3 / n) if wall else 0.0
        for key, value in row.items():
            entry[key] = value / n
        table[name] = entry
    spanned = sum(row["ms"] for row in table.values())
    wall_ms = wall * 1e3 / n
    table["(unattributed)"] = {"ms": wall_ms - spanned, "calls": 0,
                               "share": 1 - spanned / wall_ms
                               if wall_ms else 0.0}
    table["(request)"] = {"ms": wall_ms, "calls": 1, "share": 1.0}
    return table


def attribution(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """How much traced request wall time named layers account for.

    Only non-root, non-tracer spans count: the root's self time and the
    tracer's own install and dump are reported beside the share."""
    wall_ms = table["(request)"]["ms"]
    named = sum(row["ms"] for name, row in table.items()
                if not name.startswith("(") and name not in ROOT_SPANS
                and name not in OVERHEAD_SPANS)
    return {
        "trace.request_ms": wall_ms,
        "trace.attributed_frac": named / wall_ms if wall_ms else 0.0,
        "trace.root_self_ms": sum(_row(table, name) for name in ROOT_SPANS),
        "trace.tracer_ms": sum(_row(table, name) for name in OVERHEAD_SPANS),
        "trace.unattributed_ms": _row(table, "(unattributed)"),
    }


def _row(table, name, key="ms", default=0.0) -> float:
    return table.get(name, {}).get(key, default)


def layer_metrics(run: RunOutcome) -> Dict[str, float]:
    """The per-layer metrics a traced run reports."""
    table = layer_table(run.traced)
    loads = _row(table, "frontend.cache.load", "calls")
    metrics = {
        "import.ms": _row(table, "import"),
        "interpreter.exit.ms": _row(table, "interpreter.exit"),
        "cli.ms": _row(table, "cli"),
        "runner.ms": _row(table, "runner"),
        "frontend.ms": _row(table, "frontend"),
        "frontend.preprocess.ms": _row(table, "frontend.preprocess"),
        "frontend.preprocess.calls": _row(table, "frontend.preprocess",
                                          "calls"),
        "frontend.cache.key_ms": _row(table, "frontend.cache.key"),
        "frontend.cache.load_ms": _row(table, "frontend.cache.load"),
        "frontend.cache.store_ms": _row(table, "frontend.cache.store"),
        "frontend.cache.stores": _row(table, "frontend.cache.store",
                                      "stored"),
        "frontend.cache.hit_ratio": (_row(table, "frontend.cache.load",
                                          "hit") / loads if loads else 0.0),
        "frontend.parser.ms": _row(table, "frontend.parser"),
        "frontend.parser.calls": _row(table, "frontend.parser", "calls"),
        "frontend.lower.ms": _row(table, "frontend.lower"),
        "frontend.lower.vdg_nodes": (
            _row(table, "frontend.lower", "vdg_nodes")
            + _row(table, "frontend.cache.load", "vdg_nodes")),
        "analysis.stats.ms": _row(table, "analysis.stats"),
        "analysis.checkers.ms": _row(table, "analysis.checkers"),
        "analysis.checkers.findings": _row(table, "analysis.checkers",
                                           "findings"),
        "analysis.depgraph.ms": _row(table, "analysis.depgraph"),
        "analysis.depgraph.edges": _row(table, "analysis.depgraph",
                                        "edges"),
        "analysis.slicing.ms": _row(table, "analysis.slicing"),
        "analysis.slicing.nodes": _row(table, "analysis.slicing", "nodes"),
        "analysis.incremental.ms": _row(table, "analysis.incremental"),
        "report.export.ms": _row(table, "report.export"),
        "report.export.bytes": _row(table, "report.export", "bytes"),
        "memory.fact_ids": 0.0,
        "memory.kernel_calls": 0.0,
    }
    for flavor in ("insensitive", "sensitive", "flowinsensitive"):
        name = f"analysis.{flavor}"
        metrics[f"{name}.ms"] = _row(table, name)
        metrics[f"{name}.transfers"] = _row(table, name, "transfers")
        metrics[f"{name}.meets"] = _row(table, name, "meets")
        metrics["memory.fact_ids"] += _row(table, name, "fact_ids")
        metrics["memory.kernel_calls"] += _row(table, name, "kernel_calls")
    # The packed numpy kernels switch on at 128 words (8192 fact ids);
    # the largest table any solve built shows whether a run gets there.
    metrics["memory.fact_ids_max"] = max(
        (span.counters.get("fact_ids", 0) for spans, _ in run.traced
         for span in spans), default=0)
    resolved = _row(table, "analysis.incremental", "sccs_resolved")
    total = _row(table, "analysis.incremental", "scc_total")
    metrics["analysis.incremental.scc_resolve_ratio"] = (
        resolved / total if total else 0.0)
    metrics.update(attribution(table))
    traced_p50 = nearest_rank([s for _, s in run.traced], 0.50)
    untraced_p50 = nearest_rank(run.latencies, 0.50)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    metrics["serve.core.ms"] = _row(table, "serve.core")
    metrics["serve.http.overhead_ms"] = _row(table, "serve.http")
    metrics["serve.payload.ms"] = _row(table, "serve.payload")
    metrics.update(dict.fromkeys(SERVE_ONLY, 0.0))
    metrics.update(run.layer_extra)
    return metrics


def format_layer_table(table: Dict[str, Dict[str, float]]) -> List[str]:
    lines = [f"{'layer':<28} {'self ms/req':>12} {'share':>7} "
             f"{'calls/req':>10}  counters/req"]
    order = sorted((k for k in table if not k.startswith("(")),
                   key=lambda k: -table[k]["ms"])
    for name in order + ["(unattributed)", "(request)"]:
        row = table[name]
        extra = ", ".join(f"{k}={v:.4g}" for k, v in sorted(row.items())
                          if k not in ("ms", "calls", "share"))
        lines.append(f"{name:<28} {row['ms']:>12.3f} {row['share']:>7.1%} "
                     f"{row['calls']:>10.2f}  {extra}")
    return lines

