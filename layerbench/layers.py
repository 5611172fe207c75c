"""Which public functions of the program each layer span wraps.

Each entry is ``(module:qualname, layer[, counters[, only_under]])`` for
:func:`spans.install`.  The names are the repository's own modules; the
counters are read from each call's return value.
"""

from __future__ import annotations


def _nodes(program, args, kwargs):
    return {"vdg_nodes": program.node_count()}


def _cache_load(program, args, kwargs):
    if program is None:
        return {"hit": 0}
    return {"hit": 1, "vdg_nodes": program.node_count()}


def _cache_store(stored, args, kwargs):
    return {"stored": int(bool(stored))}


def _solve(result, args, kwargs):
    dense = result.extras.get("dense", {})
    return {"transfers": result.counters.transfers,
            "meets": result.counters.meets,
            "fact_ids": dense.get("fact_ids", 0),
            "kernel_calls": dense.get("kernel_calls", 0)}


def _incremental(results, args, kwargs):
    resolved = total = 0
    for result in results.values():
        dense = result.extras.get("dense", {})
        resolved += dense.get("sccs_resolved", 0)
        total += dense.get("summary_scc_total", 0)
    return {"sccs_resolved": resolved, "scc_total": total}


def _findings(found, args, kwargs):
    return {"findings": len(found)}


def _graph(graph, args, kwargs):
    stats = graph.stats()
    return {"edges": stats["edges"], "nodes": stats["nodes"]}


def _slice(result, args, kwargs):
    return {"nodes": result.size}


def _bytes(text, args, kwargs):
    return {"bytes": len(text) if isinstance(text, (str, bytes)) else 0}


_SOLVERS = [
    ("repro.analysis.insensitive:analyze_insensitive",
     "analysis.insensitive", _solve),
    ("repro.analysis.sensitive:analyze_sensitive",
     "analysis.sensitive", _solve),
    ("repro.analysis.flowinsensitive:analyze_flowinsensitive",
     "analysis.flowinsensitive", _solve),
]

#: Layers every traced process wraps: frontend, solvers, clients.
COMMON = [
    ("repro.frontend.lower:lower_file", "frontend"),
    ("repro.frontend.preprocess:Preprocessor.process_file",
     "frontend.preprocess"),
    ("repro.frontend.cache:compute_key", "frontend.cache.key"),
    ("repro.frontend.cache:key_for_files", "frontend.cache.key"),
    ("repro.frontend.cache:load_program", "frontend.cache.load",
     _cache_load),
    ("repro.frontend.cache:store_program", "frontend.cache.store",
     _cache_store),
    ("repro.frontend.parser:parse_preprocessed", "frontend.parser"),
    ("repro.frontend.lower:lower_ast", "frontend.lower", _nodes),
    *_SOLVERS,
    ("repro.analysis.incremental:analyze_incremental",
     "analysis.incremental", _incremental),
    ("repro.analysis.checkers.base:run_checkers", "analysis.checkers",
     _findings),
    ("repro.analysis.depgraph:build_depgraph", "analysis.depgraph",
     _graph),
    ("repro.analysis.slicing:slice_criterion", "analysis.slicing",
     _slice),
    ("repro.analysis.slicing:slice_for_finding", "analysis.slicing",
     _slice),
    ("repro.analysis.stats:pair_census", "analysis.stats"),
    ("repro.analysis.stats:indirect_op_stats", "analysis.stats"),
    ("repro.analysis.stats:program_sizes", "analysis.stats"),
    ("repro.analysis.compare:compare_results", "analysis.compare"),
    ("repro.analysis.clients.render:clients_payload", "analysis.clients"),
    ("repro.fuzz.oracle:solution_digest", "analysis.digest"),
    ("repro.analysis.checkers.base:findings_digest", "analysis.digest"),
]

#: The CLI request path: the entry point, the runner glue behind
#: ``check``/``slice``, and the JSON encode of the output document.
CLI = COMMON + [
    ("repro.runner:run_check_report", "runner"),
    ("repro.runner:run_slice_report", "runner"),
    ("json:dumps", "report.export", _bytes, ("cli", "runner")),
]

#: The daemon's request path (parent process).  Pool workers inherit
#: these wrappers when the pool forks them.
SERVE = COMMON + [
    ("repro.serve.payload:analysis_payload", "serve.payload"),
    ("repro.serve.payload:check_payload", "serve.payload"),
    ("repro.runner:_analyze_program", "runner"),
]
