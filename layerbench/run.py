"""End-to-end and per-layer benchmark of the points-to analysis tool.

    python3 layerbench/run.py --workload cli-large --seed 1 --seconds 40 --trace 0

Workloads (see README.md): ``cli-cold`` and ``cli-large`` spawn one
``python -m repro`` process per request; ``serve-body`` and
``serve-edit`` drive one ``repro serve`` daemon with two client
connections and source edits.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it runs its decks traced (layer spans around the
program's public functions) beside the same decks untraced, and reports
the per-layer metrics.  Human-readable lines go first; the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with provenance, is also
written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import (TAIL, WORK, beyond, check_program_present,  # noqa: E402
                    make_workspace, provenance, SRC)
from report import (end_to_end, format_layer_table, layer_metrics,  # noqa: E402
                    layer_table)


def _load_spec() -> dict:
    spec_path = BENCH.parent / "BENCHMARK.json"
    return json.loads(spec_path.read_text())


def _workload(name: str):
    from cli_workloads import WORKLOADS as CLI
    from serve_workload import WORKLOADS as SERVE

    table = {**CLI, **SERVE}
    if name not in table:
        raise SystemExit(f"error: unknown workload {name!r}; expected one "
                         f"of {', '.join(sorted(table))}")
    return table[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one, so every ``finally``
    # stops the processes it started and removes the workspace.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # The daemon stops cleanly on SIGINT.  A run started with SIGINT
    # ignored (as a background job of a non-interactive shell is) would
    # pass that on to it, and each stop would wait out its timeout.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    check_program_present()
    spec = _load_spec()
    sys.path.insert(0, str(SRC))
    workload = _workload(args.workload)
    workspace = make_workspace(args.workload, args.seed, args.trace)
    try:
        run = workload.run(workspace, args.seed, args.seconds,
                           bool(args.trace))
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])]
    measured = layer_metrics(run) if args.trace else end_to_end(run)
    missing = [name for name in wanted if name not in measured]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")

    n = len(run.latencies)
    result = {
        "provenance": provenance(args.workload, args.seed, args.trace,
                                 run.per_pair, n),
        "tally": run.tally.as_dict(),
        "setup_s_each": run.setup,
        "latencies_s": run.latencies,
        "all_metrics": measured,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} untraced requests, {run.per_pair} per (input, command) "
          f"pair, {beyond(n, 0.5)} samples beyond p50, {beyond(n, TAIL)} "
          f"beyond p{int(TAIL * 100)}; {len(run.traced)} traced requests")
    print(f"failures: {json.dumps(run.tally.as_dict())}")
    if args.trace:
        table = layer_table(run.traced)
        result["layers"] = table
        for line in format_layer_table(table):
            print(line)
    for name, value in measured.items():
        print(f"  {name:<44} {value:.6g} {units.get(name, '')}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps(result, indent=1, sort_keys=True))

    correct = run.tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]}
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
