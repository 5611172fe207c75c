"""Repeat mode: run a workload over several seeds and report steadiness.

    python3 layerbench/steady.py --workload cli-cold --seeds 10
    python3 layerbench/steady.py --workload cli-cold --seeds 10 \\
        --first-seed 101 --save b.json --against a.json

For each end-to-end metric it prints the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(Q3 - Q1) / median`` and the metric's bound from ``BENCHMARK.json``.
A metric is *resolved* when its spread is below a third of its bound,
*within bound* below the bound, and *UNRESOLVED* otherwise; ``setup_s``
is judged like every other metric.  With ``--against`` it also
prints how far each median moved from an earlier set, in the metric's
"worse" direction, beside the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n"
                         f"{out.stderr.decode()[-2000:]}")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def summarize(runs: list, spec: dict) -> dict:
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        table[name] = {"values": values, "median": statistics.median(values),
                       "q1": q1, "q3": q3, "spread": spread,
                       "bound": metric["bound"], "better": metric["better"]}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", default=None, help="write the set here")
    parser.add_argument("--against", default=None,
                        help="an earlier --save file to compare medians")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.perf_counter()
        result = run_once(args.workload, seed, seconds, 0)
        runs.append(result)
        print(f"seed {seed}: {time.perf_counter() - start:.1f}s "
              f"correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
    table = summarize(runs, spec)
    earlier = None
    if args.against:
        earlier = json.loads(Path(args.against).read_text())["table"]
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, row in table.items():
        if row["spread"] < row["bound"] / 3:
            verdict = "resolved"
        elif row["spread"] < row["bound"]:
            verdict = "within bound"
        else:
            verdict = "UNRESOLVED"
        line = (f"{name:<18} {row['median']:>11.5g} {row['q1']:>11.5g} "
                f"{row['q3']:>11.5g} {row['spread']:>7.3f} "
                f"{row['bound']:>6.2f}  {verdict}")
        if earlier and name in earlier and earlier[name]["median"]:
            before = earlier[name]["median"]
            change = (row["median"] - before) / before
            worse = change if row["better"] == "lower" else -change
            line += (f"; vs earlier {worse:+.3f} worse "
                     f"({'ok' if worse <= row['bound'] else 'EXCEEDS'})")
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "table": table,
             "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
