"""``cli-cold`` and ``cli-large``: one client, one CLI process per request.

Each request is ``python -m repro analyze|check|slice`` on one program,
timed from spawn to exit, with CPU and peak RSS from the child's
``wait4`` rusage.  Every process gets a cache directory, TMPDIR and
bytecode directory inside the run's workspace.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import (BENCH_DIR, SUITE_DIR, build_deck, child_env,
                    deck_count, parallel_map, run_child)
from oracle import cli_signature, judge, reference_cli
from report import RunOutcome
from spans import Span, load_spans

COMMANDS = ("analyze", "check", "slice")
EXPECTED = BENCH_DIR / "expected_suite.json"

#: cli-large input band: generated programs whose lowered VDG has this
#: many nodes and whose context-insensitive solve applies this many
#: meets, so decks from different seeds cost about the same.  The node
#: count sets the cost of lowering (the set-up); the meets, a
#: deterministic count, track the cost of solving and checking.
LARGE_MAX_NODES = 300
LARGE_BAND = (500, 580)
LARGE_MEETS_BAND = (8000, 14000)
LARGE_PROGRAMS = 8

SETUP_REPEATS = 5
REQUEST_TIMEOUT = 30.0


@dataclass
class Input:
    name: str          # file name, relative to the inputs directory
    expected: dict     # criterion + reference signature per command


def command_argv(command: str, inp: Input) -> List[str]:
    if command == "analyze":
        return ["analyze", "--format", "json", inp.name]
    if command == "check":
        return ["check", "--flavor", "all", "--format", "json", inp.name]
    return ["slice", inp.name, "--criterion", inp.expected["criterion"],
            "--format", "json"]


@contextmanager
def chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# -- inputs ----------------------------------------------------------------


def suite_inputs(inputs: Path) -> List[Input]:
    """Copies of the 13 suite programs with their recorded answers."""
    expected = json.loads(EXPECTED.read_text())["programs"]
    out = []
    for name in sorted(expected):
        shutil.copyfile(SUITE_DIR / f"{name}.c", inputs / f"{name}.c")
        out.append(Input(f"{name}.c", expected[name]))
    return out


def large_inputs(inputs: Path, seed: int) -> List[Input]:
    """Seeded generated programs inside the node and meets bands, with
    references computed in-process with the cache off."""
    from repro.analysis.insensitive import analyze_insensitive
    from repro.frontend.lower import lower_file
    from repro.fuzz.generator import generate_program

    names = []
    index = 0
    with chdir(inputs):
        while len(names) < LARGE_PROGRAMS:
            gen_seed = seed * 1000 + index
            index += 1
            name = f"gen{gen_seed}.c"
            Path(name).write_text(
                generate_program(gen_seed, LARGE_MAX_NODES).source)
            program = lower_file(name, cache=False)
            if not (LARGE_BAND[0] <= program.node_count() <= LARGE_BAND[1]
                    and LARGE_MEETS_BAND[0]
                    <= analyze_insensitive(program).counters.meets
                    <= LARGE_MEETS_BAND[1]):
                os.unlink(name)
                continue
            names.append(name)
        refs = parallel_map(reference_cli, names)
    return [Input(name, ref) for name, ref in zip(names, refs)]


# -- set-up ----------------------------------------------------------------


def setup_fresh_start(workspace: Path, inputs: Path, rep: int) -> float:
    """cli-cold set-up: the first start on a fresh checkout, which
    compiles the program's bytecode.  Each repeat leaves the bytecode
    directory warm for the timed requests."""
    shutil.rmtree(workspace / "pycache", ignore_errors=True)
    env = child_env(workspace, workspace / f"setup-cache{rep}")
    result = run_child([sys.executable, "-m", "repro", "suite"], env,
                       inputs, REQUEST_TIMEOUT, workspace / "tmp")
    if result.returncode != 0:
        raise RuntimeError(f"set-up failed: {result.stderr[-500:]!r}")
    return result.seconds


def setup_fill_cache(workspace: Path, inputs: List[Input],
                     inputs_dir: Path) -> float:
    """cli-large set-up: the cache-filling pass, every lowering variant
    the deck uses.  ``analyze`` lowers with no options, ``check`` with
    ``hazard_model=True`` and ``slice`` with ``hazard_model=False``; the
    options are part of the cache key, so these are three entries.  Each
    repeat leaves the cache full for the timed requests."""
    from repro.frontend.lower import lower_file

    cache = workspace / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    with chdir(inputs_dir):
        start = time.perf_counter()
        for inp in inputs:
            lower_file(inp.name, cache=cache)
            lower_file(inp.name, cache=cache, hazard_model=True)
            lower_file(inp.name, cache=cache, hazard_model=False)
        return time.perf_counter() - start


def setup_slots(decks: int) -> List[int]:
    """How many set-up repeats run before each deck, and (last entry)
    after the last deck: one before each deck while repeats last, the
    rest at the end.  Spread like this, ``setup_s`` samples the same
    stretch of the machine's time as the decks do."""
    slots = [1 if index < SETUP_REPEATS else 0 for index in range(decks)]
    return slots + [SETUP_REPEATS - sum(slots)]


# -- the run ---------------------------------------------------------------


@dataclass
class CliWorkload:
    cold: bool
    #: Nominal seconds per deck on a 2-CPU box (a constant that sizes
    #: the run; see ``deck_count``) and the fewest decks per run.
    deck_seconds: float
    min_decks: int

    def run(self, workspace: Path, seed: int, seconds: float,
            trace: bool) -> RunOutcome:
        inputs_dir = workspace / "inputs"
        inputs_dir.mkdir()
        outcome = RunOutcome()
        if self.cold:
            inputs = suite_inputs(inputs_dir)

            def set_up() -> float:
                return setup_fresh_start(workspace, inputs_dir,
                                         len(outcome.setup))
        else:
            inputs = large_inputs(inputs_dir, seed)

            def set_up() -> float:
                return setup_fill_cache(workspace, inputs, inputs_dir)

            # Warm the bytecode directory outside every timed window.
            run_child([sys.executable, "-m", "repro", "suite"],
                      child_env(workspace, workspace / "warmup-cache"),
                      inputs_dir, REQUEST_TIMEOUT, workspace / "tmp")
        pairs = [(inp, command) for inp in inputs for command in COMMANDS]
        decks = 1 if trace else deck_count(seconds, self.deck_seconds,
                                           self.min_decks)
        outcome.per_pair = decks
        slots = setup_slots(decks)
        answers = []
        counter = 0
        for index in range(decks):
            outcome.setup += [set_up() for _ in range(slots[index])]
            deck_start = time.perf_counter()
            for inp, command in build_deck(pairs, seed, index):
                if trace:
                    # Alternate which variant goes first, so drift in
                    # the machine's speed does not bias the overhead.
                    order = (False, True) if counter % 2 else (True, False)
                    for traced in order:
                        self._request(workspace, inp, command, counter,
                                      traced, outcome, answers)
                else:
                    self._request(workspace, inp, command, counter,
                                  False, outcome, answers)
                counter += 1
            outcome.deck_wall += time.perf_counter() - deck_start
        outcome.setup += [set_up() for _ in range(slots[-1])]
        for inp, command, result in answers:
            outcome.tally.record(*_judge(inp, command, result), kind=command)
        return outcome

    def _request(self, workspace: Path, inp: Input, command: str,
                 counter: int, traced: bool, outcome: RunOutcome,
                 answers: list) -> None:
        cache = (workspace / "cold" / f"{counter}-{int(traced)}"
                 if self.cold else workspace / "cache")
        env = child_env(workspace, cache)
        args = command_argv(command, inp)
        if traced:
            spans_path = workspace / "tmp" / "spans.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                    "{spawn}", str(spans_path), "--"] + args
        else:
            argv = [sys.executable, "-m", "repro"] + args
        result = run_child(argv, env, workspace / "inputs",
                           REQUEST_TIMEOUT, workspace / "tmp")
        if traced:
            if result.returncode == 0:
                outcome.traced.append((_child_spans(spans_path, result),
                                       result.seconds))
            return
        outcome.latencies.append(result.seconds)
        outcome.cpu_seconds += result.cpu_seconds
        outcome.peak_rss_kb = max(outcome.peak_rss_kb, result.maxrss_kb)
        answers.append((inp, command, result))


def _child_spans(spans_path: Path, result) -> List[Span]:
    """The child's spans, plus the two intervals only the parent sees:
    the tracer's own dump after ``main`` returned, and the interpreter's
    exit after that until the parent reaped the child."""
    spans = load_spans(str(spans_path))
    main_end = max(span.end for span in spans)
    dumped = float(Path(f"{spans_path}.end").read_text())
    spans.append(Span("trace.dump", main_end, dumped))
    spans.append(Span("interpreter.exit", dumped,
                      result.start + result.seconds))
    return spans


def _judge(inp: Input, command: str, result) -> tuple:
    if result.timed_out:
        return "timeout", f"{inp.name} {command}"
    if result.returncode != 0:
        tail = result.stderr[-200:].decode(errors="replace")
        return "exit", f"{inp.name} {command} rc={result.returncode} {tail}"
    try:
        got = cli_signature(command, result.stdout)
    except ValueError as exc:
        return "unreadable", f"{inp.name} {command}: {exc}"
    reason = judge(got, inp.expected[command])
    return reason, f"{inp.name} {command}"


WORKLOADS: Dict[str, CliWorkload] = {
    "cli-cold": CliWorkload(cold=True, deck_seconds=20.0, min_decks=2),
    "cli-large": CliWorkload(cold=False, deck_seconds=10.0, min_decks=3),
}
