"""Shared pieces: decks, percentiles, child processes, provenance.

A *deck* holds every (input, command) pair of a workload exactly once,
in an order that is a pure function of the workload seed and the deck's
index.  A run is a whole number of decks, so every run has the same
request mix and the same number of samples.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SUITE_DIR = SRC / "repro" / "suite" / "programs"
WORK = ROOT / ".bench_work"

#: The tail percentile every workload reports.  A run holds enough
#: requests that at least ``MIN_BEYOND`` samples lie beyond it.
TAIL = 0.85
MIN_BEYOND = 10


# -- decks and percentiles ----------------------------------------------


def build_deck(pairs: Sequence, seed: int, index: int) -> list:
    """Every pair once, shuffled by ``(seed, index)`` alone."""
    deck = list(pairs)
    random.Random(f"deck:{seed}:{index}").shuffle(deck)
    return deck


def deck_count(seconds: float, deck_seconds: float, min_decks: int) -> int:
    """Whole decks for a ``seconds`` budget, from the workload's nominal
    per-deck cost (a constant, never a measurement), so the run length
    is a pure function of the workload and ``--seconds``."""
    return max(min_decks, int(seconds / deck_seconds + 0.5))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always one of the observed samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# -- workspace and child processes --------------------------------------


def parallel_map(fn: Callable, items: Sequence) -> List:
    """``[fn(item) for item in items]`` on up to two forked processes.

    For reference answers, which are computed before every timed window;
    the pool is shut down and its processes reaped before it returns."""
    workers = min(2, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def make_workspace(workload: str, seed: int, trace: int) -> Path:
    path = WORK / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    return path


def child_env(workspace: Path, cache_dir: Path) -> Dict[str, str]:
    """Environment for every program process: the checkout's ``src`` on
    the path, and cache, temp and bytecode directories inside the run's
    workspace, never the checkout's own ``.repro-cache``.

    OpenBLAS gets one thread.  The program imports numpy at start-up but
    never calls BLAS; by default OpenBLAS then starts a worker per core
    that spins briefly, which costs each CLI process about 140 ms of CPU
    on the other core and makes its latency follow whatever else runs
    on the machine (+31% against one busy process, +6% with one
    thread)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(workspace / "tmp")
    env["PYTHONPYCACHEPREFIX"] = str(workspace / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildResult:
    seconds: float
    cpu_seconds: float
    maxrss_kb: int
    returncode: Optional[int]
    timed_out: bool
    stdout: bytes
    stderr: bytes
    start: float = 0.0


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: Path,
              timeout: float, out_dir: Path) -> ChildResult:
    """Spawn, wait with ``wait4``, and time from spawn to exit.

    Output goes to files so a large answer can never block the child on
    a full pipe; CPU and peak RSS come from the child's own rusage."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        # A traced child reads its spawn time from the "{spawn}" slot.
        argv = [repr(start) if arg == "{spawn}" else arg for arg in argv]
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        seconds=end - start,
        cpu_seconds=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        returncode=proc.returncode, timed_out=killed.is_set(),
        stdout=out_path.read_bytes(), stderr=err_path.read_bytes(),
        start=start)


# -- provenance ----------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's source tree; it identifies the code
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    try:
        # The ceiling keeps git from adopting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode().strip() or None


def provenance(workload: str, seed: int, trace: int,
               per_pair: int, samples: int) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "requests_per_pair": per_pair, "samples": samples,
        "beyond": {"p50": beyond(samples, 0.50),
                   f"p{int(TAIL * 100)}": beyond(samples, TAIL)},
    }


def check_program_present() -> None:
    """Refuse to run without the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
