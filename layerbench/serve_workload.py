"""``serve-edit`` and ``serve-body``: one ``repro serve`` daemon, two
clients, source edits.

Each client owns a workspace copy of each of the 13 suite programs;
every copy ``#include``s its own generated header, so no two targets
share a content key.  Requests are ``/analyze``, ``/check``, ``/query``
and ``/slice``.  Within a deck every (target, endpoint) pair appears
once, and every target takes its workload's edits, each just before one
of its requests, the first just before its first request of the deck.
A *body* edit toggles a pointer statement in ``main`` and bumps a
constant there, so every body edit is new content that re-solves
``main``'s SCC; a *header* edit retargets a pointer in the header, which
changes the points-to answer.  ``serve-edit`` takes one of each per
target and deck, the header edit first; ``serve-body`` one body edit.
The constant never changes an answer, so references are computed per
(body, header) version, with the cache off and no daemon, before the
timed window.  An answer that matches another version's reference is
``stale``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (BENCH_DIR, SUITE_DIR, build_deck, child_env,
                    deck_count, median, parallel_map)
from oracle import judge, reference_served, served_signature
from report import RunOutcome
from spans import Span, load_spans

ENDPOINTS = ("analyze", "check", "query", "slice")
CLIENTS = 2
SETUP_REPEATS = 5
REQUEST_TIMEOUT = 60.0
START_TIMEOUT = 60.0

_MAIN = re.compile(r"\bmain\s*\([^)]*\)\s*\{")
_GLOBALS = "int bench_n, bench_x, bench_y; int *bench_p, *bench_q;"
_PROBE = "bench_p = &BENCH_TARGET; *bench_p = 1; bench_n = {serial};"
_BODIES = (_PROBE, _PROBE + " bench_q = bench_p;")
_HEADERS = ("bench_x", "bench_y")


@dataclass
class Target:
    """One client-owned program copy and its current version."""

    client: int
    path: Path
    original: str
    body: int = 0
    header: int = 0
    #: Body edits so far; the constant the probe statement assigns.
    serial: int = 0
    criterion: str = ""
    refs: Dict[Tuple[int, int], dict] = field(default_factory=dict)

    @property
    def header_path(self) -> Path:
        return self.path.with_suffix(".h")

    def render(self) -> None:
        """Write the current body and header versions to disk."""
        match = _MAIN.search(self.original)
        head = (f'#include "{self.header_path.name}"\n{_GLOBALS}\n'
                + self.original[:match.end()] + "\n")
        self.path.write_text(
            head + _BODIES[self.body].format(serial=self.serial) + "\n"
            + self.original[match.end():])
        self.header_path.write_text(
            f"#define BENCH_TARGET {_HEADERS[self.header]}\n")
        line = head.count("\n") + 1
        self.criterion = f"{self.path.name}:{line}"

    def edit(self, kind: str) -> None:
        if kind == "body":
            self.body ^= 1
            self.serial += 1
        else:
            self.header ^= 1
        self.render()

    def request_body(self, endpoint: str) -> dict:
        body = {"file": str(self.path)}
        if endpoint == "query":
            body["function"] = "main"
        elif endpoint == "slice":
            body["criterion"] = self.criterion
        return body

    def expected(self, endpoint: str) -> Tuple[dict, List[dict]]:
        """The current version's reference and every other version's."""
        current = (self.body, self.header)
        others = [refs[endpoint] for state, refs in sorted(self.refs.items())
                  if state != current]
        return self.refs[current][endpoint], others


def make_targets(root: Path) -> List[Target]:
    """Each client's own copy of every suite program, so both clients
    carry the same load whatever the seed."""
    from repro.suite.registry import PROGRAM_NAMES

    targets = []
    for client in range(CLIENTS):
        folder = root / f"client{client}"
        folder.mkdir()
        for name in sorted(PROGRAM_NAMES):
            original = (SUITE_DIR / f"{name}.c").read_text()
            targets.append(Target(client, folder / f"{name}_c{client}.c",
                                  original))
    return targets


def _target_references(job: Tuple[Target, Tuple[int, ...]]) -> dict:
    target, headers = job
    refs = {}
    for body in (0, 1):
        for header in headers:
            target.body, target.header = body, header
            target.render()
            refs[(body, header)] = reference_served(target.path,
                                                    target.criterion)
    return refs


def compute_references(targets: List[Target], headers: Tuple[int, ...]
                       ) -> None:
    """Every (body, header) version of every target, cache off."""
    all_refs = parallel_map(_target_references,
                            [(target, headers) for target in targets])
    for target, refs in zip(targets, all_refs):
        target.refs = refs
        target.body = target.header = 0
        target.render()


# -- the daemon --------------------------------------------------------------


class Daemon:
    """A ``repro serve`` process (and its pool workers) on a free port."""

    def __init__(self, workspace: Path, cache: Path,
                 spans_dir: Optional[Path] = None) -> None:
        env = child_env(workspace, cache)
        args = ["serve", "--port", "0"]
        if spans_dir is None:
            argv = [sys.executable, "-m", "repro"] + args
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                    str(spans_dir), "--"] + args
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=workspace, env=env, stdout=subprocess.PIPE,
            stderr=open(workspace / "tmp" / "serve.stderr", "ab"),
            stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                match = re.search(rb"http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"daemon did not start: {line!r}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)

    def pids(self) -> List[int]:
        """The daemon and its live pool workers."""
        pids = [self.proc.pid]
        try:
            for task in os.listdir(f"/proc/{self.proc.pid}/task"):
                with open(f"/proc/{self.proc.pid}/task/{task}/children") as f:
                    pids.extend(int(p) for p in f.read().split())
        except OSError:
            pass
        return pids

    def cpu_seconds(self) -> float:
        """User+sys CPU of the daemon, its live workers, and workers it
        has already reaped."""
        tick = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
            if pid == self.proc.pid:
                total += int(fields[13]) + int(fields[14])
        return total / tick

    def peak_rss_kb(self) -> int:
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then make sure the whole
        process group is gone and reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        # Pool workers are the daemon's children, not ours: wait until
        # none of the session's processes is left.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def post(conn: http.client.HTTPConnection, endpoint: str,
         body: dict) -> Tuple[int, bytes]:
    data = json.dumps(body).encode()
    conn.request("POST", f"/{endpoint}", body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _answer(endpoint: str, status: int, raw: bytes,
            target: Target) -> Tuple[Optional[str], str, dict]:
    """(failure reason or None, detail, payload)."""
    if status != 200:
        return "status", f"{endpoint} {target.path.name} -> {status}", {}
    try:
        payload = json.loads(raw)
        got = served_signature(endpoint, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable", f"{endpoint} {target.path.name}: {exc}", {}
    want, others = target.expected(endpoint)
    reason = judge(got, want, others)
    return reason, (f"{endpoint} {target.path.name} at "
                    f"body={target.body} header={target.header}"), payload


def setup_daemon(workspace: Path, targets: List[Target],
                 spans_dir: Optional[Path], tag: str
                 ) -> Tuple[Daemon, List[float]]:
    """Spawn until the first correct answer, plus one /analyze pass over
    the targets; repeated with fresh caches, the last daemon stays."""
    times = []
    daemon = None
    try:
        for rep in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            last = rep == SETUP_REPEATS - 1
            daemon = Daemon(workspace,
                            workspace / f"serve-cache-{tag}{rep}",
                            spans_dir if last else None)
            conn = daemon.connect()
            try:
                for target in targets:
                    status, raw = post(conn, "analyze",
                                       target.request_body("analyze"))
                    reason, detail, _ = _answer("analyze", status, raw,
                                                target)
                    if reason is not None:
                        raise RuntimeError(
                            f"set-up answer failed: {detail}")
            finally:
                conn.close()
            times.append(time.perf_counter() - daemon.spawned)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, times


# -- the run -----------------------------------------------------------------


@dataclass
class Sample:
    endpoint: str
    target: Target
    start: float
    end: float
    reason: Optional[str]
    detail: str
    payload: dict
    nbytes: int


def _client(daemon: Daemon, targets: List[Target], seed: int, client: int,
            decks: int, edit_kinds: Tuple[str, ...], samples: List[Sample],
            lock: threading.Lock) -> None:
    mine = [t for t in targets if t.client == client]
    pairs = [(t, e) for t in mine for e in ENDPOINTS]
    conn = daemon.connect()
    try:
        for index in range(decks):
            deck = build_deck(pairs, f"{seed}:{client}", index)
            rng = random.Random(f"edits:{seed}:{client}:{index}")
            edits = {}
            for target in mine:
                # The first edit precedes the target's first request, so
                # every endpoint answers a new version in every deck.
                first, *rest = [i for i, (t, _) in enumerate(deck)
                                if t is target]
                slots = [first] + rng.sample(rest, len(edit_kinds) - 1)
                for slot, kind in zip(slots, edit_kinds):
                    edits[slot] = kind
            for slot, (target, endpoint) in enumerate(deck):
                if slot in edits:
                    target.edit(edits[slot])
                start = time.perf_counter()
                try:
                    status, raw = post(conn, endpoint,
                                       target.request_body(endpoint))
                except (OSError, http.client.HTTPException) as exc:
                    end = time.perf_counter()
                    conn.close()
                    conn = daemon.connect()
                    reason = ("timeout" if isinstance(exc, TimeoutError)
                              else "status")
                    sample = Sample(endpoint, target, start, end, reason,
                                    f"{endpoint}: {exc}", {}, 0)
                else:
                    end = time.perf_counter()
                    reason, detail, payload = _answer(endpoint, status, raw,
                                                      target)
                    sample = Sample(endpoint, target, start, end, reason,
                                    detail, payload, len(raw))
                with lock:
                    samples.append(sample)
    finally:
        conn.close()


@dataclass
class ServeWorkload:
    #: The edits every target takes per deck.
    edit_kinds: Tuple[str, ...]
    deck_seconds: float
    min_decks: int

    def run(self, workspace: Path, seed: int, seconds: float,
            trace: bool) -> RunOutcome:
        targets = make_targets(workspace)
        compute_references(targets,
                           (0, 1) if "header" in self.edit_kinds else (0,))
        # A traced run measures its untraced and traced passes with the
        # fewest decks, as the CLI workloads trace one deck.
        decks = (self.min_decks if trace else
                 deck_count(seconds, self.deck_seconds, self.min_decks))
        outcome = RunOutcome(per_pair=decks)
        samples, metrics = _measure(workspace, targets, seed, decks,
                                    self.edit_kinds, outcome, None)
        for sample in samples:
            outcome.latencies.append(sample.end - sample.start)
            outcome.tally.record(sample.reason, sample.detail,
                                 kind=sample.endpoint)
        if trace:
            # The same decks again from the first versions, against a
            # traced daemon; the untraced pass above is the baseline.
            spans_dir = workspace / "spans"
            spans_dir.mkdir()
            for target in targets:
                target.body = target.header = target.serial = 0
                target.render()
            samples, metrics = _measure(workspace, targets, seed, decks,
                                        self.edit_kinds, RunOutcome(),
                                        spans_dir)
            outcome.traced = attribute(samples, spans_dir)
            outcome.layer_extra = _client_side_layers(samples, metrics)
            outcome.layer_extra.update(pool_layers(outcome.traced))
            outcome.layer_extra["trace.matched_frac"] = (
                len(outcome.traced) / len(samples))
        return outcome


def _measure(workspace: Path, targets: List[Target], seed: int, decks: int,
             edit_kinds: Tuple[str, ...], outcome: RunOutcome,
             spans_dir: Optional[Path]
             ) -> Tuple[List[Sample], dict]:
    """Set up a daemon and run the decks; fills the outcome's set-up,
    wall, CPU and RSS, and returns the samples in start order and the
    daemon's final ``/metrics``."""
    tag = "traced" if spans_dir else "plain"
    daemon, outcome.setup = setup_daemon(workspace, targets, spans_dir, tag)
    samples: List[Sample] = []
    try:
        cpu_before = daemon.cpu_seconds()
        lock = threading.Lock()
        threads = [threading.Thread(
            target=_client, args=(daemon, targets, seed, client, decks,
                                  edit_kinds, samples, lock))
            for client in range(CLIENTS)]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.deck_wall = time.perf_counter() - wall_start
        outcome.cpu_seconds = daemon.cpu_seconds() - cpu_before
        outcome.peak_rss_kb = daemon.peak_rss_kb()
        metrics = _get_metrics(daemon)
    finally:
        daemon.stop()
    expected = decks * len(targets) * len(ENDPOINTS)
    if len(samples) != expected:
        raise RuntimeError(f"{len(samples)} of {expected} requests ran")
    return sorted(samples, key=lambda s: s.start), metrics


def _get_metrics(daemon: Daemon) -> dict:
    conn = daemon.connect()
    try:
        conn.request("GET", "/metrics")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _client_side_layers(samples: List[Sample], metrics: dict) -> dict:
    n = len(samples)
    tiers = {"solution": 0, "summary": 0, "lowering": 0, "cold": 0}
    coalesced = 0
    for sample in samples:
        tier = sample.payload.get("tier")
        if tier in tiers:
            tiers[tier] += 1
        coalesced += bool(sample.payload.get("coalesced"))
    out = {f"serve.core.tier.{k}_ratio": v / n for k, v in tiers.items()}
    out["serve.core.coalesced"] = coalesced
    out["serve.core.shed"] = metrics.get("shed", 0)
    out["serve.payload.bytes"] = sum(s.nbytes for s in samples) / n
    return out


# -- attributing daemon spans to client requests ----------------------------


def attribute(samples: List[Sample], spans_dir: Path) -> List[tuple]:
    """One span tree per client request, rooted at ``serve.http``.

    The daemon's ``serve.core`` span for a request is matched by
    endpoint, file and time containment; each ``runner.pool`` round trip
    adopts the worker-side ``runner.worker`` span of the same task that
    ran inside it, so the round trip's self time is the pool's IPC and
    queueing."""
    merged = load_spans(str(spans_dir / "daemon.json"))
    offset = len(merged)
    for path in sorted(spans_dir.glob("worker-*.json")):
        # One line per task; parent indices are local to the line.
        for line in path.read_text().splitlines():
            base = len(merged)
            for row in json.loads(line):
                span = Span.from_list(row)
                if span.parent is not None:
                    span.parent += base
                merged.append(span)
    pools = [(j, s) for j, s in enumerate(merged[:offset])
             if s.name == "runner.pool"]
    for span in merged[offset:]:
        if span.name != "runner.worker":
            continue
        for j, pool in pools:
            if (pool.request.split("|")[1] == span.request
                    and pool.start <= span.start and span.end <= pool.end):
                span.parent = j
                break
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(merged):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    handles = [(i, s) for i, s in enumerate(merged)
               if s.name == "serve.core" and s.parent is None]
    used = set()
    traced = []
    for sample in samples:
        key = f"{sample.endpoint}|{sample.target.path}"
        match = next((i for i, s in handles if i not in used
                      and s.request.startswith(key)
                      and sample.start <= s.start and s.end <= sample.end),
                     None)
        if match is None:
            continue
        used.add(match)
        tree = [Span("serve.http", sample.start, sample.end)]
        index_map = {}
        stack = [(match, 0)]
        while stack:
            old, new_parent = stack.pop()
            span = merged[old]
            index_map[old] = len(tree)
            tree.append(Span(span.name, span.start, span.end, new_parent,
                             span.request, dict(span.counters)))
            stack.extend((c, index_map[old]) for c in children.get(old, ()))
        traced.append((tree, sample.end - sample.start))
    return traced


def pool_layers(traced: List[tuple]) -> dict:
    """Round trip and IPC (round trip minus worker compute) per pool call."""
    roundtrips, ipc = [], []
    for tree, _ in traced:
        for i, span in enumerate(tree):
            if span.name != "runner.pool":
                continue
            worker = sum(s.end - s.start for s in tree if s.parent == i)
            roundtrips.append(span.end - span.start)
            ipc.append(span.end - span.start - worker)
    return {"runner.pool.roundtrip_ms": median(roundtrips) * 1e3
            if roundtrips else 0.0,
            "runner.pool.ipc_ms": median(ipc) * 1e3 if ipc else 0.0}


WORKLOADS = {
    "serve-edit": ServeWorkload(("header", "body"), deck_seconds=8.0,
                                min_decks=3),
    "serve-body": ServeWorkload(("body",), deck_seconds=8.0,
                                min_decks=3),
}
