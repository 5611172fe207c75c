"""Answer signatures, reference answers and the failure tally.

Every answer is reduced to a small, deterministic *signature* and
compared with the reference signature for that exact input version:

* CLI ``analyze``: the pair census and indirect-operation counts per
  flavor;
* CLI ``check``: the findings digest and per-checker counts per flavor;
* CLI ``slice``: the slice digest and size;
* daemon ``/analyze``: the solution digest per flavor; ``/check``: the
  findings digest per flavor; ``/query``: the operations list;
  ``/slice``: the slice digest and size.

References for the suite programs are recorded once
(``expected_suite.json``); references for generated and edited inputs
are computed in-process with the lowering cache off and no daemon,
outside every timed window.  A mismatch is a failed request with a
reason; it is never fatal.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

#: Failure reasons, in the order the report lists them.
REASONS = ("exit", "timeout", "status", "unreadable", "wrong", "stale")


# -- signatures of CLI outputs ------------------------------------------


def analyze_signature(doc: dict) -> dict:
    """From ``repro analyze --format json`` (one program)."""
    out = {}
    for flavor, entry in sorted(doc["flavors"].items()):
        out[flavor] = {
            "pairs": entry["pairs"],
            "reads": [entry["indirect_reads"]["total"],
                      entry["indirect_reads"]["max"]],
            "writes": [entry["indirect_writes"]["total"],
                       entry["indirect_writes"]["max"]],
        }
    return out


def check_signature(doc: dict) -> dict:
    """From ``repro check --flavor all --format json`` (one program)."""
    if doc.get("errors") or len(doc["programs"]) != 1:
        raise ValueError("check output has errors or no single program")
    out = {}
    for flavor, entry in sorted(doc["programs"][0]["flavors"].items()):
        counts: Dict[str, int] = {}
        for finding in entry["findings"]:
            counts[finding["checker"]] = counts.get(finding["checker"], 0) + 1
        out[flavor] = {"digest": entry["digest"],
                       "by_checker": dict(sorted(counts.items()))}
    return out


def slice_signature(doc: dict) -> dict:
    """From ``repro slice --format json`` (one program)."""
    if doc.get("errors") or len(doc["slices"]) != 1:
        raise ValueError("slice output has errors or no single slice")
    sl = doc["slices"][0]["slice"]
    return {"digest": sl["digest"], "size": sl["size"]}


CLI_SIGNATURES = {"analyze": analyze_signature, "check": check_signature,
                  "slice": slice_signature}


def cli_signature(command: str, stdout: bytes) -> dict:
    """Signature of one CLI answer; raises ``ValueError`` if unreadable."""
    try:
        doc = json.loads(stdout)
        return CLI_SIGNATURES[command](doc)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"unexpected {command} output: {exc}") from None


# -- signatures of daemon answers ---------------------------------------


def served_signature(endpoint: str, payload: dict) -> dict:
    if endpoint == "analyze":
        return {f: e["digest"] for f, e in sorted(payload["flavors"].items())}
    if endpoint == "check":
        return {f: e["digest"] for f, e in sorted(payload["flavors"].items())}
    if endpoint == "query":
        return {"operations": payload["operations"]}
    if endpoint == "slice":
        return {"digest": payload["slice"]["digest"],
                "size": payload["slice"]["size"]}
    raise ValueError(f"unknown endpoint {endpoint!r}")


# -- reference computation (in-process, cache off, no daemon) -----------


def pick_criterion(path, program=None) -> str:
    """A deterministic slice criterion ``file.c:LINE`` for a program.

    The line of the middle indirect memory operation in source order —
    it exists in every suite and generated program and yields a
    non-trivial backward slice."""
    from pathlib import Path

    from repro.frontend.lower import lower_file

    if program is None:
        program = lower_file(path)
    base = Path(path).name
    lines = sorted({int(node.origin.rsplit(":", 1)[1])
                    for graph in program.functions.values()
                    for node in graph.memory_operations()
                    if node.is_indirect and node.origin
                    and node.origin.rsplit(":", 1)[0].endswith(base)})
    if not lines:
        raise ValueError(f"{base}: no indirect memory operation to slice")
    return f"{base}:{lines[len(lines) // 2]}"


def reference_cli(path, criterion: Optional[str] = None) -> dict:
    """Reference signatures of the three CLI commands for one file."""
    from repro.analysis.insensitive import analyze_insensitive
    from repro.analysis.sensitive import analyze_sensitive
    from repro.analysis.stats import indirect_op_stats, pair_census
    from repro.frontend.lower import lower_file
    from repro.runner import run_check_report, run_slice_report

    program = lower_file(path)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    analyze = {}
    for flavor, result in (("insensitive", ci), ("sensitive", cs)):
        census = pair_census(result)
        reads = indirect_op_stats(result, "read")
        writes = indirect_op_stats(result, "write")
        analyze[flavor] = {
            "pairs": {"pointer": census.pointer, "function": census.function,
                      "aggregate": census.aggregate, "store": census.store,
                      "total": census.total},
            "reads": [reads.total, reads.max_locations],
            "writes": [writes.total, writes.max_locations],
        }
    if criterion is None:
        criterion = pick_criterion(path, program)
    report = run_check_report(names=[], paths=[str(path)], flavors=FLAVORS,
                              cache=False)
    if not report.ok:
        raise RuntimeError(f"reference check failed: {report.errors}")
    check = check_signature({"programs": [{"flavors": {
        flavor: {"digest": _findings_digest(found),
                 "findings": [f.as_dict() for f in found]}
        for flavor, found in report.outcomes[0].findings.items()}}]})
    sliced = run_slice_report(names=[], paths=[str(path)],
                              criterion=criterion, cache=False)
    if not sliced.ok:
        raise RuntimeError(f"reference slice failed: {sliced.errors}")
    return {"criterion": criterion, "analyze": analyze, "check": check,
            "slice": slice_signature({"slices": [sliced.outcomes[0].payload]})}


def _findings_digest(found) -> str:
    from repro.analysis.checkers import findings_digest

    return findings_digest(found)


def reference_served(path, criterion: str) -> dict:
    """Reference signatures of the four daemon endpoints for one file
    (``/query`` is asked about ``main``, where the edits land)."""
    from repro.analysis.depgraph import build_depgraph
    from repro.analysis.slicing import slice_criterion
    from repro.frontend.lower import lower_file
    from repro.fuzz.oracle import solution_digest
    from repro.runner import _analyze_program, run_check_report

    program = lower_file(path)
    results = _analyze_program(program, FLAVORS, "batched")
    analyze = {f: solution_digest(r) for f, r in sorted(results.items())}
    report = run_check_report(names=[], paths=[str(path)], flavors=FLAVORS,
                              cache=False)
    if not report.ok:
        raise RuntimeError(f"reference check failed: {report.errors}")
    check = {f: _findings_digest(found) for f, found
             in sorted(report.outcomes[0].findings.items())}
    ci = results["insensitive"]
    operations = []
    for name, graph in sorted(ci.program.functions.items()):
        if name != "main":
            continue
        for node in graph.memory_operations():
            if not node.is_indirect:
                continue
            operations.append({
                "function": name, "kind": node.kind,
                "origin": node.origin or "",
                "locations": sorted(repr(p) for p in ci.op_locations(node))})
    sliced = slice_criterion(build_depgraph(ci), criterion, "backward")
    return {"analyze": analyze, "check": check,
            "query": {"operations": operations},
            "slice": {"digest": sliced.digest(), "size": sliced.size}}


# -- judging -------------------------------------------------------------


def judge(got: Optional[dict], want: dict,
          stale: Sequence[dict] = ()) -> Optional[str]:
    """``None`` when ``got`` matches ``want``; otherwise the reason.

    ``stale`` holds the references of earlier versions of the same
    input: an answer equal to one of them is ``stale``, any other
    mismatch is ``wrong``."""
    if got == want:
        return None
    if any(got == old for old in stale):
        return "stale"
    return "wrong"


class Tally:
    """Attempted and failed requests, failures by reason and by kind of
    request (CLI command or daemon endpoint)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {reason: 0 for reason in REASONS}
        self.by_kind: Dict[str, int] = {}
        self.examples: list = []

    def record(self, reason: Optional[str], detail: str = "",
               kind: str = "") -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.reasons[reason] += 1
        key = f"{kind}:{reason}"
        self.by_kind[key] = self.by_kind.get(key, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{reason}: {detail}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_frac": self.fail_frac,
                "reasons": {k: v for k, v in self.reasons.items() if v},
                "by_kind": dict(sorted(self.by_kind.items())),
                "examples": self.examples}
