"""Span recording, layer wrapping and self-time accounting.

A span is one call into a layer: a name, a start and end on the shared
monotonic clock (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux,
so parent and child processes read the same clock), the index of the
span that caused it, the request it belongs to, and the counters the
layer's return value yields.  Spans live in memory and are written out
once, when the traced process ends.

The benchmark never edits the program: :func:`install` replaces public
functions of the ``repro`` modules with wrappers that open and close a
span around the original call, in every module that bound the function
by name, so the traced process runs the same code path as an untraced
one.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: str = ""
    counters: Dict[str, float] = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request,
                self.counters]

    @classmethod
    def from_list(cls, row: Sequence) -> "Span":
        name, start, end, parent, request, counters = row
        return cls(name, start, end, parent, request, dict(counters))


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self, request: str = "") -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.default_request = request

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str) -> None:
        """Tag the spans this thread opens from now on."""
        self._local.request = request

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def open(self, name: str, start: Optional[float] = None) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter() if start is None else start,
                    parent=stack[-1] if stack else None,
                    request=getattr(self._local, "request",
                                    self.default_request))
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None,
              **counters: float) -> None:
        span = self.spans[index]
        span.end = time.perf_counter() if end is None else end
        span.counters.update(counters)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None,
             only_under: Optional[Tuple[str, ...]] = None) -> Callable:
        """``fn`` with a span around each call.

        ``count(result, args, kwargs)`` returns counters for the span;
        ``only_under`` limits spans to calls made while one of the named
        spans is innermost (``json.dumps`` is an encode only when the
        CLI or the daemon's payload code calls it)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None:
                top = self.current()
                if top is None or top.name not in only_under:
                    return fn(*args, **kwargs)
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counters = {}
                if count is not None:
                    try:
                        counters = count(result, args, kwargs)
                    except Exception:  # noqa: BLE001 - counters are best effort
                        counters = {}
                self.close(index, **counters)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_list() for span in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span.from_list(row) for row in json.load(handle)]


# -- self time ----------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [max(0.0, (span.end - span.start)
                - covered(children.get(i, ()), span.start, span.end))
            for i, span in enumerate(spans)]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, calls and counters."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
        for key, value in span.counters.items():
            row[key] = row.get(key, 0) + value
    return table


# -- installing wrappers -------------------------------------------------


def _resolve(dotted: str):
    """``module:attr`` or ``module:Class.method`` → (owner, attr, value)."""
    module_name, _, qual = dotted.partition(":")
    owner = sys.modules[module_name]
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _apply(tracer: Tracer, entries: Sequence[tuple], prefix: str) -> None:
    """Wrap ``entries`` (all in loaded modules) and rebind every loaded
    ``prefix`` module's reference to an original onto its wrapper."""
    swaps: Dict[int, Callable] = {}
    for entry in entries:
        target, name = entry[0], entry[1]
        count = entry[2] if len(entry) > 2 else None
        only_under = entry[3] if len(entry) > 3 else None
        owner, attr, original = _resolve(target)
        traced = tracer.wrap(original, name, count, only_under)
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            swaps[id(original)] = traced
    if not swaps:
        return
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith(prefix) or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            traced = swaps.get(id(value))
            if traced is not None:
                namespace[key] = traced


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Applies pending wrappers right after their module first executes,
    so tracing never imports a module the untraced run would not."""

    def __init__(self, pending: Dict[str, List[tuple]], apply) -> None:
        self.pending = pending
        self.apply = apply

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            self.apply(self.pending.pop(name, ()))

        spec.loader.exec_module = exec_module
        return spec


def install(tracer: Tracer, layers: Sequence[tuple],
            prefix: str = "repro") -> None:
    """Wrap every ``(module:qualname, span_name[, count[, only_under]])``.

    A wrapper replaces the function on its defining module (or class)
    and in every loaded ``prefix`` module that bound it with
    ``from x import f``.  Targets in modules not yet imported are
    wrapped when the program first imports them."""
    ready, pending = [], {}
    for entry in layers:
        module_name = entry[0].partition(":")[0]
        if module_name in sys.modules:
            ready.append(entry)
        else:
            pending.setdefault(module_name, []).append(entry)
    _apply(tracer, ready, prefix)
    if pending:
        sys.meta_path.insert(0, _WrapOnImport(
            pending, lambda entries: _apply(tracer, entries, prefix)))
