"""Self time is span duration minus the part child spans cover."""

import sys
import types

import pytest

from spans import Span, Tracer, covered, install, layer_totals, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 5.0, 6.0, parent=0),
             Span("a.inner", 2.0, 3.5, parent=1)]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.0, 1.5])


def test_overlapping_children_count_once():
    # Two threads' children of one span overlap in time.
    spans = [Span("root", 0.0, 10.0),
             Span("x", 2.0, 6.0, parent=0),
             Span("y", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_times_sum_to_root_duration():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.inner", 2.0, 3.5, parent=1),
             Span("b", 5.0, 9.0, parent=0)]
    assert sum(self_times(spans)) == pytest.approx(10.0)
    table = layer_totals(spans)
    assert table["a"]["calls"] == 1
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_wrap_records_nesting_and_counters():
    tracer = Tracer(request="r1")
    inner = tracer.wrap(lambda x: [x] * x, "inner",
                        count=lambda out, a, k: {"n": len(out)})
    outer = tracer.wrap(lambda: inner(3), "outer")
    assert outer() == [3, 3, 3]
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].counters == {"n": 3}
    assert all(span.request == "r1" for span in tracer.spans)


def test_only_under_limits_spans():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: 1, "leaf", only_under=("cli",))
    leaf()
    assert tracer.spans == []
    tracer.wrap(lambda: leaf(), "cli")()
    assert [span.name for span in tracer.spans] == ["cli", "leaf"]


def test_install_rebinds_from_imports(monkeypatch):
    owner = types.ModuleType("repro_fake_owner")
    owner.work = lambda: 42
    user = types.ModuleType("repro_fake_user")
    user.work = owner.work
    monkeypatch.setitem(sys.modules, "repro_fake_owner", owner)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    tracer = Tracer()
    install(tracer, [("repro_fake_owner:work", "fake")], prefix="repro_fake")
    assert user.work() == 42 and owner.work() == 42
    assert [span.name for span in tracer.spans] == ["fake", "fake"]


def test_attribution_leaves_out_root_self_time_and_tracer():
    from report import attribution, layer_table

    # A 10 s request: the cli root covers 1-9, a layer 2-5 inside it,
    # the tracer's dump 9-9.5; 0-1 and 9.5-10 are in no span.
    spans = [Span("cli", 1.0, 9.0),
             Span("analysis.sensitive", 2.0, 5.0, parent=0),
             Span("trace.dump", 9.0, 9.5)]
    table = layer_table([(spans, 10.0)])
    got = attribution(table)
    assert got["trace.attributed_frac"] == pytest.approx(0.3)
    assert got["trace.root_self_ms"] == pytest.approx(5000.0)
    assert got["trace.tracer_ms"] == pytest.approx(500.0)
    assert got["trace.unattributed_ms"] == pytest.approx(1500.0)
