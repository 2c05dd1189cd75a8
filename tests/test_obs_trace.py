"""The span tracer: lifecycle, nesting, cross-process propagation
and Chrome trace-event export."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.trace import (TracedTask, absorb_events, adopt_context,
                             current_context, disable_tracing,
                             enable_tracing, event_mark, events_since,
                             format_stage_table, record_span, span,
                             stage_summary, trace_events,
                             tracing_enabled, write_chrome_trace)
from tests.schema_lock import check_chrome_trace


@pytest.fixture()
def tracing():
    """Tracing enabled for one test, always disabled afterwards."""
    trace_id = enable_tracing()
    try:
        yield trace_id
    finally:
        disable_tracing()


def test_disabled_spans_are_noops():
    disable_tracing()
    assert not tracing_enabled()
    assert current_context() is None
    with span("anything", key="value") as sp:
        # the shared null span accepts notes and nests freely
        assert sp.note(more=1) is sp
        with span("nested"):
            pass
    assert trace_events() == []
    # every disabled span is the same singleton: zero allocation cost
    assert span("a") is span("b")


def test_span_records_event(tracing):
    with span("unit.work", design="src") as sp:
        sp.note(cells=7)
    events = trace_events()
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "unit.work"
    assert event["ph"] == "X"
    assert event["dur"] >= 1
    assert event["args"]["design"] == "src"
    assert event["args"]["cells"] == 7
    assert event["args"]["trace_id"] == tracing


def test_span_nesting_sets_parent(tracing):
    with span("outer") as outer:
        with span("inner"):
            pass
    inner_ev, outer_ev = trace_events()  # inner closes first
    assert inner_ev["name"] == "inner"
    assert inner_ev["args"]["parent_id"] == outer_ev["args"]["span_id"]
    assert "parent_id" not in outer_ev["args"]


def test_span_records_exception(tracing):
    with pytest.raises(ValueError):
        with span("failing"):
            raise ValueError("boom")
    (event,) = trace_events()
    assert event["args"]["error"] == "ValueError"


def test_record_span_retroactive(tracing):
    t0 = time.time() - 0.5
    record_span("post.hoc", t0, time.time(), engine="compiled")
    (event,) = trace_events()
    assert event["name"] == "post.hoc"
    assert event["dur"] >= 400_000  # at least ~0.4s in microseconds


def test_traced_task_ships_events(tracing):
    """The pool wrapper returns (result, events) and the parent
    absorbs them under the inherited context."""
    ctx = current_context()

    def work(x):
        with span("child.work"):
            return x * 2

    task = TracedTask(work, ctx)
    result, events = task(21)
    assert result == 42
    assert [e["name"] for e in events] == ["child.work"]
    absorb_events(events)
    assert any(e["name"] == "child.work" for e in trace_events())


def test_event_mark_and_since(tracing):
    with span("before"):
        pass
    mark = event_mark()
    with span("after"):
        pass
    new = events_since(mark)
    assert [e["name"] for e in new] == ["after"]


def test_adopt_context_joins_trace(tracing):
    ctx = current_context()
    disable_tracing()
    adopt_context(ctx)
    with span("adopted"):
        pass
    (event,) = trace_events()
    assert event["args"]["trace_id"] == ctx["trace_id"]
    disable_tracing()


def test_chrome_trace_export(tmp_path, tracing):
    with span("export.outer"):
        with span("export.inner"):
            pass
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    spans = check_chrome_trace(doc, "export")
    assert {e["name"] for e in spans} \
        == {"export.outer", "export.inner"}
    assert doc["otherData"]["trace_id"] == tracing
    # normalised timebase: the earliest span starts at ts == 0
    assert min(e["ts"] for e in spans) == 0


def test_stage_summary_orders_by_total(tracing):
    with span("slow"):
        time.sleep(0.02)
    with span("fast"):
        pass
    with span("fast"):
        pass
    summary = stage_summary()
    assert summary[0][0] == "slow"
    by_name = {name: (count, total) for name, count, total in summary}
    assert by_name["fast"][0] == 2


def test_stage_table_shows_span_cpu_beside_wall(tracing):
    """A stage whose spans carry ``cpu_s`` shows their sum beside its
    wall (a build's span can run far longer than its compiler); a stage
    without shows its wall alone, and the summary rows stay walls."""
    record_span("native.cc", 0.0, 1.2, cpu_s=0.15)
    record_span("native.cc", 2.0, 2.5, cpu_s=0.1)
    record_span("fi.batch", 3.0, 3.25)
    table = [line.split() for line in format_stage_table().splitlines()]
    assert table == [["stage", "count", "total_s", "cpu_s"],
                     ["native.cc", "2", "1.700", "0.250"],
                     ["fi.batch", "1", "0.250"]]
    assert [row[:2] for row in stage_summary()] == [("native.cc", 2),
                                                    ("fi.batch", 1)]
