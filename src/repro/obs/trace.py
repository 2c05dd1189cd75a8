"""Span-based structured tracing with Chrome trace-event export.

Design constraints, in priority order:

* **Disabled must be near-free.**  Every pipeline hook is
  ``with span("name", ...):`` -- when tracing is off that is one module
  flag check plus entering a shared no-op context manager.  No span is
  ever emitted from a per-cycle simulation loop; instrumentation lives
  at stage granularity (synthesize, verify case, FI batch, ...).

* **Fork-safe per-process buffering.**  Spans append to a module-level
  buffer tagged with the owning pid.  A pool worker forked mid-trace
  inherits the parent's buffer; the first span recorded (or context
  adopted) in the child detects the pid change and resets the buffer,
  so parent events are never shipped back twice.

* **One way back from a worker.**  ``current_context()`` captures the
  trace id and the innermost open span; ``TracedTask`` wraps the
  picklable task function of every worker process -- the one-shot
  pools' and the campaign service's shards' -- so a worker adopts the
  context and returns ``(result, (spans, metrics delta))``, and the
  parent folds both in with ``absorb_telemetry``.

Timestamps are wall-clock microseconds (``time.time()``), so events
from forked or spawned workers land on a common axis; durations use
``time.perf_counter()`` for resolution.  Export normalises timestamps
to start near zero.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import REGISTRY, MetricsRegistry

__all__ = [
    "span", "record_span", "tracing_enabled", "enable_tracing",
    "disable_tracing", "current_context", "adopt_context", "event_mark",
    "events_since", "absorb_telemetry", "trace_events", "TracedTask",
    "write_chrome_trace", "stage_summary", "format_stage_table",
]

#: fast-path flag -- the only cost a disabled hook pays
_ENABLED = False

#: buffered Chrome trace events ("X" complete events) for this process
_EVENTS: List[Dict[str, Any]] = []

#: pid that owns the current buffer (fork detection)
_BUFFER_PID = 0

#: trace id shared by every process participating in one capture
_TRACE_ID = ""

_COUNTER = itertools.count(1)
_TLS = threading.local()


def _new_id() -> str:
    return f"{os.getpid():x}.{next(_COUNTER):x}"


def _parent_id() -> str:
    return getattr(_TLS, "parent", "")


def _reset_if_forked() -> None:
    """Drop an inherited buffer the first time a forked child records."""
    global _BUFFER_PID
    pid = os.getpid()
    if pid != _BUFFER_PID:
        del _EVENTS[:]
        _BUFFER_PID = pid


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def note(self, **attrs):
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent", "_t0_wall", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs

    def note(self, **attrs):
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        _reset_if_forked()
        self.span_id = _new_id()
        self.parent = _parent_id()
        _TLS.parent = self.span_id
        self._t0_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self._t0
        _TLS.parent = self.parent
        args = {"trace_id": _TRACE_ID, "span_id": self.span_id}
        if self.parent:
            args["parent_id"] = self.parent
        for key, value in self.attrs.items():
            args[key] = value if isinstance(
                value, (str, int, float, bool, type(None))) else str(value)
        if exc_type is not None:
            args["error"] = exc_type.__name__
        _EVENTS.append({
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": int(self._t0_wall * 1e6),
            "dur": max(int(dur * 1e6), 1),
            "pid": os.getpid(),
            "tid": threading.get_ident() % 2**31,
            "args": args,
        })
        return False


def span(name: str, **attrs: Any):
    """A context manager timing one pipeline stage.

    Returns a shared no-op object when tracing is disabled, so call
    sites never need their own enabled check.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name, attrs)


def record_span(name: str, t0_wall: float, t1_wall: float,
                **attrs: Any) -> None:
    """Record a span retroactively from wall-clock endpoints.

    Used where a stage's lifetime does not match any single call frame
    (e.g. a service job running across scheduler ticks).
    """
    if not _ENABLED:
        return
    _reset_if_forked()
    args = {"trace_id": _TRACE_ID, "span_id": _new_id()}
    parent = _parent_id()
    if parent:
        args["parent_id"] = parent
    for key, value in attrs.items():
        args[key] = value if isinstance(
            value, (str, int, float, bool, type(None))) else str(value)
    _EVENTS.append({
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": int(t0_wall * 1e6),
        "dur": max(int((t1_wall - t0_wall) * 1e6), 1),
        "pid": os.getpid(),
        "tid": threading.get_ident() % 2**31,
        "args": args,
    })


def tracing_enabled() -> bool:
    return _ENABLED


def enable_tracing(trace_id: Optional[str] = None) -> str:
    """Turn tracing on for this process and start a fresh buffer."""
    global _ENABLED, _TRACE_ID, _BUFFER_PID
    _TRACE_ID = trace_id or f"t{os.getpid():x}.{int(time.time() * 1e3):x}"
    del _EVENTS[:]
    _BUFFER_PID = os.getpid()
    _TLS.parent = ""
    _ENABLED = True
    return _TRACE_ID


def disable_tracing() -> None:
    """Turn tracing off and drop the buffer -- export first."""
    global _ENABLED
    _ENABLED = False
    del _EVENTS[:]
    _TLS.parent = ""


def current_context() -> Optional[Dict[str, str]]:
    """The propagation payload for child processes, or None when off."""
    if not _ENABLED:
        return None
    return {"trace_id": _TRACE_ID, "parent": _parent_id()}


def adopt_context(ctx: Optional[Dict[str, str]]) -> None:
    """Join the capture described by *ctx* (a ``current_context()``
    payload shipped from the parent process)."""
    global _ENABLED, _TRACE_ID
    if not ctx:
        return
    _reset_if_forked()
    _TRACE_ID = ctx.get("trace_id", "")
    _TLS.parent = ctx.get("parent", "")
    _ENABLED = True


def event_mark() -> int:
    """Current buffer length; pair with :func:`events_since`."""
    _reset_if_forked()
    return len(_EVENTS)


def events_since(mark: int) -> List[Dict[str, Any]]:
    """Events recorded after *mark*, ready to ship to the parent."""
    return _EVENTS[mark:]


def trace_events() -> List[Dict[str, Any]]:
    """A snapshot of the buffered events (absorbed workers included)."""
    return list(_EVENTS)


#: what a worker task ships back beside its result: the spans it
#: recorded and the metrics registry's delta over it
Telemetry = Tuple[List[Dict[str, Any]], Dict[str, Any]]


class TracedTask:
    """The picklable wrapper of every task a worker process runs.

    A call adopts the parent's trace context *ctx* (when the parent
    traces), runs ``fn(task)`` and returns ``(result, telemetry)``:
    the spans the task recorded and the metrics registry's delta over
    it (``REGISTRY.diff``), so counts made in the worker -- compile
    caches, native builds, FI fallbacks -- reach the parent too, which
    folds them in with :func:`absorb_telemetry`.
    """

    __slots__ = ("fn", "ctx")

    def __init__(self, fn, ctx: Optional[Dict[str, str]]):
        self.fn = fn
        self.ctx = ctx

    def __call__(self, task) -> Tuple[Any, Telemetry]:
        adopt_context(self.ctx)
        mark = event_mark()
        before = REGISTRY.snapshot()
        result = self.fn(task)
        delta = MetricsRegistry.diff(before, REGISTRY.snapshot())
        return result, (events_since(mark), delta)


def absorb_telemetry(telemetry: Telemetry) -> None:
    """Fold a worker's :class:`TracedTask` telemetry into this process:
    its metrics delta into ``REGISTRY`` and, while tracing, its spans
    into the buffer."""
    spans, delta = telemetry
    REGISTRY.merge(delta)
    if _ENABLED and spans:
        _reset_if_forked()
        _EVENTS.extend(spans)


def write_chrome_trace(path: str) -> str:
    """Export the buffer as Chrome trace-event JSON and return *path*.

    The document loads directly in ``chrome://tracing`` and Perfetto;
    timestamps are shifted so the capture starts near zero, and each
    participating process gets a ``process_name`` metadata row.
    """
    events = sorted(_EVENTS, key=lambda e: (e["ts"], e["pid"]))
    base = events[0]["ts"] if events else 0
    out: List[Dict[str, Any]] = []
    seen_pids: List[int] = []
    for event in events:
        if event["pid"] not in seen_pids:
            seen_pids.append(event["pid"])
        shifted = dict(event)
        shifted["ts"] = event["ts"] - base
        out.append(shifted)
    meta = []
    for pid in seen_pids:
        label = "repro" if pid == os.getpid() else f"repro-worker-{pid}"
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 0, "args": {"name": label}})
    doc = {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": _TRACE_ID, "generator": "repro.obs"},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def stage_summary(events: Optional[Iterable[Dict[str, Any]]] = None,
                  ) -> List[Tuple[str, int, float]]:
    """Aggregate buffered spans into ``(name, count, total_seconds)``
    rows, slowest stage first."""
    table: Dict[str, List[float]] = {}
    for event in (_EVENTS if events is None else events):
        if event.get("ph") != "X":
            continue
        row = table.setdefault(event["name"], [0, 0.0])
        row[0] += 1
        row[1] += event["dur"] / 1e6
    rows = [(name, int(n), total) for name, (n, total) in table.items()]
    rows.sort(key=lambda r: -r[2])
    return rows


def format_stage_table(events: Optional[Iterable[Dict[str, Any]]] = None,
                       ) -> str:
    """A per-stage wall-time table for ``write_*_artifacts`` reports.

    Beside a stage's wall it prints the summed ``cpu_s`` of its spans
    that carry one: a ``native.cc`` span runs from the build's start to
    its reap, so its wall can cover other work, while its ``cpu_s`` is
    the compiler's own time."""
    events = list(_EVENTS if events is None else events)
    rows = stage_summary(events)
    if not rows:
        return "stage wall time: no spans recorded (tracing disabled?)\n"
    cpu: Dict[str, float] = {}
    for event in events:
        if event.get("ph") == "X" and "cpu_s" in event.get("args", {}):
            cpu[event["name"]] = (cpu.get(event["name"], 0.0)
                                  + event["args"]["cpu_s"])
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'stage'.ljust(width)}  {'count':>6}  {'total_s':>9}  "
             f"{'cpu_s':>9}"]
    for name, count, total in rows:
        line = f"{name.ljust(width)}  {count:>6}  {total:>9.3f}"
        if name in cpu:
            line += f"  {cpu[name]:>9.3f}"
        lines.append(line)
    return "\n".join(lines) + "\n"
