"""Unified observability layer: span tracing and a metrics registry.

``repro.obs`` is deliberately a *leaf* package -- it imports nothing
from the rest of ``repro`` at module level, so the kernel, the flow,
the verification harness, the FI runner and the campaign service can
all hook into it without creating import cycles.

Two halves:

``repro.obs.trace``
    A span-based structured tracer.  Pipeline stages wrap themselves in
    ``with span("synthesize", design=digest):`` context managers; spans
    are buffered per process and exported as Chrome trace-event JSON
    (loadable in ``chrome://tracing`` or https://ui.perfetto.dev).
    Trace/span ids propagate through ``TracedTask``, the one wrapper of
    every worker task (``parallel_map`` pools and service shards), so
    worker spans nest under the parent campaign.
    When tracing is disabled (the default) every hook degrades to a
    single module-flag check returning a shared no-op span.

``repro.obs.metrics``
    A process-safe metrics registry (counters, gauges, fixed-bucket
    histograms) with snapshot/diff/merge semantics for cross-process
    aggregation and a Prometheus text-exposition renderer.  A worker
    task's registry delta comes back beside its spans, through the same
    ``TracedTask``, and ``absorb_telemetry`` folds both in.
"""

from .trace import (  # noqa: F401
    TracedTask,
    absorb_telemetry,
    adopt_context,
    current_context,
    disable_tracing,
    enable_tracing,
    event_mark,
    events_since,
    record_span,
    span,
    stage_summary,
    format_stage_table,
    trace_events,
    tracing_enabled,
    write_chrome_trace,
)
from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
    REGISTRY,
    KERNEL_STATS,
    record_kernel_stats,
    render_prometheus,
)
