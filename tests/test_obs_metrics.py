"""The metrics registry: bucket-edge behaviour, reporting schema,
snapshot/diff/merge and Prometheus rendering."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (Histogram, LatencyHistogram,
                               MetricsRegistry, render_prometheus)
from tests.schema_lock import check_prometheus_text


# ----------------------------------------------------------------------
# histogram bucket edges
# ----------------------------------------------------------------------

def test_histogram_exact_bound_lands_in_its_bucket():
    """Bounds are inclusive upper edges: observing exactly a bound
    value must land in that bound's bucket, not the next one."""
    hist = Histogram()
    for bound in hist.bounds:
        hist.observe(bound)
    assert hist.buckets[:-1] == [1] * len(hist.bounds)
    assert hist.buckets[-1] == 0


def test_histogram_just_above_bound_spills_over():
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(1.0000001)
    assert hist.buckets == [0, 1, 0]


def test_histogram_overflow_bucket():
    hist = Histogram()
    hist.observe(hist.bounds[-1] + 1.0)
    hist.observe(1e9)
    assert hist.buckets[-1] == 2
    assert hist.count == 2


def test_histogram_zero_and_negative():
    hist = Histogram(bounds=(0.5, 1.0))
    hist.observe(0.0)
    hist.observe(-1.0)  # clock skew must not crash the histogram
    assert hist.buckets[0] == 2


def test_histogram_merge_requires_same_bounds():
    a = Histogram(bounds=(1.0,))
    b = Histogram(bounds=(2.0,))
    with pytest.raises(ValueError):
        a.merge(b)
    c = Histogram(bounds=(1.0,))
    c.observe(0.5)
    a.merge(c)
    assert a.count == 1 and a.buckets == [1, 0]


def test_latency_histogram_as_dict_schema():
    """The exact reporting shape the service metrics document locks."""
    hist = LatencyHistogram()
    hist.observe(0.009)    # <= 0.01
    hist.observe(0.01)     # edge: still the first bucket
    hist.observe(500.0)    # overflow
    doc = hist.as_dict()
    assert set(doc) == {"count", "sum_seconds", "buckets"}
    assert doc["count"] == 3
    assert doc["sum_seconds"] == pytest.approx(500.019)
    labels = [f"le_{b:g}" for b in hist.bounds] + ["le_inf"]
    assert list(doc["buckets"]) == labels
    assert doc["buckets"]["le_0.01"] == 2
    assert doc["buckets"]["le_inf"] == 1


def test_histogram_state_roundtrip():
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(0.5)
    hist.observe(3.0)
    clone = Histogram.from_state(hist.state())
    assert clone.buckets == hist.buckets
    assert clone.count == hist.count
    assert clone.sum == hist.sum


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------

def test_counter_labels_are_distinct_series():
    reg = MetricsRegistry()
    reg.counter("hits", cache="rtl").inc(3)
    reg.counter("hits", cache="gate").inc()
    assert reg.counter("hits", cache="rtl").value == 3
    assert reg.counter("hits", cache="gate").value == 1


def test_snapshot_diff_merge_roundtrip():
    """The worker protocol: snapshot before/after, ship the diff, the
    parent merges -- counters add, gauges overwrite, histograms add."""
    worker = MetricsRegistry()
    worker.counter("tasks").inc(5)  # pre-existing (e.g. forked state)
    before = worker.snapshot()
    worker.counter("tasks").inc(2)
    worker.gauge("depth").set(7)
    worker.histogram("lat", bounds=(1.0,)).observe(0.5)
    delta = MetricsRegistry.diff(before, worker.snapshot())

    parent = MetricsRegistry()
    parent.counter("tasks").inc(100)
    parent.merge(delta)
    assert parent.counter("tasks").value == 102  # not 107: only the delta
    assert parent.gauge("depth").value == 7
    assert parent.histogram("lat", bounds=(1.0,)).count == 1


def test_diff_of_identical_snapshots_is_empty():
    reg = MetricsRegistry()
    reg.counter("n").inc()
    snap = reg.snapshot()
    assert MetricsRegistry.diff(snap, snap) == {}


def test_merge_routes_kernel_counters_to_stats():
    """Kernel counters are collector-mirrored: a merged delta must land
    in KERNEL_STATS (where the collector reads from), not in a registry
    counter the next collector run would overwrite."""
    from repro.obs.metrics import KERNEL_STATS

    worker = MetricsRegistry()
    before = worker.snapshot()
    worker.counter("repro_kernel_delta_cycles_total").inc(11)
    delta = MetricsRegistry.diff(before, worker.snapshot())

    parent = MetricsRegistry()
    base = KERNEL_STATS[0]
    parent.merge(delta)
    assert KERNEL_STATS[0] == base + 11
    KERNEL_STATS[0] = base  # restore process state
    assert "repro_kernel_delta_cycles_total" not in \
        parent.snapshot()["counters"]


def test_merge_routes_compile_cache_counters_to_caches(monkeypatch):
    """Compile-cache counters are collector-mirrored too: a merged delta
    must land in the labelled cache's per-backend counters (where the
    collector reads from), not in a registry counter."""
    from repro import compile_cache
    from repro.compile_cache import CompileCache

    rtl = CompileCache()
    monkeypatch.setattr(compile_cache, "iter_caches",
                        lambda: (("rtl", rtl),))
    worker = MetricsRegistry()
    before = worker.snapshot()
    labels = {"cache": "rtl", "backend": "native"}
    worker.counter("repro_compile_cache_hits_total", **labels).inc(9)
    worker.counter("repro_compile_cache_misses_total", **labels).inc(2)
    worker.counter("repro_compile_cache_evictions_total", **labels).inc(1)
    delta = MetricsRegistry.diff(before, worker.snapshot())

    parent = MetricsRegistry()
    parent.merge(delta)
    stats = rtl.stats_by_backend["native"]
    assert (stats.hits, stats.misses, stats.evictions) == (9, 2, 1)
    assert list(rtl.stats_by_backend) == ["native"]
    assert parent.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------

def test_render_prometheus_parses():
    hist = Histogram(bounds=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(10.0)
    text = render_prometheus([
        ("repro_things_total", "counter", "Things counted",
         [({"kind": "a"}, 3), ({"kind": "b"}, 4)]),
        ("repro_depth", "gauge", "Queue depth", [({}, 2.5)]),
        ("repro_lat_seconds", "histogram", "Latency", [({}, hist)]),
    ])
    types = check_prometheus_text(text, "render")
    assert types == {"repro_things_total": "counter",
                     "repro_depth": "gauge",
                     "repro_lat_seconds": "histogram"}
    # cumulative buckets: 1 (<=0.1), 2 (<=1.0), 3 (+Inf)
    assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_lat_seconds_bucket{le="1"} 2' in text
    assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_lat_seconds_count 3" in text


def test_render_escapes_label_values():
    text = render_prometheus([
        ("m", "gauge", "", [({"path": 'a"b\\c\nd'}, 1)]),
    ])
    assert r'path="a\"b\\c\nd"' in text
    check_prometheus_text(text, "escape")


def test_registry_to_prometheus_includes_collectors():
    from repro.obs.metrics import KERNEL_STATS, REGISTRY

    base = KERNEL_STATS[0]
    KERNEL_STATS[0] = base + 5
    try:
        text = REGISTRY.to_prometheus()
        check_prometheus_text(text, "registry")
        assert "repro_kernel_delta_cycles_total" in text
    finally:
        KERNEL_STATS[0] = base
