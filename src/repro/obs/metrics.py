"""Process-safe metrics registry with Prometheus text exposition.

One API absorbs the counters that previously lived scattered across
the pipeline: per-backend CompileCache hit/miss/eviction counts, FI
outcome tallies, kernel scheduler delta/activation counts, service
worker crash/hang/retire/respawn counts, queue depth and job latency.

Cross-process model: a worker process mutates its own (forked or
fresh) registry; ``repro.obs.trace.TracedTask`` takes ``snapshot()``
before and after each task and ships ``diff(before, after)`` back with
the task's result and spans, and the parent folds it in with
``merge()``.  That one delta is how every pool and service shard
reports its counts, the compile caches' included, and it keeps hot
paths free of any cross-process synchronisation.

External totals (the compile caches, the kernel) are *pulled* at
snapshot/render time through registered collector callbacks instead of
being double-counted on their own hot paths; a merged delta of such a
family goes to its source (``_MERGE_SINKS``), which the next collector
run mirrors.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "LatencyHistogram",
    "MetricsRegistry", "REGISTRY", "KERNEL_STATS", "record_kernel_stats",
    "render_prometheus",
]

#: cumulative kernel scheduler totals for this process:
#: ``[delta_cycles, process_activations]``.  ``Simulation.run`` folds
#: its per-run counts in here (one pair of integer adds per ``run()``
#: call); the default collector mirrors them into the registry.
KERNEL_STATS = [0, 0]


def record_kernel_stats(deltas: int, activations: int) -> None:
    """Fold one simulation's scheduler counts into the process totals."""
    KERNEL_STATS[0] += deltas
    KERNEL_STATS[1] += activations


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set_total(self, value: float) -> None:
        """Mirror an externally maintained total (collector use only)."""
        self.value = value


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n


class Histogram:
    """Fixed upper-bound bucket histogram (Prometheus ``le`` style).

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  ``buckets`` stores per-bucket
    counts (not cumulative) -- the Prometheus renderer accumulates.
    """

    __slots__ = ("bounds", "buckets", "count", "sum")

    BOUNDS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                                 5.0, 15.0, 60.0, 300.0)

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds = tuple(bounds) if bounds is not None else self.BOUNDS
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if tuple(other.bounds) != self.bounds:
            raise ValueError("histogram bucket bounds differ")
        self.count += other.count
        self.sum += other.sum
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n

    def bucket_labels(self) -> List[str]:
        return [f"le_{b:g}" for b in self.bounds] + ["le_inf"]

    def state(self) -> Dict[str, Any]:
        """JSON-able internal state for snapshot/diff/merge."""
        return {"bounds": list(self.bounds), "count": self.count,
                "sum": self.sum, "buckets": list(self.buckets)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Histogram":
        hist = cls(state["bounds"])
        hist.count = state["count"]
        hist.sum = state["sum"]
        hist.buckets = list(state["buckets"])
        return hist


class LatencyHistogram(Histogram):
    """Job-latency histogram with the service's reporting schema.

    Kept import-compatible with its original home
    (``repro.service.core.LatencyHistogram``); ``as_dict()`` is the
    shape locked by the service metrics schema tests.
    """

    __slots__ = ()

    def as_dict(self) -> Dict[str, Any]:
        labels = self.bucket_labels()
        return {
            "count": self.count,
            "sum_seconds": round(self.sum, 6),
            "buckets": {labels[i]: self.buckets[i]
                        for i in range(len(labels))},
        }


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


def _label_str(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", r"\\").replace(
            '"', r"\"").replace("\n", r"\n")
        parts.append(f'{_prom_name(str(key))}="{value}"')
    return "{" + ",".join(parts) + "}"


def render_prometheus(families: Iterable[Tuple[str, str, str, list]]) -> str:
    """Render ``(name, type, help, [(labels, value), ...])`` families
    as Prometheus text exposition format (version 0.0.4).

    ``value`` is numeric for counters/gauges and a :class:`Histogram`
    for histogram families (rendered as cumulative ``_bucket`` samples
    plus ``_sum`` and ``_count``).
    """
    lines: List[str] = []
    for name, mtype, help_text, samples in families:
        name = _prom_name(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            label_str = _label_str(labels)
            if mtype == "histogram":
                cumulative = 0
                for i, bound in enumerate(value.bounds):
                    cumulative += value.buckets[i]
                    le = dict(labels, le=f"{bound:g}")
                    lines.append(
                        f"{name}_bucket{_label_str(le)} {cumulative}")
                cumulative += value.buckets[-1]
                le = dict(labels, le="+Inf")
                lines.append(f"{name}_bucket{_label_str(le)} {cumulative}")
                lines.append(
                    f"{name}_sum{label_str} {_prom_value(value.sum)}")
                lines.append(f"{name}_count{label_str} {value.count}")
            else:
                lines.append(f"{name}{label_str} {_prom_value(value)}")
    return "\n".join(lines) + "\n"


def _metric_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    return name + "|" + json.dumps(
        {k: str(v) for k, v in sorted(labels.items())}, sort_keys=True)


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    if "|" not in key:
        return key, {}
    name, raw = key.split("|", 1)
    return name, json.loads(raw)


class MetricsRegistry:
    """Get-or-create registry of labelled counters, gauges and
    histograms with snapshot/diff/merge for cross-process use."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._meta: Dict[str, Tuple[str, str]] = {}  # name -> (type, help)
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        key = _metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
            self._meta.setdefault(name, ("counter", help))
        return metric

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        key = _metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
            self._meta.setdefault(name, ("gauge", help))
        return metric

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None,
                  help: str = "", **labels: Any) -> Histogram:
        key = _metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = LatencyHistogram(bounds)
            self._meta.setdefault(name, ("histogram", help))
        return metric

    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback that refreshes pulled metrics (compile
        caches, kernel totals) before every snapshot/render."""
        if fn not in self._collectors:
            self._collectors.append(fn)

    def _run_collectors(self) -> None:
        for fn in self._collectors:
            fn(self)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._meta.clear()

    # -- cross-process aggregation ------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state of every metric (collectors refreshed)."""
        self._run_collectors()
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: h.state()
                           for k, h in self._histograms.items()},
            "meta": {name: list(meta) for name, meta in self._meta.items()},
        }

    @staticmethod
    def diff(before: Dict[str, Any], after: Dict[str, Any],
             ) -> Dict[str, Any]:
        """The monotonic delta between two snapshots -- what one task
        contributed, safe to merge into another process's registry."""
        counters = {}
        for key, value in after.get("counters", {}).items():
            delta = value - before.get("counters", {}).get(key, 0)
            if delta:
                counters[key] = delta
        histograms = {}
        for key, state in after.get("histograms", {}).items():
            prev = before.get("histograms", {}).get(key)
            if prev is None:
                if state["count"]:
                    histograms[key] = state
                continue
            if state["count"] == prev["count"]:
                continue
            histograms[key] = {
                "bounds": state["bounds"],
                "count": state["count"] - prev["count"],
                "sum": state["sum"] - prev["sum"],
                "buckets": [a - b for a, b in zip(state["buckets"],
                                                  prev["buckets"])],
            }
        gauges = dict(after.get("gauges", {}))
        delta = {}
        if counters:
            delta["counters"] = counters
        if histograms:
            delta["histograms"] = histograms
        if gauges:
            delta["gauges"] = gauges
        if delta:
            delta["meta"] = after.get("meta", {})
        return delta

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold a snapshot or diff from another process into this
        registry: counters and histograms add, gauges overwrite.

        Collector-mirrored families are routed to their underlying
        source (``_MERGE_SINKS``) so the next collector run mirrors the
        merged values instead of overwriting them.
        """
        if not delta:
            return
        meta = delta.get("meta", {})
        for key, value in delta.get("counters", {}).items():
            name, labels = _split_key(key)
            sink = _MERGE_SINKS.get(name)
            if sink is not None:
                sink(labels, value)
                continue
            self._meta.setdefault(name, tuple(meta.get(name, ("counter", ""))))
            self.counter(name, **labels).inc(value)
        for key, value in delta.get("gauges", {}).items():
            name, labels = _split_key(key)
            self._meta.setdefault(name, tuple(meta.get(name, ("gauge", ""))))
            self.gauge(name, **labels).set(value)
        for key, state in delta.get("histograms", {}).items():
            name, labels = _split_key(key)
            self._meta.setdefault(
                name, tuple(meta.get(name, ("histogram", ""))))
            self.histogram(name, bounds=state["bounds"], **labels).merge(
                Histogram.from_state(state))

    # -- rendering -----------------------------------------------------
    def families(self) -> List[Tuple[str, str, str, list]]:
        """Registry contents grouped per metric family for rendering."""
        self._run_collectors()
        grouped: Dict[str, list] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for key, metric in store.items():
                name, labels = _split_key(key)
                value = metric if isinstance(metric, Histogram) \
                    else metric.value
                grouped.setdefault(name, []).append((labels, value))
        return [(name, *self._meta.get(name, ("gauge", "")), samples)
                for name, samples in sorted(grouped.items())]

    def to_prometheus(self) -> str:
        return render_prometheus(self.families())


_Sink = Callable[[Dict[str, str], float], None]


def _kernel_sink(i: int) -> _Sink:
    def sink(labels: Dict[str, str], value: float) -> None:
        KERNEL_STATS[i] += int(value)
    return sink


def _compile_cache_sink(count: str) -> _Sink:
    def sink(labels: Dict[str, str], value: float) -> None:
        from ..compile_cache import iter_caches

        dict(iter_caches())[labels["cache"]].absorb(
            labels["backend"], **{count: int(value)})
    return sink


#: where merged counters of *mirrored* families land: the source their
#: collector reads, given the sample's labels and value
_MERGE_SINKS: Dict[str, _Sink] = {
    "repro_kernel_delta_cycles_total": _kernel_sink(0),
    "repro_kernel_activations_total": _kernel_sink(1),
    "repro_compile_cache_hits_total": _compile_cache_sink("hits"),
    "repro_compile_cache_misses_total": _compile_cache_sink("misses"),
    "repro_compile_cache_evictions_total": _compile_cache_sink("evictions"),
}

#: the process-wide default registry
REGISTRY = MetricsRegistry()


def _kernel_collector(registry: MetricsRegistry) -> None:
    registry.counter(
        "repro_kernel_delta_cycles_total",
        help="Scheduler delta cycles executed").set_total(KERNEL_STATS[0])
    registry.counter(
        "repro_kernel_activations_total",
        help="Process activations executed by the scheduler").set_total(
            KERNEL_STATS[1])


def _compile_cache_collector(registry: MetricsRegistry) -> None:
    try:
        from ..compile_cache import iter_caches
    except ImportError:  # pragma: no cover - leaf-safety guard
        return
    for label, cache in iter_caches():
        for backend, stats in cache.stats_by_backend.items():
            labels = {"cache": label, "backend": backend}
            registry.counter(
                "repro_compile_cache_hits_total",
                help="CompileCache hits", **labels).set_total(stats.hits)
            registry.counter(
                "repro_compile_cache_misses_total",
                help="CompileCache misses", **labels).set_total(stats.misses)
            registry.counter(
                "repro_compile_cache_evictions_total",
                help="CompileCache LRU evictions",
                **labels).set_total(stats.evictions)


REGISTRY.register_collector(_kernel_collector)
REGISTRY.register_collector(_compile_cache_collector)
