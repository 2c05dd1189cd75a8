"""In-process cache for compiled simulation artifacts.

Shared by the kernels of the gate, RTL and behavioural levels
(:mod:`repro.gatesim.emit`, :mod:`repro.rtl.emit`,
:mod:`repro.hls.emit`); lives in its own leaf module because the
users sit on opposite sides of the rtl <-> synth import cycle.  The
flow layer re-exports it from :mod:`repro.flow.artifacts`.

Keys are tagged with the *owning backend* ("compiled", "native"):
two engines consuming the same structural digest would otherwise
collide in one slot and hand each other the wrong program object.  The
tag is part of the stored key, and hit/miss/eviction counters are kept
both in total and per backend so flows can report which engine
amortised its codegen.

The store is bounded: entries are kept in least-recently-used order and
the oldest one is evicted once ``max_entries`` is exceeded.  Long
fault-injection campaigns compile one overlay per structural fault set,
so an unbounded store would grow linearly with campaign size; the LRU
bound keeps the working set (baseline + recently-hit overlays) resident
while retiring one-shot artifacts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, TypeVar

T = TypeVar("T")

#: separator between the backend tag and the structural key; the tag is
#: recovered from stored keys to attribute evictions to their engine
_TAG_SEP = "\x1f"


@dataclass
class CacheStats:
    """Counters of a :class:`CompileCache` (a point-in-time snapshot)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    #: entries retired by the LRU bound since the last clear
    evictions: int = 0
    #: total generated-source size of the resident entries, in bytes
    source_bytes: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Fold counters of another snapshot in (resident-store sizes do
        not add across processes; the larger store wins)."""
        return CacheStats(self.hits + other.hits,
                          self.misses + other.misses,
                          max(self.entries, other.entries),
                          self.evictions + other.evictions,
                          max(self.source_bytes, other.source_bytes))

    def format(self) -> str:
        return (f"compile cache: {self.entries} entries "
                f"({self.source_bytes} source bytes), "
                f"{self.hits} hits, {self.misses} misses, "
                f"{self.evictions} evictions")


class CompileCache:
    """LRU cache of compiled simulation programs, keyed by structural
    hash plus the owning backend.

    Counts hits, misses and evictions so flows and benchmarks can
    report how often codegen was amortised and whether the bound is
    thrashing.  ``max_entries`` caps the resident store; a hit
    refreshes the entry's recency, a miss inserts at the fresh end and
    evicts the stalest entry when over the cap.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._store: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._source_bytes = 0
        #: per-backend mutable counters: [hits, misses, evictions,
        #: entries, source_bytes]
        self._backends: Dict[str, list] = {}

    @staticmethod
    def _size_of(program: object) -> int:
        return len(getattr(program, "source", "") or "")

    def _counters(self, backend: str) -> list:
        counters = self._backends.get(backend)
        if counters is None:
            counters = self._backends[backend] = [0, 0, 0, 0, 0]
        return counters

    def get_or_compile(self, key: str, factory: Callable[[], T],
                       backend: str = "compiled") -> T:
        tagged = backend + _TAG_SEP + key
        counters = self._counters(backend)
        program = self._store.get(tagged)
        if program is not None:
            self.hits += 1
            counters[0] += 1
            self._store.move_to_end(tagged)
            return program  # type: ignore[return-value]
        self.misses += 1
        counters[1] += 1
        program = factory()
        self._store[tagged] = program
        size = self._size_of(program)
        self._source_bytes += size
        counters[3] += 1
        counters[4] += size
        while len(self._store) > self.max_entries:
            evicted_key, evicted = self._store.popitem(last=False)
            evicted_size = self._size_of(evicted)
            self._source_bytes -= evicted_size
            self.evictions += 1
            victim = self._counters(evicted_key.split(_TAG_SEP, 1)[0])
            victim[2] += 1
            victim[3] -= 1
            victim[4] -= evicted_size
        return program

    def absorb(self, hits: int, misses: int, evictions: int = 0,
               by_backend: Optional[Mapping[str, Tuple[int, int, int]]]
               = None) -> None:
        """Fold counters observed elsewhere into this cache.

        Worker processes of a fault-injection campaign or a parallel
        verification run each hold their own process-local cache; their
        per-task counter deltas are shipped back and absorbed here so
        the parent's reported stats cover the whole run.  *by_backend*
        optionally carries per-backend ``(hits, misses, evictions)``
        deltas; without it the totals are attributed to ``"compiled"``.
        """
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        if by_backend is None:
            if hits or misses or evictions:
                by_backend = {"compiled": (hits, misses, evictions)}
            else:
                by_backend = {}
        for backend, (h, m, e) in by_backend.items():
            counters = self._counters(backend)
            counters[0] += h
            counters[1] += m
            counters[2] += e

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._source_bytes = 0
        self._backends = {}

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, len(self._store),
                          self.evictions, self._source_bytes)

    @property
    def stats_by_backend(self) -> Dict[str, CacheStats]:
        """Per-backend counter snapshots (insertion order)."""
        return {
            backend: CacheStats(hits=c[0], misses=c[1], entries=c[3],
                                evictions=c[2], source_bytes=c[4])
            for backend, c in self._backends.items()
        }


# ---------------------------------------------------------------------------
# Cross-process aggregation over the process's cache roster.
#
# The parallel verification harness and the FI campaign runner used to
# carry their own copies of this snapshot/delta/absorb logic; it lives
# here now so every consumer (CLI pools, the campaign service, the
# artifact writers, the metrics registry) shares one implementation.
# The three cache instances live in modules on opposite sides of the
# rtl <-> synth import cycle, so they are imported lazily inside
# :func:`iter_caches` rather than at module level.
# ---------------------------------------------------------------------------

def iter_caches():
    """``(label, cache)`` pairs for every compile cache in the process."""
    from .gatesim import COMPILE_CACHE
    from .hls.emit import HLS_COMPILE_CACHE
    from .rtl.emit import RTL_COMPILE_CACHE
    return (("gate", COMPILE_CACHE), ("rtl", RTL_COMPILE_CACHE),
            ("hls", HLS_COMPILE_CACHE))


def counters_snapshot():
    """Point-in-time per-backend ``(hits, misses, evictions)`` counters
    of every cache, in :func:`iter_caches` order.

    Worker protocol: snapshot before and after a task, ship
    ``counters_delta(before, after)`` back with the result, and let the
    parent fold the deltas in with :func:`absorb_deltas` so its
    reported statistics cover the whole run.
    """
    return tuple(
        {backend: (s.hits, s.misses, s.evictions)
         for backend, s in cache.stats_by_backend.items()}
        for _, cache in iter_caches())


def counters_delta(before, after):
    """Per-cache, per-backend counter movement between two snapshots."""
    delta = []
    for cache_before, cache_after in zip(before, after):
        moved = {}
        for backend, (hits, misses, evictions) in cache_after.items():
            h0, m0, e0 = cache_before.get(backend, (0, 0, 0))
            if (hits, misses, evictions) != (h0, m0, e0):
                moved[backend] = (hits - h0, misses - m0, evictions - e0)
        delta.append(moved)
    return tuple(delta)


def absorb_deltas(deltas) -> None:
    """Fold worker counter deltas into this process's caches."""
    for i, (_, cache) in enumerate(iter_caches()):
        merged: Dict[str, list] = {}
        for delta in deltas:
            for backend, (hits, misses, evictions) in delta[i].items():
                counters = merged.setdefault(backend, [0, 0, 0])
                counters[0] += hits
                counters[1] += misses
                counters[2] += evictions
        if merged:
            totals = [sum(c[j] for c in merged.values()) for j in range(3)]
            cache.absorb(totals[0], totals[1], totals[2],
                         by_backend={b: tuple(c)
                                     for b, c in merged.items()})


def aggregate_stats() -> Dict[str, CacheStats]:
    """Labelled stats for every cache, with per-backend breakdown rows
    keyed ``"<label>[<backend>]"`` -- the shape FI campaign reports
    carry in ``cache_stats``."""
    stats: Dict[str, CacheStats] = {}
    for label, cache in iter_caches():
        stats[label] = cache.stats
        for backend, per_backend in cache.stats_by_backend.items():
            stats[f"{label}[{backend}]"] = per_backend
    return stats


def format_cache_report() -> str:
    """A human-readable report over the whole cache roster, shared by
    the flow/verify/FI artifact writers."""
    lines = []
    for label, cache in iter_caches():
        lines.append(f"[{label}] {cache.stats.format()}")
        for backend, stats in cache.stats_by_backend.items():
            lines.append(f"[{label}:{backend}] {stats.format()}")
    return "\n".join(lines) + "\n"
