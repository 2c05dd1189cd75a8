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
per backend (the totals are their sums) so flows can report which
engine amortised its codegen.

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
from typing import Callable, Dict, TypeVar

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
            counters[0] += 1
            self._store.move_to_end(tagged)
            return program  # type: ignore[return-value]
        counters[1] += 1
        program = factory()
        self._store[tagged] = program
        counters[3] += 1
        counters[4] += self._size_of(program)
        while len(self._store) > self.max_entries:
            evicted_key, evicted = self._store.popitem(last=False)
            victim = self._counters(evicted_key.split(_TAG_SEP, 1)[0])
            victim[2] += 1
            victim[3] -= 1
            victim[4] -= self._size_of(evicted)
        return program

    def absorb(self, backend: str, hits: int = 0, misses: int = 0,
               evictions: int = 0) -> None:
        """Fold *backend*'s counts observed in another process in.

        A pool worker's counts come back in its metrics delta, and
        merging that delta routes them here (``repro.obs.metrics``), so
        the parent's reported stats cover the whole run."""
        counters = self._counters(backend)
        counters[0] += hits
        counters[1] += misses
        counters[2] += evictions

    def clear(self) -> None:
        self._store.clear()
        self._backends = {}

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> CacheStats:
        """Every backend's counters summed."""
        per_backend = self._backends.values()
        return CacheStats(sum(c[0] for c in per_backend),
                          sum(c[1] for c in per_backend), len(self._store),
                          sum(c[2] for c in per_backend),
                          sum(c[4] for c in per_backend))

    @property
    def stats_by_backend(self) -> Dict[str, CacheStats]:
        """Per-backend counter snapshots (insertion order)."""
        return {
            backend: CacheStats(hits=c[0], misses=c[1], entries=c[3],
                                evictions=c[2], source_bytes=c[4])
            for backend, c in self._backends.items()
        }


# ---------------------------------------------------------------------------
# The process's cache roster.  The three cache instances live in modules
# on opposite sides of the rtl <-> synth import cycle, so they are
# imported lazily inside :func:`iter_caches` rather than at module level.
# ---------------------------------------------------------------------------

def iter_caches():
    """``(label, cache)`` pairs for every compile cache in the process."""
    from .gatesim import COMPILE_CACHE
    from .hls.emit import HLS_COMPILE_CACHE
    from .rtl.emit import RTL_COMPILE_CACHE
    return (("gate", COMPILE_CACHE), ("rtl", RTL_COMPILE_CACHE),
            ("hls", HLS_COMPILE_CACHE))


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
