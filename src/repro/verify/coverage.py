"""Coverage metrics for the differential verification harness.

Two complementary views of "did the fuzz run actually exercise the
design":

* :class:`InputCoverage` -- value-range buckets over the stimulus
  frames (uniform buckets across the signed range plus the three
  corner values min/zero/max per channel);
* :class:`ToggleCoverage` -- per-port-bit 0->1/1->0 activity of the
  clocked DUTs, folded from one packed sample of all port bits per
  cycle (the engines' ``port_sampler``, or the samples of a ``replay``).

Both aggregate across all cases of a run and serialise to plain dicts
so :func:`repro.flow.artifacts.write_verify_artifacts` can emit them as
JSON next to the other flow artefacts.
"""

from __future__ import annotations

from itertools import accumulate
from operator import lshift
from typing import Dict, List, Optional, Sequence, Tuple

from ..datatypes.integers import max_signed, min_signed

#: uniform value buckets per channel (plus min/zero/max specials)
N_BUCKETS = 16


class InputCoverage:
    """Value-range bucket coverage of the stereo input stimulus."""

    def __init__(self, data_width: int, n_buckets: int = N_BUCKETS):
        self.data_width = data_width
        self.n_buckets = n_buckets
        self.lo = min_signed(data_width)
        self.hi = max_signed(data_width)
        self._span = self.hi - self.lo + 1
        # per channel: bucket hit counts + special-value hits
        self.buckets: List[List[int]] = [[0] * n_buckets, [0] * n_buckets]
        self.specials: List[Dict[str, int]] = [
            {"min": 0, "zero": 0, "max": 0},
            {"min": 0, "zero": 0, "max": 0},
        ]
        self.n_frames = 0

    def record(self, frame: Sequence[int]) -> None:
        self.n_frames += 1
        for ch in (0, 1):
            value = frame[ch]
            index = (value - self.lo) * self.n_buckets // self._span
            self.buckets[ch][min(max(index, 0), self.n_buckets - 1)] += 1
            if value == self.lo:
                self.specials[ch]["min"] += 1
            elif value == self.hi:
                self.specials[ch]["max"] += 1
            elif value == 0:
                self.specials[ch]["zero"] += 1

    def record_case(self, inputs: Sequence[Sequence[int]]) -> None:
        for frame in inputs:
            self.record(frame)

    @property
    def fraction(self) -> float:
        """Fraction of (bucket + special) bins hit at least once."""
        total = hit = 0
        for ch in (0, 1):
            for count in self.buckets[ch]:
                total += 1
                hit += count > 0
            for count in self.specials[ch].values():
                total += 1
                hit += count > 0
        return hit / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "input_value_buckets",
            "data_width": self.data_width,
            "n_buckets": self.n_buckets,
            "n_frames": self.n_frames,
            "fraction": self.fraction,
            "channels": [
                {"buckets": list(self.buckets[ch]),
                 "specials": dict(self.specials[ch])}
                for ch in (0, 1)
            ],
        }

    def format(self) -> str:
        return (f"input coverage: {self.fraction * 100:5.1f}% of value "
                f"bins hit over {self.n_frames} frames")


def _add(planes: List[int], bits: int) -> None:
    """Count one at every set bit of *bits*.  The counters are bit
    sliced: ``planes[j]`` holds bit *j* of every position's count, so
    an add is a carry ripple over a few integers (about two steps on
    average), however many positions there are."""
    j = 0
    while bits:
        if j == len(planes):
            planes.append(bits)
            return
        plane = planes[j]
        planes[j] = plane ^ bits
        bits &= plane
        j += 1


def _count(planes: List[int], position: int) -> int:
    """The count at *position* of bit-sliced counters."""
    return sum((plane >> position & 1) << j for j, plane in enumerate(planes))


class _Handle:
    """Per-run toggle counts of one DUT's port bits, folded from the
    packed samples of its engine's ``port_sampler``: one read now
    (:meth:`sample`), or the samples of consecutive cycles a ``replay``
    of ``widths``' ports returned (:meth:`extend`).

    Bit *k* of the sampled ports (in order, LSB first) sits at
    position ``k * stride`` of one integer of known-1 bits and one of
    unknown (X or Z) bits.  A rise or fall is a defined 0->1 or 1->0
    step between consecutive samples; an unknown on either side is
    neither.  Per-bit counts are expanded once, in :meth:`counts`.
    """

    def __init__(self, key: str, sampler, stride: int):
        self.key = key
        self.widths = sampler.widths
        self.stride = stride
        self._read = sampler.read
        self._last = None
        self._rises: List[int] = []
        self._falls: List[int] = []
        # before the first sample every bit is unknown: no edge
        self._ones, self._unk = 0, -1

    def _fold(self, ones: int, unk: int) -> None:
        changed = (ones ^ self._ones) & ~(unk | self._unk)
        if changed:
            _add(self._rises, changed & ones)
            _add(self._falls, changed & self._ones)
        self._ones, self._unk = ones, unk

    def counts(self) -> Dict[str, List[Tuple[int, int]]]:
        out: Dict[str, List[Tuple[int, int]]] = {}
        position, stride = 0, self.stride
        for name, width in self.widths.items():
            end = position + width * stride
            out[name] = [(_count(self._rises, p), _count(self._falls, p))
                         for p in range(position, end, stride)]
            position = end
        return out


class _GateHandle(_Handle):
    """Toggle sampling of a gate-level DUT: one 4-valued code per port
    bit and byte."""

    def __init__(self, key: str, sim):
        ports = [*sim.netlist.inputs, *sim.netlist.outputs]
        super().__init__(key, sim.port_sampler(ports), 8)
        #: bit 0 of every byte; L1 and LZ set it, LX and LZ set bit 1
        self._low = int.from_bytes(bytes([1]) * sum(self.widths.values()),
                                   "little")
        self.sample()

    def sample(self) -> None:
        self.extend((self._read(),))

    def extend(self, samples) -> None:
        low, last = self._low, self._last
        for codes in samples:
            if codes == last:
                continue
            last = codes
            unk = (codes >> 1) & low
            self._fold(codes & low & ~unk, unk)
        self._last = last


class _RtlHandle(_Handle):
    """Toggle sampling of an RTL DUT: the port values, packed one bit
    per position."""

    def __init__(self, key: str, sim):
        ports = sim.module.input_names() + sim.module.output_names()
        super().__init__(key, sim.port_sampler(ports), 1)
        self._shifts = list(accumulate([0, *self.widths.values()]))[:-1]
        self.sample()

    def sample(self) -> None:
        self.extend((self._read(),))

    def extend(self, samples) -> None:
        shifts, last = self._shifts, self._last
        for values in samples:
            if values == last:
                continue
            last = values
            self._fold(sum(map(lshift, values, shifts)), 0)
        self._last = last


class ToggleCoverage:
    """Aggregated per-port-bit toggle activity across a whole run.

    Implements the ``begin(spec, sim)`` / ``handle.sample()`` or
    ``handle.extend(samples)`` / ``end(handle)`` protocol: a handle
    folds one sample per clock cycle.
    Unsupported DUTs (the behavioural FSM interpreter has no port-level
    bit view) simply return no handle and are skipped.
    """

    def __init__(self):
        #: spec key -> port -> per-bit (rises, falls)
        self.counts: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}

    def begin(self, spec, sim):
        if not hasattr(sim, "port_sampler"):
            return None
        if hasattr(sim, "netlist"):
            return _GateHandle(spec.key, sim)
        return _RtlHandle(spec.key, sim)

    def end(self, handle) -> None:
        self.absorb({handle.key: handle.counts()})

    def absorb(self, counts: Dict[str, Dict[str, List[Tuple[int, int]]]]
               ) -> None:
        """Merge another run's raw counts into this aggregate.

        The parallel verification path runs each case in a worker
        process and ships the worker's ``counts`` dict back; absorbing
        them here keeps cross-process coverage identical to a
        sequential run.
        """
        for key, ports in counts.items():
            merged = self.counts.setdefault(key, {})
            for port, per_bit in ports.items():
                if port not in merged:
                    merged[port] = [tuple(rf) for rf in per_bit]
                else:
                    merged[port] = [
                        (r0 + r1, f0 + f1)
                        for (r0, f0), (r1, f1) in zip(merged[port],
                                                      per_bit)
                    ]

    def fraction(self, key: Optional[str] = None) -> float:
        """Fraction of port bits that both rose and fell at least once."""
        keys = [key] if key is not None else list(self.counts)
        total = hit = 0
        for k in keys:
            for per_bit in self.counts.get(k, {}).values():
                for rises, falls in per_bit:
                    total += 1
                    hit += rises > 0 and falls > 0
        return hit / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "port_bit_toggles",
            "fraction": self.fraction(),
            "levels": {
                key: {
                    "fraction": self.fraction(key),
                    "ports": {
                        port: [[r, f] for r, f in per_bit]
                        for port, per_bit in ports.items()
                    },
                }
                for key, ports in self.counts.items()
            },
        }

    def format(self) -> str:
        if not self.counts:
            return "toggle coverage: (no clocked port-level DUTs sampled)"
        lines = ["toggle coverage (port bits toggled both ways):"]
        for key in sorted(self.counts):
            lines.append(f"  {key:24s} {self.fraction(key) * 100:5.1f}%")
        return "\n".join(lines)
