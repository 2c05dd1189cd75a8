"""Configuration of the sample-rate converter design.

A single :class:`SrcParams` instance defines the *bit-exact contract*
shared by every abstraction level of the refinement flow: data and
coefficient widths, the phase-accumulator geometry, buffer depth, the
operation-mode table (conversion ratios), and output rounding/saturation.
Two stock configurations are provided:

* :data:`PAPER_PARAMS` -- the paper-scale design (64 polyphase branches,
  16-bit stereo audio, 25 MHz clock / 40 ns timing constraint);
* :data:`SMALL_PARAMS` -- a reduced configuration for fast unit tests and
  gate-level simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Tuple

from ..datatypes.integers import (bits_for_unsigned, saturate_signed,
                                  wrap_signed)
from ..kernel.simtime import NS, period_ps, to_ps


@dataclass(frozen=True)
class SrcMode:
    """One operation mode: a conversion between two fixed sample rates."""

    name: str
    f_in: int
    f_out: int

    @property
    def ratio(self) -> Fraction:
        """Input samples per output sample."""
        return Fraction(self.f_in, self.f_out)


@dataclass(frozen=True)
class SrcParams:
    """All architectural parameters of the SRC design."""

    #: number of polyphase branches (interpolation factor L)
    n_phases: int = 64
    #: taps per polyphase branch
    taps_per_phase: int = 8
    #: audio sample width in bits (signed)
    data_width: int = 16
    #: coefficient width in bits (signed)
    coef_width: int = 16
    #: fractional bits of the phase accumulator below the phase index
    phase_frac_bits: int = 16
    #: input ring-buffer depth per channel (NOT a power of two, as in the
    #: original design; valid addresses are 0 .. buffer_depth-1)
    buffer_depth: int = 12
    #: number of audio channels (stereo)
    n_channels: int = 2
    #: system clock period in picoseconds (paper: 40 ns / 25 MHz)
    clock_period_ps: int = 40 * NS
    #: prototype-filter design parameters
    cutoff: float = 0.9
    kaiser_beta: float = 9.0
    #: operation modes, index -> mode (index is the SRC_CTRL mode word)
    modes: Tuple[SrcMode, ...] = (
        SrcMode("44k1_to_48k", 44_100, 48_000),
        SrcMode("48k_to_44k1", 48_000, 44_100),
    )

    def __post_init__(self):
        if self.n_phases & (self.n_phases - 1):
            raise ValueError(
                f"n_phases must be a power of two, got {self.n_phases}"
            )
        if self.buffer_depth <= self.taps_per_phase:
            raise ValueError(
                "buffer_depth must exceed taps_per_phase "
                f"({self.buffer_depth} <= {self.taps_per_phase})"
            )
        if (self.n_phases * self.taps_per_phase) % 2:
            raise ValueError("prototype length must be even for half storage")

    # ------------------------------------------------------------------
    # derived widths
    # ------------------------------------------------------------------
    @property
    def phase_index_bits(self) -> int:
        """Bits of the polyphase branch index."""
        return self.n_phases.bit_length() - 1

    @property
    def phase_acc_bits(self) -> int:
        """Total width of the phase accumulator (index + fraction)."""
        return self.phase_index_bits + self.phase_frac_bits

    @property
    def acc_width(self) -> int:
        """Minimum accumulator width for the MAC: full product plus the
        growth of ``taps_per_phase`` additions, plus sign."""
        growth = bits_for_unsigned(self.taps_per_phase - 1) if \
            self.taps_per_phase > 1 else 0
        return self.data_width + self.coef_width + growth

    @property
    def addr_bits(self) -> int:
        """Buffer address width; one extra code (== buffer_depth) exists
        but is *invalid* -- the seed of the paper's golden-model bug."""
        return bits_for_unsigned(self.buffer_depth)

    @property
    def rom_depth(self) -> int:
        """Stored coefficients: half of the symmetric prototype."""
        return (self.n_phases * self.taps_per_phase) // 2

    @property
    def rom_addr_bits(self) -> int:
        return bits_for_unsigned(self.rom_depth - 1)

    @property
    def mode_bits(self) -> int:
        return max(1, bits_for_unsigned(len(self.modes) - 1))

    @property
    def prototype_length(self) -> int:
        return self.n_phases * self.taps_per_phase

    # ------------------------------------------------------------------
    # position accumulator
    #
    # The SRC tracks the *position of the next output relative to the
    # newest input sample*, in units of 2**-phase_frac_bits polyphase
    # steps.  Every output request adds the full rate ratio (integer part
    # included); every input arrival subtracts one whole input sample
    # (n_phases * 2**frac).  Updates *wrap* in two's complement -- wrapping
    # addition is commutative, so the register ends up bit-identical no
    # matter how a clocked implementation groups coincident input and
    # output events into cycles (a saturating update would not be).  The
    # headroom bits make wrap unreachable in any schedule-driven run.
    # The polyphase branch index is the clamped position's top bits.
    # ------------------------------------------------------------------
    @property
    def pos_width(self) -> int:
        """Signed width of the position register (two headroom bits each
        side of the [0, 2) working range)."""
        return self.phase_acc_bits + 4

    @property
    def one_sample_units(self) -> int:
        """One input-sample period in position units."""
        return self.n_phases << self.phase_frac_bits

    @cached_property
    def position_increments(self) -> Tuple[int, ...]:
        """Position advance per output sample (full ratio, rounded), per
        mode; computed once, since every output of every model adds it."""
        units = self.n_phases * (1 << self.phase_frac_bits)
        return tuple(int(mode.ratio * units + Fraction(1, 2))
                     for mode in self.modes)

    def position_increment(self, mode: int) -> int:
        """Position advance per output sample in *mode*."""
        return self.position_increments[mode]

    def pos_after_output(self, pos: int, mode: int) -> int:
        """Position after producing one output sample (wrapping)."""
        return wrap_signed(pos + self.position_increment(mode),
                           self.pos_width)

    def pos_after_input(self, pos: int) -> int:
        """Position after one input sample arrives (wrapping)."""
        return wrap_signed(pos - self.one_sample_units, self.pos_width)

    def phase_from_pos(self, pos: int) -> int:
        """Polyphase branch index for position *pos* (clamped into range)."""
        clamped = min(max(pos, 0), self.one_sample_units - 1)
        return clamped >> self.phase_frac_bits

    # ------------------------------------------------------------------
    # output scaling (identical at every refinement level)
    # ------------------------------------------------------------------
    @property
    def coef_frac_bits(self) -> int:
        """Fractional bits of the quantised coefficients (Q1 format).

        Individual coefficients peak near the design cutoff (< 1.0), so
        they fit Q1.(coef_width-1); a peak at exactly 1.0 saturates to the
        largest representable value with negligible error.
        """
        return self.coef_width - 1

    def round_and_saturate(self, acc_value: int) -> int:
        """Scale a MAC accumulator down to an output sample.

        Round-to-nearest (half away from zero is NOT used -- hardware uses
        the cheaper add-half-then-shift), then saturate to ``data_width``.
        """
        shift = self.coef_frac_bits
        rounded = (acc_value + (1 << (shift - 1))) >> shift
        return saturate_signed(rounded, self.data_width)

    def wrap_acc(self, value: int) -> int:
        """Wrap a MAC value into the declared accumulator width."""
        return wrap_signed(value, self.acc_width)

    @property
    def max_latency_cycles(self) -> int:
        """Conservative bound on output-computation latency in clock
        cycles, covering the slowest implementation (the unoptimised
        behavioural design with per-tap handshaking).  Used to place
        mode-change events in guaranteed-idle gaps and to size testbench
        timeouts."""
        return 6 * self.taps_per_phase + 16

    # ------------------------------------------------------------------
    def clock_ticks(self, time_ps: int) -> int:
        """Quantise *time_ps* up to the next clock tick (paper Fig. 7)."""
        return -(-time_ps // self.clock_period_ps)

    def sample_period_ps(self, rate_hz: int) -> Fraction:
        """Exact sample period of *rate_hz* in picoseconds."""
        return Fraction(1_000_000_000_000, rate_hz)


#: Paper-scale configuration (DATE 2004 SRC).
PAPER_PARAMS = SrcParams()

#: Reduced configuration for fast unit tests and gate-level simulation.
SMALL_PARAMS = SrcParams(
    n_phases=16,
    taps_per_phase=4,
    data_width=8,
    coef_width=10,
    phase_frac_bits=10,
    buffer_depth=6,
    clock_period_ps=period_ps(48_000 * 64),
)
