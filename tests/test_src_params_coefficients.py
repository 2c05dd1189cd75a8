"""SRC parameters, position accumulator, coefficient ROM."""

import pytest
from hypothesis import given, strategies as st

from repro.datatypes import max_signed, min_signed, wrap_signed
from repro.src_design import (PAPER_PARAMS, SMALL_PARAMS, SrcMode,
                              SrcParams, build_rom, coefficient,
                              full_prototype, rom_address)
from repro.src_design.coefficients import PolyphaseCoefficientIterator


def test_paper_configuration_constants():
    p = PAPER_PARAMS
    assert p.n_phases == 64
    assert p.taps_per_phase == 8
    assert p.data_width == 16
    assert p.clock_period_ps == 40_000          # 40 ns / 25 MHz
    assert p.phase_index_bits == 6
    assert p.rom_depth == 256                    # half of 512
    assert p.addr_bits == 4                      # depth 12 (+ invalid 12)
    assert p.acc_width == 35                     # 16+16+3


def test_mode_table():
    p = PAPER_PARAMS
    assert p.modes[0].ratio == pytest.approx(44100 / 48000)
    assert p.modes[1].f_in == 48000
    assert p.mode_bits == 1


def test_validation_rules():
    with pytest.raises(ValueError):
        SrcParams(n_phases=48)           # not a power of two
    with pytest.raises(ValueError):
        SrcParams(buffer_depth=8)        # not > taps_per_phase


def test_position_increment_values():
    p = PAPER_PARAMS
    # 44.1/48 * 64 * 2^16 = 3853516.8 -> rounds to 3853517
    assert p.position_increment(0) == 3853517
    # 48/44.1 * 64 * 2^16 ~ 4565228.84 -> 4565229
    assert p.position_increment(1) == 4565229
    custom = SrcParams(n_phases=16, taps_per_phase=4, buffer_depth=6,
                       phase_frac_bits=10,
                       modes=(SrcMode("32k_to_48k", 32_000, 48_000),
                              SrcMode("96k_to_44k1", 96_000, 44_100),
                              SrcMode("half_unit", 1, 32_768)))
    # 2/3 * 2^14 ~ 10922.67 -> 10923; 320/147 * 2^14 ~ 35665.85 -> 35666;
    # 2^-15 * 2^14 = 0.5 exactly rounds up to 1
    assert [custom.position_increment(m) for m in range(3)] \
        == [10923, 35666, 1]
    assert custom.position_increments == (10923, 35666, 1)


@given(st.integers(min_value=-(2 ** 25), max_value=2 ** 25),
       st.sampled_from([0, 1]))
def test_position_updates_commute(pos, mode):
    """Wrapping updates commute: in-then-out == out-then-in.

    This is the property that makes clocked implementations bit-exact
    regardless of how they group coincident events into cycles.
    """
    p = SMALL_PARAMS
    a = p.pos_after_input(p.pos_after_output(pos, mode))
    b = p.pos_after_output(p.pos_after_input(pos), mode)
    assert a == b


@given(st.integers(min_value=-(2 ** 25), max_value=2 ** 25))
def test_phase_from_pos_in_range(pos):
    p = SMALL_PARAMS
    ph = p.phase_from_pos(wrap_signed(pos, p.pos_width))
    assert 0 <= ph < p.n_phases


def test_phase_clamping():
    p = SMALL_PARAMS
    assert p.phase_from_pos(-5) == 0
    assert p.phase_from_pos(p.one_sample_units + 99) == p.n_phases - 1
    assert p.phase_from_pos(0) == 0


def test_round_and_saturate():
    p = PAPER_PARAMS
    shift = p.coef_frac_bits
    assert p.round_and_saturate(0) == 0
    assert p.round_and_saturate(1 << shift) == 1
    # rounding: just below half rounds down, half rounds up
    assert p.round_and_saturate((1 << (shift - 1)) - 1) == 0
    assert p.round_and_saturate(1 << (shift - 1)) == 1
    # saturation
    big = max_signed(p.acc_width)
    assert p.round_and_saturate(big) == max_signed(p.data_width)
    assert p.round_and_saturate(-big) == min_signed(p.data_width)


def test_clock_ticks_ceil():
    p = PAPER_PARAMS
    assert p.clock_ticks(0) == 0
    assert p.clock_ticks(1) == 1
    assert p.clock_ticks(40_000) == 1
    assert p.clock_ticks(40_001) == 2


# -------------------------------------------------------------- coefficients
def test_rom_is_half_prototype():
    p = SMALL_PARAMS
    rom = build_rom(p)
    assert len(rom) == p.rom_depth
    full = full_prototype(p)
    assert len(full) == p.prototype_length
    assert full == full[::-1]  # symmetric after mirroring


def test_rom_address_mirrors_symmetric_pairs():
    p = SMALL_PARAMS
    n = p.prototype_length
    for phase in range(p.n_phases):
        for tap in range(p.taps_per_phase):
            idx = phase + tap * p.n_phases
            mirrored = n - 1 - idx
            m_phase = mirrored % p.n_phases
            m_tap = mirrored // p.n_phases
            assert rom_address(p, phase, tap) == \
                rom_address(p, m_phase, m_tap)


def test_rom_address_bounds_checked():
    p = SMALL_PARAMS
    with pytest.raises(ValueError):
        rom_address(p, p.n_phases, 0)
    with pytest.raises(ValueError):
        rom_address(p, 0, p.taps_per_phase)


def test_coefficients_fit_width():
    p = PAPER_PARAMS
    lo = min_signed(p.coef_width)
    hi = max_signed(p.coef_width)
    assert all(lo <= c <= hi for c in build_rom(p))


def test_coefficient_iterator_matches_direct_access():
    p = SMALL_PARAMS
    for phase in (0, 3, p.n_phases - 1):
        via_iter = list(PolyphaseCoefficientIterator(p, phase))
        direct = [coefficient(p, phase, t)
                  for t in range(p.taps_per_phase)]
        assert via_iter == direct
        assert len(via_iter) == p.taps_per_phase


def test_branch_dc_gains_near_unity():
    p = PAPER_PARAMS
    scale = 1 << p.coef_frac_bits
    for phase in (0, 17, 63):
        gain = sum(coefficient(p, phase, t)
                   for t in range(p.taps_per_phase)) / scale
        assert abs(gain - 1.0) < 0.01
