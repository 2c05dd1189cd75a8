"""The behavioural DUT runs the RTL's own front end.

:func:`~repro.src_design.behavioral.build_behavioral_fsm` attaches the
RT-level front end (write pointer, fill counter, position, phase
preview, sample-buffer writes) to the main process FSM, and every FSM
engine runs it inside the FSM's cycle.  Random pin streams -- inputs
and mode changes on the same tick, every ``cfg_mode`` code the port
holds, output requests -- must then give the same output stream as the
flat RTL module of the same design, cycle by cycle.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engines import ENGINES
from repro.hls import HlsError
from repro.rtl import RtlModule, RtlSimulator
from repro.src_design.behavioral import (BehavioralSimulation,
                                         build_behavioral_design,
                                         build_behavioral_fsm,
                                         build_main_fsm)
from repro.src_design.params import SMALL_PARAMS, SrcMode, SrcParams

#: three real modes on a 2-bit mode port: code 3 falls to the default
#: of the increment table's ``Case``
THREE_MODE_PARAMS = SrcParams(
    n_phases=16, taps_per_phase=4, data_width=8, coef_width=10,
    phase_frac_bits=10, buffer_depth=6,
    clock_period_ps=SMALL_PARAMS.clock_period_ps,
    modes=(SrcMode("44k1_to_48k", 44_100, 48_000),
           SrcMode("48k_to_44k1", 48_000, 44_100),
           SrcMode("32k_to_48k", 32_000, 48_000)),
)

DESIGNS = {
    "small-opt": (SMALL_PARAMS, True),
    "small-unopt": (SMALL_PARAMS, False),  # handshake, 8-mode table
    "three-mode": (THREE_MODE_PARAMS, True),
}


@lru_cache(maxsize=None)
def _built(design: str):
    params, optimized = DESIGNS[design]
    module = build_behavioral_design(params, optimized).module
    return params, module, build_behavioral_fsm(params, optimized)


def _stream(params: SrcParams, mode_width: int):
    word = st.integers(0, (1 << params.data_width) - 1)
    cycle = st.fixed_dictionaries({
        "in_valid": st.integers(0, 1),
        "in_l": word,
        "in_r": word,
        # a mode change on roughly one tick in eight
        "cfg_valid": st.integers(0, 7).map(lambda v: int(v == 7)),
        "cfg_mode": st.integers(0, (1 << mode_width) - 1),
        "out_req": st.integers(0, 1),
    })
    return st.lists(cycle, min_size=150, max_size=300)


@pytest.mark.parametrize("design", DESIGNS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_behavioral_dut_equals_rtl_every_cycle(design, data):
    params, module, fsm = _built(design)
    stream = data.draw(_stream(params, module.net_width("cfg_mode")))
    rtl = RtlSimulator(module)
    duts = {engine: BehavioralSimulation(params, fsm=fsm, backend=engine)
            for engine in ENGINES}
    for tick, pins in enumerate(stream):
        for name, value in pins.items():
            rtl.set_input(name, value)
        rtl.step()
        want = rtl.get("out_valid")
        frame = (rtl.get("out_l"), rtl.get("out_r")) if want else None
        for engine, dut in duts.items():
            for name, value in pins.items():
                dut.set_input(name, value)
            dut.step()
            got = dut.get("out_valid")
            assert got == want, f"{engine}: out_valid at tick {tick}"
            if want:
                assert (dut.get("out_l"), dut.get("out_r")) == frame, \
                    f"{engine}: frame at tick {tick}"


@pytest.mark.parametrize("engine", ENGINES)
def test_set_input_takes_pins_not_the_ports_the_front_end_drives(engine):
    params, _, fsm = _built("small-unopt")
    dut = BehavioralSimulation(params, fsm=fsm, backend=engine)
    dut.set_input("cfg_mode", 7)
    for driven in ("req", "phase", "wr_ptr", "fill", "gnt"):
        with pytest.raises(KeyError):
            dut.set_input(driven, 1)


def test_bare_main_process_keeps_its_ports():
    fsm = build_main_fsm(SMALL_PARAMS, True)
    assert fsm.front_end is None
    assert set(fsm.input_masks()) == {"req", "phase", "wr_ptr", "fill"}


def test_front_end_may_write_only_external_write_memories():
    fsm = build_main_fsm(SMALL_PARAMS, True)
    module = RtlModule("bad_front_end")
    en = module.input("en", 1)
    rom = fsm.program.memories["rom"]
    module.mem_write(module.memory("rom", rom.depth, rom.width), en,
                     en.zext(4), en.zext(rom.width))
    with pytest.raises(HlsError, match="rom"):
        fsm.with_front_end(module, {})
