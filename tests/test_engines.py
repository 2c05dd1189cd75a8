"""The engine table against the engines it describes.

Every dispatch in the package reads :data:`repro.engines.ENGINES`, so
its pattern caps must be the engines' real ones: an engine holds its
cap and rejects one pattern more, an uncapped engine holds a width no
machine word does, and a scalar engine has no batch at all.
"""

import random

import pytest

from repro.engines import ENGINES, engine_class, expand
from repro.gatesim import GateSimError, GateSimulator
from repro.hls.compiled import CompiledFsmBatch
from repro.native import toolchain_available
from repro.rtl import RtlError, RtlModule, RtlSimulator
from repro.src_design.behavioral import build_main_fsm
from repro.src_design.params import SMALL_PARAMS
from repro.synth.netlist import Netlist

#: a width no 64-bit word holds
WIDE = 200


def _engines():
    """Engines that run as themselves on this host."""
    return [name for name, engine in ENGINES.items()
            if engine.fallback is None or toolchain_available()]


def test_groups_expand_through_the_table():
    assert expand("all") == tuple(ENGINES)
    assert expand("both") == ("interpreted", "compiled")
    assert expand("native") == ("native",)
    with pytest.raises(ValueError, match="both"):
        expand("bogus")


@pytest.mark.parametrize("name", _engines())
def test_gate_pattern_cap_is_real(name):
    nl = Netlist("inv8")
    a = nl.add_input("a", 8)
    nl.set_output("y", [nl.add_cell("INV", {"A": net}).outputs["Y"]
                        for net in a])
    cap = ENGINES[name].max_patterns["gate"]
    if cap == 1:
        with pytest.raises(GateSimError):
            GateSimulator(nl, backend=name, n_patterns=2)
        return
    width = cap or WIDE
    sim = GateSimulator(nl, backend=name, n_patterns=width)
    rng = random.Random(width)
    values = [rng.randrange(256) for _ in range(width)]
    sim.set_input_patterns("a", values)
    sim.step()
    assert sim.get_patterns("y") == [~v & 0xFF for v in values]
    if cap is not None:
        with pytest.raises(GateSimError):
            GateSimulator(nl, backend=name, n_patterns=cap + 1)


@pytest.mark.parametrize("name", _engines())
def test_rtl_pattern_cap_is_real(name):
    m = RtlModule("m")
    m.output("y", m.input("x", 4))
    cap = ENGINES[name].max_patterns["rtl"]
    if cap == 1:
        with pytest.raises(RtlError):
            RtlSimulator(m, backend=name, n_patterns=2)
        return
    assert cap is None
    sim = RtlSimulator(m, backend=name, n_patterns=WIDE)
    sim.set_input_patterns("x", [p % 16 for p in range(WIDE)])
    sim.settle()
    assert list(sim.get_patterns("y")) == [p % 16 for p in range(WIDE)]


@pytest.mark.parametrize("name", _engines())
def test_fsm_batch_cap_is_real(name):
    engine = ENGINES[name]
    if not engine.batches("beh"):
        assert engine.fsm_batch is None
        return
    assert engine.max_patterns["beh"] is None
    fsm = build_main_fsm(SMALL_PARAMS, True)
    batch = engine_class(name, "fsm_batch")(fsm, WIDE)
    reference = CompiledFsmBatch(fsm, WIDE)
    ports = fsm.program.ports.values()
    inputs = [(p.name, 1 << p.width) for p in ports if p.direction == "in"]
    outputs = [p.name for p in ports if p.direction == "out"]
    rng = random.Random(7)
    for _ in range(60):
        for port, span in inputs:
            values = [rng.randrange(span) for _ in range(WIDE)]
            batch.set_input_patterns(port, values)
            reference.set_input_patterns(port, values)
        batch.step()
        reference.step()
        for port in outputs:
            assert list(batch.get_output_patterns(port)) \
                == reference.get_output_patterns(port), port
