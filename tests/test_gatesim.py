"""Gate-level simulator: 4-valued semantics, memories, X handling."""

import importlib
import warnings

import pytest

from repro.datatypes import L0, L1, LX
from repro.engines import ENGINES
from repro.gatesim import (AccessViolation, CheckingMemoryModel,
                           GateSimError, GateSimulator, MemoryModel)
from repro.kernel import Reporter, Severity
from repro.rtl import Const, Mux, Ref, RtlModule, Slice
from repro.synth import map_to_gates
from repro.synth.netlist import Netlist


def test_simple_gate_network():
    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    b = nl.add_input("b", 1)[0]
    g = nl.add_cell("NAND2", {"A": a, "B": b})
    nl.set_output("y", [g.outputs["Y"]])
    sim = GateSimulator(nl)
    for av, bv, exp in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        sim.set_input("a", av)
        sim.set_input("b", bv)
        assert sim.get("y") == exp


def test_flop_initial_value_and_clocking():
    m = RtlModule("m")
    x = m.input("x", 1)
    r = m.register("r", 1, init=1)
    m.set_next(r, x)
    m.output("q", r)
    sim = GateSimulator(map_to_gates(m))
    assert sim.get("q") == 1  # init
    sim.set_input("x", 0)
    sim.step()
    assert sim.get("q") == 0


def test_reset_restores_flops_and_ram():
    m = RtlModule("m")
    x = m.input("x", 4)
    we = m.input("we", 1)
    ram = m.memory("ram", 4, 4)
    m.mem_write(ram, we, Const(2, 1), x)
    q = m.mem_read(ram, Const(2, 1))
    r = m.register("r", 4, init=3)
    m.set_next(r, x)
    m.output("rq", q)
    m.output("reg", r)
    sim = GateSimulator(map_to_gates(m))
    sim.set_input("x", 9)
    sim.set_input("we", 1)
    sim.step()
    assert sim.get("rq") == 9
    assert sim.get("reg") == 9
    sim.reset()
    assert sim.get("rq") == 0
    assert sim.get("reg") == 3


def test_get_unknown_port_raises():
    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [a])
    sim = GateSimulator(nl)
    with pytest.raises(GateSimError):
        sim.get("nope")
    with pytest.raises(GateSimError):
        sim.set_input("nope", 0)


def test_undriven_net_rejected_by_validate():
    from repro.synth.netlist import Net, NetlistError

    nl = Netlist("n")
    floating = nl.new_net("floating")
    g = nl.add_cell("INV", {"A": floating})
    nl.set_output("y", [g.outputs["Y"]])
    with pytest.raises(NetlistError):
        GateSimulator(nl)


def test_selective_trace_matches_full_eval():
    """Toggling one input only re-evaluates its cone -- results identical."""
    m = RtlModule("m")
    a = m.input("a", 8)
    b = m.input("b", 8)
    m.output("y", Slice(a + b, 7, 0))
    sim = GateSimulator(map_to_gates(m))
    sim.set_input("a", 5)
    sim.set_input("b", 7)
    assert sim.get("y") == 12
    sim.set_input("a", 6)  # only a's cone re-evaluates
    assert sim.get("y") == 13


# ---------------------------------------------------------------- memory
def test_plain_memory_silent_on_invalid():
    mem = MemoryModel("m", 4, 8)
    assert mem.read(7) == [0] * 8  # out of range: silent zeros
    mem.write(9, 0xFF)             # silently dropped
    assert mem.peek() == [0, 0, 0, 0]


def test_checking_memory_reports_invalid_read():
    rep = Reporter(raise_at=Severity.FATAL)
    mem = CheckingMemoryModel("m", 4, 8, reporter=rep)
    mem.read(4, enabled=True, cycle=10)
    assert rep.count(Severity.ERROR) == 1
    assert mem.violations == [AccessViolation("m", "read", 4, 10)]


def test_checking_memory_ignores_disabled_reads():
    rep = Reporter(raise_at=Severity.FATAL)
    mem = CheckingMemoryModel("m", 4, 8, reporter=rep)
    mem.read(9, enabled=False)
    assert rep.count(Severity.ERROR) == 0


def test_checking_memory_reports_invalid_write():
    rep = Reporter(raise_at=Severity.FATAL)
    mem = CheckingMemoryModel("m", 4, 8, reporter=rep)
    mem.write(4, 1, cycle=3)
    assert rep.count(Severity.ERROR) == 1
    assert mem.violations[0].kind == "write"


def test_checking_memory_data_identical_to_plain():
    plain = MemoryModel("p", 4, 8)
    check = CheckingMemoryModel("c", 4, 8)
    for mem in (plain, check):
        mem.write(2, 42)
    assert plain.read(2) == check.read(2)
    assert plain.read(4) == check.read(4)  # same silent zeros


def test_rom_is_read_only():
    mem = MemoryModel("rom", 4, 8, contents=[1, 2, 3, 4])
    assert mem.read(2) == [1, 1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        mem.write(0, 5)


def test_rom_contents_validated():
    with pytest.raises(ValueError):
        MemoryModel("rom", 4, 8, contents=[1, 2])


def test_x_address_reads_x():
    mem = MemoryModel("m", 4, 8)
    assert mem.read(None) == [LX] * 8


def _ram_reader():
    """A 4x4 RAM with a write port, a read port on output ``y`` and a
    register ``r <- y`` on output ``q``."""
    m = RtlModule("ram_reader")
    ram = m.memory("ram", 4, 4)
    we, a, din = m.input("we", 1), m.input("a", 2), m.input("din", 4)
    m.mem_write(ram, we, a, din)
    y = m.mem_read(ram, a)
    r = m.register("r", 4)
    m.set_next(r, y)
    m.output("q", r)
    m.output("y", y)
    return map_to_gates(m)


@pytest.mark.parametrize("backend", list(ENGINES))
def test_memory_poke_is_seen_without_an_input_change(backend):
    """An SEU or a write made through ``memory_model()`` reaches the
    read port at once, on every engine, with the inputs held."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # native may fall back
        sim = GateSimulator(_ram_reader(), backend=backend)
    for name, value in (("a", 1), ("we", 0), ("din", 0)):
        sim.set_input(name, value)
    sim.step()
    assert sim.get("y") == 0  # settled after the edge
    sim.memory_model("ram").flip_bit(1, 2)
    assert sim.get("y") == 4
    sim.step()
    assert sim.get("q") == 4
    model = sim.memory_model("ram")
    if hasattr(model, "write"):  # the vectorized view only flips
        model.write(1, 9)
        assert sim.get("y") == 9


def _gate_class(name):
    module, _, attr = ENGINES[name].gate.partition(":")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("backend", [
    name for name in ENGINES
    if hasattr(_gate_class(name), "get_logic_pattern")])
def test_get_logic_pattern_rejects_missing_patterns(backend):
    """Patterns 0..n-1 read their own values; any other index raises,
    as ``memory_model`` does."""
    from tests.test_equivalence_gatetrace import alu

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # native may fall back
        sim = GateSimulator(map_to_gates(alu()), backend=backend,
                            n_patterns=4)
    sim.set_input_patterns("a", [1, 2, 3, 4])
    sim.set_input_patterns("b", [5, 6, 7, 8])
    sim.set_input_patterns("op", [0, 0, 0, 0])
    sim.step()
    for pattern, total in enumerate((6, 8, 10, 12)):
        assert sim.get_logic_pattern("y", pattern) \
            == [total >> bit & 1 for bit in range(16)]
    for pattern in (4, 70, -1):
        with pytest.raises(GateSimError, match="outside 0..3"):
            sim.get_logic_pattern("y", pattern)
