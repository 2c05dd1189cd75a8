"""Gate-level simulator: 4-valued semantics, memories, X handling."""

import importlib
import itertools
import warnings

import pytest

from repro.datatypes import L0, L1, LX, LZ
from repro.engines import ENGINES
from repro.gatesim import (AccessViolation, CheckingMemoryModel,
                           GateSimError, GateSimulator, MemoryModel)
from repro.kernel import Reporter, Severity
from repro.rtl import BitNot, Const, Mux, Ref, RtlModule, Slice
from repro.synth import map_to_gates
from repro.synth.library import DEFAULT_LIBRARY, EVAL
from repro.synth.netlist import Netlist
from tests.test_gatesim_compiled import WIDE, batch_case


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


def _counting(sim):
    """Wrap every unit's eval on the interpreted *sim*: the returned
    list collects the position of each unit evaluated."""
    ran = []
    for unit in sim._units:
        def counted(pos=unit.pos, run=unit.eval):
            ran.append(pos)
            return run()
        unit.eval = counted
    return ran


def _cone(sim, uids):
    """The positions of the units in the fan-out cone of nets *uids*."""
    cone, todo = set(), list(uids)
    while todo:
        for unit in sim._fanout[todo.pop()]:
            if unit.pos not in cone:
                cone.add(unit.pos)
                todo.extend(unit.out_uids)
    return cone


def test_selective_trace_matches_full_eval():
    """Re-driving one input evaluates only units of its fan-out cone,
    each once, with the net values of a full evaluation; an edge that
    changes no input and no flop evaluates nothing."""
    m = RtlModule("m")
    a = m.input("a", 8)
    b = m.input("b", 8)
    r = m.register("r", 8)
    m.set_next(r, b)
    m.output("y", Slice(a + b, 7, 0))
    m.output("z", BitNot(b))
    m.output("q", r)
    nl = map_to_gates(m)
    sim = GateSimulator(nl)
    sim.set_input("a", 5)
    sim.set_input("b", 7)
    sim.step()
    assert (sim.get("y"), sim.get("q")) == (12, 7)

    ran = _counting(sim)
    sim.set_input("a", 6)
    assert sim.get("y") == 13
    a_cone = _cone(sim, [n.uid for n in nl.inputs["a"]])
    b_only = _cone(sim, [n.uid for n in nl.inputs["b"]]) - a_cone
    assert ran and len(ran) == len(set(ran))
    assert set(ran) <= a_cone and b_only
    full = GateSimulator(nl)
    full.set_input("a", 6)
    full.set_input("b", 7)
    full.step()
    assert sim.values == full.values

    ran.clear()
    sim.step()  # r already holds b, and no input moves
    sim.step(3)
    assert ran == []
    assert (sim.get("y"), sim.get("z"), sim.get("q")) == (13, 0xF8, 7)


@pytest.mark.parametrize("cell", sorted(
    c.name for c in DEFAULT_LIBRARY.cells.values() if not c.sequential))
def test_interpreted_cell_is_eval_with_z_kept(cell):
    """Every combinational cell on the interpreted engine, every
    4-valued input combination: exactly the library's ``EVAL``
    outputs, a Z passed through included."""
    spec = DEFAULT_LIBRARY.cells[cell]
    nl = Netlist("n")
    pins = {p: nl.add_input(p.lower(), 1)[0] for p in spec.inputs}
    g = nl.add_cell(cell, pins)
    for out in spec.outputs:
        nl.set_output(out.lower(), [g.outputs[out]])
    sim = GateSimulator(nl)
    for codes in itertools.product((L0, L1, LX, LZ),
                                   repeat=len(spec.inputs)):
        for pin, v in zip(spec.inputs, codes):
            sim.set_input_logic(pin.lower(), [v])
        for out in spec.outputs:
            assert sim.get_logic(out.lower()) == \
                [EVAL[(cell, out)](*codes)], (cell, codes, out)


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
    sim.memory_model("ram").write(1, 9)
    assert sim.get("y") == 9


@pytest.mark.parametrize("backend", list(ENGINES))
@pytest.mark.parametrize("code", [-1, 4])
def test_set_input_logic_rejects_a_code_outside_l0_lz(backend, code):
    """A code outside L0..LZ raises on every engine before any bit of
    the port changes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # native may fall back
        sim = GateSimulator(_ram_reader(), backend=backend)
    sim.set_input_logic("a", [L1, LX])
    with pytest.raises(GateSimError, match="no logic code"):
        sim.set_input_logic("a", [L0, code])
    assert sim.get_logic("a") == [L1, LX]


def test_interpreted_pattern_api_at_its_one_pattern():
    """The interpreted engine's pattern API at ``n_patterns=1`` is its
    scalar API: the same writes, reads (X included) and memory."""
    plain = GateSimulator(_ram_reader())
    lane = GateSimulator(_ram_reader(), n_patterns=1)
    for name, value in (("a", 1), ("we", 1), ("din", 6)):
        plain.set_input(name, value)
        lane.set_input_patterns(name, [value])
    plain.step()
    lane.step()
    plain.memory_model("ram").flip_bit(1, 0)
    lane.privatize_memory("ram", 0).flip_bit(1, 0)
    plain.set_input_logic("a", [LX, L0])
    lane.set_input_logic("a", [LX, L0])
    for port in ("q", "y"):
        bits = plain.get_logic(port)
        assert lane.get_port_planes(port) == (
            [int(v == L1) for v in bits],
            [int(v not in (L0, L1)) for v in bits])
    assert LX in plain.get_logic("y")
    assert lane.memory_model("ram").peek() == \
        plain.memory_model("ram").peek()
    with pytest.raises(GateSimError, match="expected 1 pattern value"):
        lane.set_input_patterns("a", [1, 0])
    with pytest.raises(GateSimError):
        lane.privatize_memory("ram", 1)
    with pytest.raises(GateSimError, match="single pattern"):
        GateSimulator(_ram_reader(), n_patterns=2)


def _gate_class(name):
    module, _, attr = ENGINES[name].gate.partition(":")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("backend", [
    name for name in ENGINES
    if hasattr(_gate_class(name), "get_logic_pattern")] + [WIDE])
def test_get_logic_pattern_rejects_missing_patterns(backend):
    """Patterns 0..n-1 read their own values; any other index raises,
    as ``memory_model`` does."""
    from tests.test_equivalence_gatetrace import alu

    engine, (n,) = batch_case(backend, (4,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # native may fall back
        sim = GateSimulator(map_to_gates(alu()), backend=engine,
                            n_patterns=n)
    sim.set_input_patterns("a", [1 + p for p in range(n)])
    sim.set_input_patterns("b", [5 + p for p in range(n)])
    sim.set_input_patterns("op", [0] * n)
    sim.step()
    for pattern in range(n):
        total = 6 + 2 * pattern
        assert sim.get_logic_pattern("y", pattern) \
            == [total >> bit & 1 for bit in range(16)]
    for pattern in (n, n + 66, -1):
        with pytest.raises(GateSimError, match=f"outside 0..{n - 1}"):
            sim.get_logic_pattern("y", pattern)
