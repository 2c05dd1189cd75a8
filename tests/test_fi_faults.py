"""Fault models, injectable-target enumeration and faultload seeding.

Fast structural tests of the fault-injection building blocks: netlist
cloning isolates mutations, saboteurs are transparent until asserted,
overlays key distinctly in the compile cache, the target spaces cover
what they claim, and faultloads replay bit-identically from a seed.
"""

import random

import pytest

from repro.fi.faultload import (generate_gate_faultload,
                                generate_rtl_faultload)
from repro.fi.faults import (FAULT_MODELS, Fault, FaultError,
                             build_overlay, control_name, insert_saboteur)
from repro.fi.targets import (derive_gate_swaps, flop_targets,
                              injectable_nets, memory_targets,
                              register_targets)
from repro.gatesim import GateSimulator
from repro.gatesim import structural_hash
from repro.rtl import Const, RtlModule, Slice
from repro.synth import synthesize
from repro.synth.library import DEFAULT_LIBRARY


def toy_module():
    """A small design exercising every target kind: combinational
    logic, registers (hence flops + scan) and a memory macro."""
    m = RtlModule("toy")
    a = m.input("a", 4)
    b = m.input("b", 4)
    addr = m.input("addr", 4)
    s = m.assign("s", Slice(a + b + Const(4, 1), 3, 0))
    r4 = m.register("r4", 4)
    m.set_next(r4, s)
    m.output("y", r4)
    rom = m.memory("rom", 16, 8, contents=list(range(16)))
    r8 = m.register("r8", 8)
    m.set_next(r8, m.mem_read(rom, addr))
    m.output("z", r8)
    return m


@pytest.fixture(scope="module")
def toy_netlist():
    return synthesize(toy_module())


def _run(sim, stimuli, ports=("y", "z")):
    out = []
    for a, b, addr in stimuli:
        sim.set_input("a", a)
        sim.set_input("b", b)
        sim.set_input("addr", addr)
        sim.step()
        out.append(tuple(sim.get(p) for p in ports))
    return out


def _stimuli(n=12, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(16), rng.randrange(16), rng.randrange(16))
            for _ in range(n)]


# ----------------------------------------------------------------------
# cloning and saboteur overlays
# ----------------------------------------------------------------------

def test_clone_preserves_structure_and_isolates_mutation(toy_netlist):
    nl = toy_netlist
    dup = nl.clone()
    assert structural_hash(dup) == structural_hash(nl)
    assert len(dup.cells) == len(nl.cells)
    assert [c.name for c in dup.scan_chain] == \
        [c.name for c in nl.scan_chain]

    # mutating the clone must not leak into the baseline
    target = injectable_nets(dup)[0]
    fault = Fault(0, "stuck1", "gate", "net", target.name,
                  uid=target.uid, value=1)
    before_cells = len(nl.cells)
    before_inputs = set(nl.inputs)
    build_overlay(dup, [fault])  # clones *dup* again -- dup untouched
    overlay = build_overlay(nl, [fault])
    assert len(nl.cells) == before_cells
    assert set(nl.inputs) == before_inputs
    assert len(overlay.netlist.cells) == before_cells + 1
    assert control_name(fault) in overlay.netlist.inputs


def test_saboteur_transparent_until_asserted(toy_netlist):
    nl = toy_netlist
    target = nl.outputs["y"][0]  # y's LSB
    fault = Fault(0, "stuck1", "gate", "net", target.name,
                  uid=target.uid, value=1)
    overlay = build_overlay(nl, [fault])
    stimuli = _stimuli()
    baseline = _run(GateSimulator(nl), stimuli)
    idle = _run(GateSimulator(overlay.netlist), stimuli)
    assert idle == baseline  # control defaults to 0: fully transparent

    sim = GateSimulator(overlay.netlist)
    sim.set_input(control_name(fault), 1)
    forced = _run(sim, stimuli)
    assert all(y & 1 for y, _ in forced)  # y bit 0 stuck at 1
    assert any(f != b for f, b in zip(forced, baseline))


def test_flip_saboteur_inverts_flop_state(toy_netlist):
    nl = toy_netlist
    flop = flop_targets(nl)[0]
    fault = Fault(0, "seu", "gate", "flop", flop.name, uid=flop.uid,
                  cycle=3)
    overlay = build_overlay(nl, [fault])
    stimuli = _stimuli()
    assert _run(GateSimulator(overlay.netlist), stimuli) == \
        _run(GateSimulator(nl), stimuli)  # XOR with 0 is a buffer


def test_overlays_key_distinctly_but_share_across_timing(toy_netlist):
    nl = toy_netlist
    nets = injectable_nets(nl)
    f0 = Fault(0, "stuck0", "gate", "net", nets[0].name,
               uid=nets[0].uid, value=0)
    f1 = Fault(0, "stuck1", "gate", "net", nets[1].name,
               uid=nets[1].uid, value=1)
    h_base = structural_hash(nl)
    h0 = structural_hash(build_overlay(nl, [f0]).netlist)
    h1 = structural_hash(build_overlay(nl, [f1]).netlist)
    assert len({h_base, h0, h1}) == 3  # distinct compile-cache keys

    # two pulses on one net differ only in control timing: the overlays
    # share a structure key, a name, and therefore one compiled artifact
    early = Fault(0, "pulse", "gate", "net", nets[0].name,
                  uid=nets[0].uid, value=1, cycle=1, duration=2)
    late = Fault(0, "pulse", "gate", "net", nets[0].name,
                 uid=nets[0].uid, value=1, cycle=7, duration=2)
    assert early.structure_key() == late.structure_key()
    o_early = build_overlay(nl, [early])
    o_late = build_overlay(nl, [late])
    assert o_early.netlist.name == o_late.netlist.name
    assert structural_hash(o_early.netlist) == \
        structural_hash(o_late.netlist)


def test_overlay_equals_saboteurs_inserted_one_by_one(toy_netlist):
    """One overlay's load index, kept current as saboteurs stack on a
    net, wires what inserting each saboteur alone wires (every load
    found afresh): three saboteurs on a memory address net, one on an
    output bit, a flip on a flop."""
    nl = toy_netlist
    addr = nl.memories[0].read_ports[0].addr[0]
    y0 = nl.outputs["y"][0]
    flop = flop_targets(nl)[0]
    faults = [
        Fault(0, "stuck0", "gate", "net", addr.name, uid=addr.uid),
        Fault(1, "stuck1", "gate", "net", y0.name, uid=y0.uid, value=1),
        Fault(2, "pulse", "gate", "net", addr.name, uid=addr.uid,
              value=1, cycle=2, duration=3),
        Fault(3, "seu", "gate", "flop", flop.name, uid=flop.uid, cycle=4),
        Fault(4, "stuck1", "gate", "net", addr.name, uid=addr.uid,
              value=1)]
    overlay = build_overlay(nl, faults)
    alone = nl.clone(overlay.netlist.name)
    assert [insert_saboteur(alone, fault) for fault in faults] == \
        [overlay.controls[fault.index] for fault in faults]
    assert structural_hash(overlay.netlist) == structural_hash(alone)
    assert structural_hash(overlay.netlist) != \
        structural_hash(nl.clone(overlay.netlist.name))


def test_non_structural_fault_rejected_by_saboteur_path(toy_netlist):
    mem = memory_targets(toy_netlist)[0]
    fault = Fault(0, "seu", "gate", "mem", mem.name, address=0, bit=0,
                  cycle=1)
    assert not fault.structural
    overlay = build_overlay(toy_netlist, [fault])  # rides along poke-only
    assert overlay.controls == {}
    with pytest.raises(FaultError):
        insert_saboteur(toy_netlist.clone(), fault)


# ----------------------------------------------------------------------
# target enumeration
# ----------------------------------------------------------------------

def test_injectable_nets_exclude_constants(toy_netlist):
    nl = toy_netlist
    targets = injectable_nets(nl)
    assert targets
    uids = [t.uid for t in targets]
    assert len(uids) == len(set(uids))
    assert nl.const0.uid not in uids
    assert nl.const1.uid not in uids
    flop_uids = {c.outputs["Q"].uid for c in nl.flops()}
    assert {t.uid for t in targets if t.is_flop_state} <= flop_uids


def test_flop_targets_follow_scan_chain(toy_netlist):
    nl = toy_netlist
    targets = flop_targets(nl)
    assert [t.name for t in targets] == [c.name for c in nl.scan_chain]
    assert {t.name for t in targets} == {c.name for c in nl.flops()}
    assert all(t.is_flop_state for t in targets)
    assert len(targets) == 12  # r4 + r8 state bits


def test_memory_targets_enumerate_macros(toy_netlist):
    targets = memory_targets(toy_netlist)
    assert [(t.name, t.depth, t.width) for t in targets] == \
        [("rom", 16, 8)]


def test_register_targets_cover_declared_state():
    regs = register_targets(toy_module())
    assert {(r.name, r.width) for r in regs} == {("r4", 4), ("r8", 8)}


# ----------------------------------------------------------------------
# library-derived cell swaps (shared with verify.mutate)
# ----------------------------------------------------------------------

def test_derive_gate_swaps_groups_pin_compatible_cells():
    swaps = derive_gate_swaps(DEFAULT_LIBRARY)
    assert swaps["INV"] == ("BUF",)
    assert swaps["BUF"] == ("INV",)
    two_input = {"NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2"}
    for name in two_input:
        assert set(swaps[name]) == two_input - {name}
    # no pin-compatible peer / sequential: not in the space
    for name in ("MUX2", "FA", "HA", "DFF", "SDFF"):
        assert name not in swaps
    # the relation is symmetric
    for name, alternatives in swaps.items():
        for alt in alternatives:
            assert name in swaps[alt]


def test_mutation_table_is_the_derived_one():
    from repro.verify.mutate import GATE_SWAPS
    assert GATE_SWAPS == derive_gate_swaps(DEFAULT_LIBRARY)


# ----------------------------------------------------------------------
# faultload seeding
# ----------------------------------------------------------------------

def test_gate_faultload_replays_from_seed(toy_netlist):
    a = generate_gate_faultload(toy_netlist, 40, seed=5, max_cycle=20)
    b = generate_gate_faultload(toy_netlist, 40, seed=5, max_cycle=20)
    assert a == b
    c = generate_gate_faultload(toy_netlist, 40, seed=6, max_cycle=20)
    assert a != c
    assert [f.index for f in a] == list(range(40))
    for fault in a:
        assert fault.model in FAULT_MODELS
        assert fault.level == "gate"
        if not fault.permanent:
            assert 0 <= fault.cycle < 20


def test_gate_faultload_respects_model_subset(toy_netlist):
    faults = generate_gate_faultload(toy_netlist, 16, seed=1,
                                     max_cycle=10, models=("seu",))
    assert {f.model for f in faults} == {"seu"}
    assert {f.target_kind for f in faults} <= {"flop", "mem"}
    with pytest.raises(FaultError):
        generate_gate_faultload(toy_netlist, 4, seed=1, max_cycle=10,
                                models=("bitrot",))


def test_exhaustive_mode_enumerates_stuck_space(toy_netlist):
    nets = injectable_nets(toy_netlist)
    n = 2 * len(nets)
    faults = generate_gate_faultload(
        toy_netlist, n, seed=0, max_cycle=10,
        models=("stuck0", "stuck1"), exhaustive=True)
    assert {(f.uid, f.value) for f in faults} == \
        {(net.uid, v) for net in nets for v in (0, 1)}


def test_rtl_faultload_replays_from_seed():
    module = toy_module()
    a = generate_rtl_faultload(module, 20, seed=3, max_cycle=10)
    assert a == generate_rtl_faultload(module, 20, seed=3, max_cycle=10)
    widths = {r.name: r.width for r in register_targets(module)}
    for fault in a:
        assert fault.model == "seu" and fault.level == "rtl"
        assert 0 <= fault.bit < widths[fault.target]
        assert 0 <= fault.cycle < 10
    exhaustive = generate_rtl_faultload(module, sum(widths.values()),
                                        seed=0, max_cycle=10,
                                        exhaustive=True)
    assert {(f.target, f.bit) for f in exhaustive} == \
        {(name, bit) for name, w in widths.items() for bit in range(w)}
