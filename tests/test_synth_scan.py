"""Scan insertion on the real SRC: equivalence and full state exposure.

The toy-design mechanics live in ``test_synth_scan_timing.py``; these
tests pin the two properties the fault-injection subsystem depends on,
on the synthesised SRC itself:

* functional equivalence -- with ``scan_en`` idle the scanned netlist
  produces the golden output stream, bit-identical to the scan-free
  synthesis of the same RTL;
* complete state exposure -- every flop sits on the scan chain, and a
  full-chain shift moves data through all of them, which is what lets
  ``repro.fi.targets.flop_targets`` enumerate the whole state space.
"""

import random

import pytest

from repro.datatypes.integers import wrap_signed
from repro.fi.campaign import make_workload
from repro.fi.targets import flop_targets
from repro.flow import Level, build_module
from repro.gatesim import GateSimulator
from repro.src_design.params import SMALL_PARAMS
from repro.synth import synthesize


@pytest.fixture(scope="module")
def src_module():
    return build_module(SMALL_PARAMS, Level.GATE_RTL)


@pytest.fixture(scope="module")
def scanned(src_module):
    return synthesize(src_module)


@pytest.fixture(scope="module")
def plain(src_module):
    return synthesize(src_module, scan=False)


def _run_workload(netlist, workload):
    sim = GateSimulator(netlist, backend="compiled")
    dw = SMALL_PARAMS.data_width
    outputs = []
    for drive in workload.waveform:
        for name, value in drive.items():
            sim.set_input(name, value)
        sim.step()
        if sim.get("out_valid"):
            outputs.append((wrap_signed(sim.get("out_l"), dw),
                            wrap_signed(sim.get("out_r"), dw)))
        if len(outputs) >= workload.expected:
            break
    return outputs


def test_scan_insertion_preserves_function(scanned, plain):
    workload = make_workload(SMALL_PARAMS, seed=0, budget="smoke")
    with_scan = _run_workload(scanned, workload)
    without = _run_workload(plain, workload)
    assert with_scan == without == workload.golden


def test_every_flop_is_on_the_chain(scanned, plain):
    chain = scanned.scan_chain
    assert chain
    assert {id(c) for c in chain} == {id(c) for c in scanned.flops()}
    assert all(c.cell_type == "SDFF" for c in chain)
    # scan is a pure substitution: same state-bit count as the
    # scan-free synthesis of the same RTL
    assert len(chain) == len(plain.flops())
    assert all(c.cell_type == "DFF" for c in plain.flops())


def test_full_chain_shift_reaches_every_flop(scanned):
    n = len(scanned.scan_chain)
    pattern = [random.Random(11).randrange(2) for _ in range(n)]
    sim = GateSimulator(scanned, backend="compiled")
    sim.set_input("scan_en", 1)
    for bit in pattern:
        sim.set_input("scan_in", bit)
        sim.step()
    sim.set_input("scan_in", 0)
    seen = []
    for _ in range(n):
        seen.append(sim.get("scan_out"))
        sim.step()
    assert seen == pattern  # first-in bit emerges first, none skipped


def test_fi_flop_targets_cover_the_state_space(scanned):
    targets = flop_targets(scanned)
    assert [t.name for t in targets] == \
        [c.name for c in scanned.scan_chain]
    assert {t.uid for t in targets} == \
        {c.outputs["Q"].uid for c in scanned.flops()}
