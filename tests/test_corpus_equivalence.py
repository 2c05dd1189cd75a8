"""Engine equivalence over a sampled corpus slice.

The interpreted/compiled/native equivalence suites previously ran
only on the SRC design; this extends them across generated corpus
members at every refinement level, and to the fault records the gate
FI driver produces on every batch engine.  Failure messages carry a
replay expression (corpus seed + member index), so any divergence is
reproducible from the log alone.
"""

import pytest

from repro.corpus import (CORPUS_LEVELS, DESIGN_KINDS, ENGINES, PARITY_PORT,
                          build_design, generate_corpus,
                          generate_design_faultload, harden_module,
                          run_design_campaign)
from repro.corpus.inject import design_workload
from repro.engines import batch_engines
from repro.fi.campaign import run_gate_batch, run_gate_fault_scalar
from repro.fi.faults import FAULT_MODELS
from repro.gatesim import GateSimulator
from repro.synth import synthesize

CORPUS_SEED = 2026
N_DESIGNS = 4  # one member of every kind
N_FRAMES = 6
N_TX = 6

_SPECS = generate_corpus(CORPUS_SEED, N_DESIGNS, n_frames=N_FRAMES,
                         n_tx=N_TX)


@pytest.fixture(scope="module")
def designs():
    built = {}
    for index, spec in enumerate(_SPECS):
        design = build_design(spec)
        built[index] = (design, design.golden_frames())
    return built


def _replay(index):
    return (f"replay: generate_corpus({CORPUS_SEED}, {N_DESIGNS}, "
            f"n_frames={N_FRAMES}, n_tx={N_TX})[{index}] "
            f"-> {_SPECS[index].name}")


@pytest.mark.parametrize("index", range(N_DESIGNS),
                         ids=[s.name for s in _SPECS])
@pytest.mark.parametrize("level", CORPUS_LEVELS)
@pytest.mark.parametrize("engine", ENGINES)
def test_corpus_engine_frame_exact(designs, index, level, engine):
    design, golden = designs[index]
    frames = design.run_level(level, engine)
    assert len(frames) == len(golden), (
        f"{level}/{engine}: frame count diverged "
        f"({len(frames)} vs golden {len(golden)}) -- {_replay(index)}")
    for frame_no, (got, want) in enumerate(zip(frames, golden)):
        assert got == want, (
            f"{level}/{engine}: first divergence at frame {frame_no}: "
            f"{got} vs golden {want} -- {_replay(index)}")


# ----------------------------------------------------------------------
# fault injection: every batch engine classifies every fault alike
# ----------------------------------------------------------------------

#: every other gate batch engine, each checked against compiled
FI_ENGINES = tuple(e for e in batch_engines("gate") if e != "compiled")


def _fi_member(designs, member):
    """(netlist, design, detect ports, replay note) of one FI member: a
    corpus design as generated, or the regfile member parity-hardened
    on all its registers (which exercises the detect-port path)."""
    if member != "parity":
        design, _ = designs[member]
        return design.netlist(), design, (), _replay(member)
    index = DESIGN_KINDS.index("regfile")
    design, _ = designs[index]
    module = design.build_rtl()
    hardened = harden_module(module, [r.name for r in module.registers],
                             "parity")
    return (synthesize(hardened), design, (PARITY_PORT,),
            f"parity on every register of {_replay(index)}")


def _interpreted_frames(netlist, design, waveform, detect):
    """Every frame the valid port marks in a fault-free open-loop
    replay of *waveform* on the interpreted engine; no detect port may
    assert."""
    sim = GateSimulator(netlist)
    frames = []
    for drive in waveform:
        for name, value in drive.items():
            sim.set_input(name, value)
        sim.step()
        assert [sim.get(port) for port in detect] == [0] * len(detect)
        if sim.get(design.valid_port) == 1:
            frames.append(tuple(sim.get(p) for p in design.frame_ports))
    return frames


@pytest.mark.parametrize("member", list(range(N_DESIGNS)) + ["parity"],
                         ids=[s.name for s in _SPECS] + ["regfile-parity"])
def test_corpus_fi_engines_agree(designs, member):
    netlist, design, detect, replay = _fi_member(designs, member)
    golden = design.golden_frames()
    waveform = design.waveform()
    # the reference engine agrees on the (possibly hardened) netlist
    frames = _interpreted_frames(netlist, design, waveform, detect)
    assert frames == golden, f"interpreted -- {replay}"
    faults = generate_design_faultload(netlist, 24, 7, len(waveform),
                                       models=FAULT_MODELS)

    def records(engine):
        return [r.as_dict() for r in run_design_campaign(
            netlist, waveform, golden, design.valid_port,
            design.frame_ports, faults, design.cycle_budget(),
            backend=engine, detect_ports=detect)]

    want = records("compiled")
    assert len(want) == len(faults)
    if detect:
        assert any(r["outcome"] == "detected" for r in want)
    for engine in FI_ENGINES:
        got = records(engine)
        diffs = [(w["index"], w["outcome"], g["outcome"])
                 for w, g in zip(want, got) if w != g]
        assert got == want, (
            f"{engine} vs compiled: {len(diffs)} fault record(s) "
            f"differ, first {diffs[:3]} -- {replay}")


@pytest.mark.parametrize("index", range(N_DESIGNS),
                         ids=[s.name for s in _SPECS])
def test_corpus_one_fault_runner_equals_the_batch(designs, index):
    """The gate one-fault runner on the interpreted engine gives the
    batch's records on any design: it observes the ports the workload
    names and decodes frames as the workload says."""
    design, golden = designs[index]
    netlist = design.netlist()
    waveform = design.waveform()
    workload = design_workload(waveform, golden, design.valid_port,
                               design.frame_ports, design.cycle_budget())
    faults = generate_design_faultload(netlist, 6, CORPUS_SEED,
                                       len(waveform), models=FAULT_MODELS)
    want = [r.as_dict() for r in run_gate_batch(netlist, workload, faults,
                                                None)]
    got = [run_gate_fault_scalar(netlist, workload, fault, None).as_dict()
           for fault in faults]
    assert got == want, _replay(index)
