"""Generic gate-level fault injection for corpus designs.

The existing campaign runner (:mod:`repro.fi.campaign`) drives the SRC
design's schedule; corpus members have arbitrary port sets, so this
engine replays a *recorded waveform* instead: the per-cycle input record
of a fault-free run (see ``CorpusDesign.waveform``) is broadcast
open-loop to every fault lane.  Everything else mirrors the campaign
runner -- saboteur overlays, parallel-fault pattern batches, the
pattern-0 fault-free golden cross-check, and the masked/sdc/detected/
hang taxonomy -- so corpus FI rates are directly comparable to
BENCH_fi.json.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..fi.campaign import _classify, fi_batch_width
from ..fi.faults import Fault, build_overlay, control_name
from ..fi.faultload import generate_gate_faultload
from ..gatesim import GateSimulator
from .designs import CorpusError

#: faults per batch on an engine that does not sweep (pattern 0 stays
#: fault-free, so a batch fills native's 64-pattern gate word)
COMPILED_BATCH = 63


def generate_design_faultload(netlist, n_faults: int, seed: int,
                              max_cycle: int,
                              models: Sequence[str] = ("seu",)
                              ) -> List[Fault]:
    """A seeded faultload over the design's own netlist.

    The default fault model is the single-event upset: every target is
    architecturally meaningful state, which is what the harden pass
    (TMR on the highest-SDC registers) is built to mask.
    """
    return generate_gate_faultload(netlist, n_faults, seed,
                                   max_cycle=max_cycle,
                                   models=tuple(models))


def _decode_frame(planes, pattern: int) -> Optional[Tuple[int, ...]]:
    """One pattern's output frame from per-port bit planes; None on X."""
    frame = []
    bit = 1 << pattern
    for ones, unks in planes:
        value = 0
        for i in range(len(ones)):
            if unks[i] & bit:
                return None
            if ones[i] & bit:
                value |= 1 << i
        frame.append(value)
    return tuple(frame)


def run_waveform_batch(netlist, waveform: Sequence[Dict[str, int]],
                       golden: Sequence[Tuple[int, ...]],
                       valid_port: str,
                       frame_ports: Sequence[str],
                       faults: Sequence[Fault],
                       cycle_budget: int,
                       backend: str = "compiled",
                       detect_ports: Sequence[str] = ()) -> list:
    """Inject one batch of faults in parallel bit-plane lanes."""
    n = len(faults)
    overlay = build_overlay(netlist, faults)
    sim = GateSimulator(overlay.netlist, backend=backend, n_patterns=n + 1)
    pattern_of = {fault.index: p + 1 for p, fault in enumerate(faults)}

    toggles: Dict[int, List[Tuple[Fault, int]]] = {}
    mem_pokes: Dict[int, List[Fault]] = {}
    for fault in faults:
        ctrl = overlay.controls.get(fault.index)
        if fault.permanent:
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = 1
            sim.set_input_patterns(ctrl, values)
        elif fault.structural:
            toggles.setdefault(fault.cycle, []).append((fault, 1))
            toggles.setdefault(fault.cycle + fault.duration,
                               []).append((fault, 0))
        else:  # memory-bit SEU
            mem_pokes.setdefault(fault.cycle, []).append(fault)

    idle = {name: 0 for name in waveform[0]}
    expected = len(golden)
    outputs: List[List[Tuple[int, ...]]] = [[] for _ in range(n + 1)]
    detected: List[Optional[Tuple[int, str]]] = [None] * (n + 1)
    live = set(range(n + 1))

    for tick in range(cycle_budget):
        drive = waveform[tick] if tick < len(waveform) else idle
        for name, value in drive.items():
            sim.set_input(name, value)
        for fault, value in toggles.get(tick, ()):
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = value
            sim.set_input_patterns(control_name(fault), values)
        for fault in mem_pokes.get(tick, ()):
            model = sim.privatize_memory(fault.target,
                                         pattern_of[fault.index])
            model.flip_bit(fault.address, fault.bit)
        sim.step()

        d_planes = [sim.get_port_planes(p) for p in detect_ports]
        v_ones, v_unks = sim.get_port_planes(valid_port)
        valid_ones, valid_unk = v_ones[0], v_unks[0]
        f_planes = None
        if valid_ones or valid_unk:
            f_planes = [sim.get_port_planes(p) for p in frame_ports]
        still_live = []
        for p in live:
            bit = 1 << p
            flagged = False
            for port, (ones, unks) in zip(detect_ports, d_planes):
                if any(o & bit or u & bit for o, u in zip(ones, unks)):
                    detected[p] = (tick, f"{port} asserted")
                    flagged = True
                    break
            if flagged:
                continue
            if valid_unk & bit:
                detected[p] = (tick, f"{valid_port} is X")
                continue
            if valid_ones & bit:
                frame = _decode_frame(f_planes, p)
                if frame is None:
                    detected[p] = (tick, "output frame is X")
                    continue
                outputs[p].append(frame)
                if len(outputs[p]) >= expected:
                    continue
            still_live.append(p)
        live = set(still_live)
        if not live:
            break

    if detected[0] is not None or outputs[0] != list(golden):
        raise CorpusError(
            f"fault-free pattern diverged from golden on "
            f"{netlist.name}: got {len(outputs[0])} frames")

    return [_classify(fault, outputs[pattern_of[fault.index]],
                      detected[pattern_of[fault.index]], golden)
            for fault in faults]


def run_design_campaign(netlist, waveform: Sequence[Dict[str, int]],
                        golden: Sequence[Tuple[int, ...]],
                        valid_port: str,
                        frame_ports: Sequence[str],
                        faults: Sequence[Fault],
                        cycle_budget: int,
                        backend: str = "compiled",
                        detect_ports: Sequence[str] = ()) -> list:
    """Run a whole faultload in batches; returns FaultRecords."""
    batch = fi_batch_width("gate", backend, len(faults), 1, COMPILED_BATCH)
    records = []
    for lo in range(0, len(faults), batch):
        records.extend(run_waveform_batch(
            netlist, waveform, golden, valid_port, frame_ports,
            faults[lo:lo + batch], cycle_budget, backend=backend,
            detect_ports=detect_ports))
    return records


def sdc_counts_by_register(records) -> Dict[str, int]:
    """SDC counts attributed to RTL registers via flop cell names."""
    counts: Dict[str, int] = {}
    for record in records:
        if record.outcome != "sdc":
            continue
        fault = record.fault
        if fault.target_kind != "flop" or "_ff" not in fault.target:
            continue
        reg = fault.target.rsplit("_ff", 1)[0]
        counts[reg] = counts.get(reg, 0) + 1
    return counts
