"""Gate-level fault injection for corpus designs.

Corpus members have arbitrary port sets, so their campaigns replay a
*recorded waveform*: the per-cycle input record of a fault-free run
(see ``CorpusDesign.waveform``), broadcast open-loop to every fault
lane.  The simulation is the SRC campaign's own gate driver,
:func:`repro.fi.campaign.run_gate_batch`, fed a waveform
:class:`~repro.fi.campaign.Workload` -- the same saboteur overlays,
parallel-fault pattern batches, pattern-0 fault-free golden
cross-check and masked/sdc/detected/hang taxonomy -- so corpus FI rates
are directly comparable to BENCH_fi.json.  This module adds the
corpus's faultload, its batching and the attribution of SDCs to RTL
registers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..fi.campaign import Workload, run_gate_batch, shared_program
from ..fi.faults import Fault
from ..fi.faultload import generate_gate_faultload

#: faults per batch (pattern 0 stays fault-free, so a batch fills
#: native's 64-pattern gate word)
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


def design_workload(waveform: Sequence[Dict[str, int]],
                    golden: Sequence[Tuple[int, ...]], valid_port: str,
                    frame_ports: Sequence[str], cycle_budget: int,
                    detect_ports: Sequence[str] = ()) -> Workload:
    """The FI workload of a recorded waveform: *cycle_budget* ticks,
    every input the first cycle drives held at 0 past the end of the
    recording; frames decode unsigned."""
    idle = {name: 0 for name in waveform[0]}
    drive = list(waveform[:cycle_budget])
    drive += [idle] * (cycle_budget - len(drive))
    return Workload(list(golden), drive, valid_port, tuple(frame_ports),
                    tuple(detect_ports), signed=False)


def run_design_campaign(netlist, waveform: Sequence[Dict[str, int]],
                        golden: Sequence[Tuple[int, ...]],
                        valid_port: str,
                        frame_ports: Sequence[str],
                        faults: Sequence[Fault],
                        cycle_budget: int,
                        backend: str = "compiled",
                        detect_ports: Sequence[str] = ()) -> list:
    """Run a whole faultload in batches over :func:`design_workload`,
    on native every batch on one saboteur program of the faultload
    (:func:`~repro.fi.campaign.shared_program`); returns FaultRecords.
    A fault-free divergence raises
    :class:`~repro.fi.campaign.CampaignError`.
    """
    workload = design_workload(waveform, golden, valid_port, frame_ports,
                               cycle_budget, detect_ports)
    program = shared_program(netlist, faults, backend,
                             min(COMPILED_BATCH, len(faults)) + 1)
    records = []
    for lo in range(0, len(faults), COMPILED_BATCH):
        records.extend(run_gate_batch(netlist, workload,
                                      faults[lo:lo + COMPILED_BATCH], None,
                                      backend=backend, program=program))
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
