"""The refinement flow itself: every abstraction level behind one API.

:class:`Level` enumerates the paper's design-flow stages (Figure 1 plus
the optimisation steps); :func:`run_level` executes any level over the
same stimulus; :func:`verify_refinement` re-validates each refinement
step by bit-accurate comparison against its predecessor -- the paper's
core methodology ("each refinement step was verified for bit accuracy by
simulation").

Untimed levels (C++, SystemC with channels) consume the *exact* event
schedule; clocked levels consume the *clock-quantised* schedule, and the
golden reference for them is the algorithmic model run over the same
quantised schedule (the paper's Figure 7: the time quantisation is
propagated back into the golden model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..gatesim import GateSimulator
from ..obs.trace import span
from ..rtl import RtlSimulator
from ..src_design.algorithmic import AlgorithmicSrc
from ..src_design.behavioral import (BehavioralSimulation,
                                     build_behavioral_design)
from ..src_design.params import SrcParams
from ..src_design.rtl_design import build_rtl_design
from ..src_design.schedule import SampleEvent, make_schedule
from ..src_design.testbench import (BehavioralDutDriver, RtlDutDriver,
                                    run_clocked, run_tlm)
from ..src_design.vhdl_ref import build_vhdl_reference
from ..synth import synthesize
from .compare import ComparisonResult, compare_streams


class Level(enum.Enum):
    """Abstraction levels of the design flow (paper Figure 1)."""

    ALGORITHMIC = "algorithmic"           # C++ golden model
    TLM_MONOLITHIC = "tlm_monolithic"     # SystemC, one hierarchical channel
    TLM_REFINED = "tlm_refined"           # SystemC, refined channel (Fig. 6)
    BEH_UNOPT = "beh_unopt"               # synthesisable behavioural
    BEH_OPT = "beh_opt"                   # optimised behavioural
    RTL_UNOPT = "rtl_unopt"               # RTL SystemC
    RTL_OPT = "rtl_opt"                   # optimised RTL
    VHDL_REF = "vhdl_ref"                 # VHDL reference implementation
    GATE_BEH = "gate_beh"                 # gates from the behavioural flow
    GATE_RTL = "gate_rtl"                 # gates from the RTL flow

    @property
    def is_clocked(self) -> bool:
        return self not in (Level.ALGORITHMIC, Level.TLM_MONOLITHIC,
                            Level.TLM_REFINED)


#: the paper's refinement chain, in order
REFINEMENT_CHAIN: Tuple[Level, ...] = (
    Level.ALGORITHMIC,
    Level.TLM_MONOLITHIC,
    Level.TLM_REFINED,
    Level.BEH_UNOPT,
    Level.BEH_OPT,
    Level.RTL_UNOPT,
    Level.RTL_OPT,
    Level.GATE_RTL,
)


def build_module(params: SrcParams, level: Level):
    """Build the RTL module of a synthesisable level."""
    if level is Level.BEH_UNOPT:
        return build_behavioral_design(params, optimized=False).module
    if level is Level.BEH_OPT:
        return build_behavioral_design(params, optimized=True).module
    if level is Level.RTL_UNOPT:
        return build_rtl_design(params, optimized=False).module
    if level is Level.RTL_OPT:
        return build_rtl_design(params, optimized=True).module
    if level is Level.VHDL_REF:
        return build_vhdl_reference(params).module
    if level is Level.GATE_BEH:
        return build_behavioral_design(params, optimized=True).module
    if level is Level.GATE_RTL:
        return build_rtl_design(params, optimized=True).module
    raise ValueError(f"{level} has no RTL module")


def run_level(
    params: SrcParams,
    level: Level,
    schedule: Sequence[SampleEvent],
    inputs: Sequence[Sequence[int]],
    with_corner_bug: bool = True,
    mem_monitor=None,
    backend: str = "interpreted",
) -> List[Tuple[int, ...]]:
    """Execute one abstraction level over *schedule*; returns outputs.

    Clocked levels require a clock-quantised schedule.  *backend*
    selects the simulation engine for the behavioural, RTL and
    gate-level points ("interpreted"/"compiled"/"native"); the untimed
    levels ignore it.
    """
    if level is Level.ALGORITHMIC:
        src = AlgorithmicSrc(params, mode=0, monitor=None,
                             with_corner_bug=with_corner_bug)
        return src.process_schedule(schedule, inputs)
    if level is Level.TLM_MONOLITHIC:
        return run_tlm(params, schedule, inputs, refined=False,
                       with_corner_bug=with_corner_bug)
    if level is Level.TLM_REFINED:
        return run_tlm(params, schedule, inputs, refined=True,
                       with_corner_bug=with_corner_bug)
    if level in (Level.BEH_UNOPT, Level.BEH_OPT):
        sim = BehavioralSimulation(
            params, optimized=(level is Level.BEH_OPT),
            mem_monitor=mem_monitor, backend=backend,
        )
        return run_clocked(params, BehavioralDutDriver(sim, params),
                           schedule, inputs)
    if level in (Level.RTL_UNOPT, Level.RTL_OPT, Level.VHDL_REF):
        module = build_module(params, level)
        sim = RtlSimulator(module, mem_monitor=mem_monitor,
                           backend=backend)
        return run_clocked(params, RtlDutDriver(sim, params),
                           schedule, inputs)
    if level in (Level.GATE_BEH, Level.GATE_RTL):
        module = build_module(params, level)
        netlist = synthesize(module)
        sim = GateSimulator(netlist, backend=backend)
        return run_clocked(params, RtlDutDriver(sim, params),
                           schedule, inputs)
    raise ValueError(f"unknown level {level}")


@dataclass
class RefinementStep:
    """One verified refinement step."""

    source: Level
    target: Level
    result: ComparisonResult


@dataclass
class RefinementReport:
    """Verification record of the whole chain."""

    steps: List[RefinementStep] = field(default_factory=list)

    @property
    def all_bit_accurate(self) -> bool:
        return all(step.result.equal for step in self.steps)

    def format(self) -> str:
        lines = ["Refinement verification (bit accuracy):"]
        for step in self.steps:
            status = "OK " if step.result.equal else "FAIL"
            lines.append(
                f"  [{status}] {step.source.value:16s} -> "
                f"{step.target.value:16s} "
                f"({step.result.length_b} frames)"
            )
        return "\n".join(lines)


def verify_refinement(
    params: SrcParams,
    inputs: Sequence[Sequence[int]],
    chain: Sequence[Level] = REFINEMENT_CHAIN,
    mode: int = 0,
    mode_changes: Sequence[Tuple[int, int]] = (),
) -> RefinementReport:
    """Run the whole chain, comparing each level with its predecessor.

    Untimed and clocked levels run on the exact and quantised schedule
    respectively; at the untimed/clocked boundary the comparison target
    is the algorithmic model re-run on the quantised schedule (paper
    Figure 7's propagation of the time quantisation into the golden
    model).
    """
    exact = make_schedule(params, mode, len(inputs),
                          mode_changes=mode_changes)
    quantized = make_schedule(params, mode, len(inputs), quantized=True,
                              mode_changes=mode_changes)
    report = RefinementReport()
    prev_outputs: Optional[List[Tuple[int, ...]]] = None
    prev_level: Optional[Level] = None
    prev_clocked = False
    with span("refine.chain", levels=len(chain), frames=len(inputs)):
        for level in chain:
            schedule = quantized if level.is_clocked else exact
            with span("refine.level", level=level.value):
                outputs = run_level(params, level, schedule, inputs)
            if prev_outputs is not None:
                reference = prev_outputs
                if level.is_clocked and not prev_clocked:
                    # quantisation boundary: re-run the golden model on
                    # the quantised schedule (Figure 7)
                    reference = run_level(params, Level.ALGORITHMIC,
                                          quantized, inputs)
                report.steps.append(RefinementStep(
                    source=prev_level, target=level,
                    result=compare_streams(reference, outputs),
                ))
            prev_outputs = outputs
            prev_level = level
            prev_clocked = level.is_clocked
    return report
