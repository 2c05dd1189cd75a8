"""Fault-injection campaign subsystem (dependability assessment).

Simulation-based fault injection over the refined SRC: seeded
faultloads across stuck-at, transient-pulse and SEU models, lockstep
classification against the schedule-matched golden model in one replay
loop for every level and engine, and parallel-fault batches on every
engine that holds several patterns at the level (compiled and native
at gate and behavioural level).  See :mod:`repro.fi.campaign` for the
entry points.
"""

from . import targets  # noqa: F401  (leaf module; import first)
from .campaign import (BUDGET_FRAMES, CampaignConfig, CampaignError,
                       LEVELS, SaboteurProgram, Workload,
                       build_campaign_netlist, make_workload,
                       parallel_map, run_campaign, run_fi_self_check,
                       run_gate_batch, run_gate_fault_scalar,
                       run_rtl_fault)
from .faultload import (PULSE_CYCLES, generate_gate_faultload,
                        generate_rtl_faultload)
from .faults import (FAULT_MODELS, Fault, FaultError, Overlay,
                     build_overlay, control_name, insert_saboteur)
from .report import (OUTCOMES, CampaignReport, FaultRecord,
                     SelfCheckResult, Throughput)
from .targets import (MemoryTarget, NetTarget, RegisterTarget,
                      derive_gate_swaps, flop_targets, injectable_nets,
                      memory_targets, register_targets, swap_targets)

__all__ = [
    "BUDGET_FRAMES", "CampaignConfig", "CampaignError", "CampaignReport",
    "FAULT_MODELS", "Fault", "FaultError", "FaultRecord", "LEVELS",
    "MemoryTarget", "NetTarget", "OUTCOMES", "Overlay", "PULSE_CYCLES",
    "RegisterTarget", "SaboteurProgram", "SelfCheckResult", "Throughput",
    "Workload", "build_campaign_netlist", "build_overlay", "control_name",
    "derive_gate_swaps", "flop_targets", "generate_gate_faultload",
    "generate_rtl_faultload", "injectable_nets", "insert_saboteur",
    "make_workload", "memory_targets", "parallel_map", "register_targets",
    "run_campaign", "run_fi_self_check", "run_gate_batch",
    "run_gate_fault_scalar", "run_rtl_fault", "swap_targets",
]
