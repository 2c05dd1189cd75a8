"""Throughput measurement of native vs. co-simulation (Figure 9)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engines import lookup
from ..flow.performance import SimPerfResult
from ..gatesim import GateSimulator
from ..rtl import RtlSimulator
from ..src_design.behavioral import (BehavioralSimulation,
                                     build_behavioral_design)
from ..src_design.params import SrcParams
from ..src_design.rtl_design import build_rtl_design
from ..synth import synthesize
from .bridge import CosimSimulation, NativeHdlSimulation

#: Figure 9's three DUTs, in plot order
FIG9_DUTS = ("RTL", "Gate-BEH", "Gate-RTL")
#: the two testbench configurations
FIG9_TBS = ("VHDL-Testbench", "SystemC-Testbench")


def _gate_netlist(params: SrcParams, kind: str):
    if kind == "Gate-BEH":
        return synthesize(build_behavioral_design(params, True).module)
    if kind == "Gate-RTL":
        return synthesize(build_rtl_design(params, True).module)
    raise ValueError(f"no gate netlist for DUT kind {kind!r}")


def build_dut(params: SrcParams, kind: str,
              backend: str = "interpreted", **backend_opts):
    """Build one of Figure 9's DUT simulators.

    * ``BEH`` -- the behavioural model, main process and front end as
      one FSM program;
    * ``RTL`` -- the intermediate RTL Verilog from RTL-SystemC synthesis
      (cycle simulation of the RTL netlist);
    * ``Gate-BEH`` -- the gate-level design from the behavioural flow;
    * ``Gate-RTL`` -- the gate-level design from the RTL flow.

    *backend* selects the simulation engine ("interpreted",
    "compiled" or "native"); extra keyword options
    (e.g. ``n_patterns``) go to the batch gate-level simulators.
    """
    if kind == "BEH":
        return BehavioralSimulation(params, True, backend=backend)
    if kind == "RTL":
        return RtlSimulator(build_rtl_design(params, True).module,
                            backend=backend)
    return GateSimulator(_gate_netlist(params, kind), backend=backend,
                         **backend_opts)


def measure_native(params: SrcParams, dut_sim, cycles: int,
                   label: str) -> SimPerfResult:
    sim = NativeHdlSimulation(dut_sim, params)
    start = time.perf_counter()
    outputs = sim.run(cycles)
    wall = time.perf_counter() - start
    return SimPerfResult(label, wall, float(cycles), len(outputs),
                         backend=getattr(dut_sim, "backend", "interpreted"))


def measure_cosim(params: SrcParams, dut_sim, cycles: int,
                  label: str) -> SimPerfResult:
    sim = CosimSimulation(dut_sim, params)
    start = time.perf_counter()
    outputs = sim.run(cycles)
    wall = time.perf_counter() - start
    return SimPerfResult(label, wall, float(cycles), len(outputs),
                         backend=getattr(dut_sim, "backend", "interpreted"))


def measure_gate_throughput(params: SrcParams, kind: str, cycles: int,
                            backend: str = "interpreted",
                            n_patterns: int = 1,
                            seed: int = 0,
                            label: Optional[str] = None) -> SimPerfResult:
    """Raw gate-level stimulus throughput for one Figure 9 gate DUT.

    Drives every input of the netlist with fresh random vectors each
    cycle -- the access pattern of batch regression/fault simulation,
    where parallel patterns pay off: with ``n_patterns=N`` each
    simulated cycle evaluates N independent stimulus vectors, and
    :attr:`SimPerfResult.cycles_per_second` reports pattern-cycles per
    second.  The compiled backend packs patterns into Python-int
    bitplanes with no width cap; the native backend packs them into
    one C ``uint64_t`` word (N <= 64, see :mod:`repro.engines`).
    """
    netlist = _gate_netlist(params, kind)
    if lookup(backend).batches("gate"):
        sim = GateSimulator(netlist, backend=backend,
                            n_patterns=n_patterns)
    else:
        if n_patterns != 1:
            raise ValueError(
                "parallel patterns need a batch backend"
            )
        sim = GateSimulator(netlist)
    rng = random.Random(seed)
    inputs = [(name, 1 << len(nets)) for name, nets in
              netlist.inputs.items()]
    out_name = next(iter(netlist.outputs))
    # Stimulus is pre-generated so the timed region measures the gate
    # engine, not the random-number generator (whose cost would grow
    # with n_patterns and flatten the batch advantage).
    if n_patterns > 1:
        stim = [[(name, [rng.randrange(span) for _ in range(n_patterns)])
                 for name, span in inputs] for _ in range(cycles)]
        start = time.perf_counter()
        for vectors in stim:
            for name, values in vectors:
                sim.set_input_patterns(name, values)
            sim.step()
        sim.get_logic(out_name)
    else:
        stim = [[(name, rng.randrange(span)) for name, span in inputs]
                for _ in range(cycles)]
        start = time.perf_counter()
        for vectors in stim:
            for name, value in vectors:
                sim.set_input(name, value)
            sim.step()
        sim.get_logic(out_name)
    wall = time.perf_counter() - start
    label = label or f"{kind}/throughput"
    return SimPerfResult(label, wall, float(cycles), 0, backend=backend,
                         n_patterns=n_patterns)


def measure_figure9(params: SrcParams, cycles: int = 2000,
                    duts: Optional[List[str]] = None,
                    backend: str = "interpreted"
                    ) -> Dict[str, Dict[str, SimPerfResult]]:
    """All points of Figure 9: {DUT: {testbench: result}}."""
    results: Dict[str, Dict[str, SimPerfResult]] = {}
    for kind in (duts or FIG9_DUTS):
        dut_native = build_dut(params, kind, backend=backend)
        native = measure_native(params, dut_native, cycles,
                                f"{kind}/VHDL-TB")
        dut_cosim = build_dut(params, kind, backend=backend)
        cosim = measure_cosim(params, dut_cosim, cycles,
                              f"{kind}/SystemC-TB")
        results[kind] = {
            "VHDL-Testbench": native,
            "SystemC-Testbench": cosim,
        }
    return results


def format_figure9(results: Dict[str, Dict[str, SimPerfResult]]) -> str:
    lines = [
        "Figure 9 -- co-simulation vs. native HDL simulation (cycles/s)",
        f"{'DUT':10s} {'VHDL-TB':>12s} {'SystemC-TB':>12s}",
    ]
    for kind, pair in results.items():
        native = pair["VHDL-Testbench"].cycles_per_second
        cosim = pair["SystemC-Testbench"].cycles_per_second
        lines.append(f"{kind:10s} {native:12.1f} {cosim:12.1f}")
    return "\n".join(lines)
