"""Native-HDL and co-simulation execution harnesses (paper Figure 9).

* :class:`NativeHdlSimulation` -- "each DUT was simulated in the VHDL
  testbench": testbench *and* DUT execute inside the (interpreted) HDL
  simulation environment; each cycle evaluates both.
* :class:`CosimSimulation` -- "each DUT was simulated in the SystemC
  testbench": the testbench runs as compiled host code and talks to the
  HDL simulator through a co-simulation bridge that marshals pin values
  across the simulator boundary every cycle (the overhead the paper's
  HDL-Cosim tool introduces).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..datatypes.integers import wrap_signed
from ..rtl import RtlSimulator
from ..src_design.params import SrcParams
from .testbench import PythonTestbench, build_hdl_testbench

#: DUT input pins marshalled each cycle
DUT_PINS = ("in_valid", "in_l", "in_r", "cfg_valid", "cfg_mode", "out_req")


class CosimBridge:
    """The simulator-boundary adapter of the co-simulation tool.

    Every cycle it marshals the testbench's pin dictionary into discrete
    ``set_input`` calls on the HDL side and samples the DUT's outputs
    back -- the per-cycle cost of crossing the language boundary.
    """

    def __init__(self, dut_sim, params: SrcParams):
        self.dut = dut_sim
        self.params = params
        self.crossings = 0

    def exchange(self, pins: Dict[str, int]) -> Optional[Tuple[int, int]]:
        dut = self.dut
        for name in DUT_PINS:
            dut.set_input(name, pins[name])
        dut.step()
        self.crossings += 1
        if dut.get("out_valid"):
            dw = self.params.data_width
            return (wrap_signed(dut.get("out_l"), dw),
                    wrap_signed(dut.get("out_r"), dw))
        return None


class NativeHdlSimulation:
    """Testbench and DUT both interpreted by the HDL simulator."""

    def __init__(self, dut_sim, params: SrcParams, mode: int = 0):
        self.params = params
        self.dut = dut_sim
        self.tb = RtlSimulator(build_hdl_testbench(params, mode))
        self.outputs: List[Tuple[int, int]] = []

    def run(self, cycles: int) -> List[Tuple[int, int]]:
        tb = self.tb
        dut = self.dut
        dw = self.params.data_width
        for _ in range(cycles):
            # Both sides live in one simulation kernel: evaluate the
            # testbench process, propagate its pins, evaluate the DUT.
            for name in DUT_PINS:
                dut.set_input(name, tb.get(name))
            tb.step()
            dut.step()
            if dut.get("out_valid"):
                self.outputs.append(
                    (wrap_signed(dut.get("out_l"), dw),
                     wrap_signed(dut.get("out_r"), dw))
                )
        return self.outputs


class CosimSimulation:
    """Compiled testbench + HDL DUT through the co-simulation bridge."""

    def __init__(self, dut_sim, params: SrcParams, mode: int = 0):
        self.params = params
        self.tb = PythonTestbench(params, mode)
        self.bridge = CosimBridge(dut_sim, params)
        self.outputs: List[Tuple[int, int]] = []

    def run(self, cycles: int) -> List[Tuple[int, int]]:
        tb = self.tb
        bridge = self.bridge
        for _ in range(cycles):
            result = bridge.exchange(tb.cycle())
            if result is not None:
                self.outputs.append(result)
        return self.outputs
