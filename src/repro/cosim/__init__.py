"""Co-simulation: testbench/DUT bridges and throughput measurement."""

from .bridge import (CosimBridge, CosimSimulation, DUT_PINS,
                     NativeHdlSimulation)
from .measure import (FIG9_DUTS, FIG9_TBS, build_dut, format_figure9,
                      measure_cosim, measure_figure9,
                      measure_gate_throughput, measure_native)
from .testbench import PythonTestbench, TABLE_SIZE, build_hdl_testbench

__all__ = [
    "CosimBridge", "CosimSimulation", "DUT_PINS", "FIG9_DUTS", "FIG9_TBS",
    "NativeHdlSimulation", "PythonTestbench", "TABLE_SIZE", "build_dut",
    "build_hdl_testbench", "format_figure9", "measure_cosim",
    "measure_figure9", "measure_gate_throughput", "measure_native",
]
