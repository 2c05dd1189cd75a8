"""Gate-level simulation: 4-valued selective-trace simulator, compiled
parallel-pattern backend, memory models."""

from .compiled import (
    COMPILE_CACHE,
    CacheStats,
    CompileCache,
    CompiledGateSimulator,
    CompiledProgram,
    compile_netlist,
    structural_hash,
)
from .levelize import LevelUnit, levelize
from .memory import AccessViolation, CheckingMemoryModel, MemoryModel
from .native import NativeGateSimulator, compile_netlist_native
from .simulator import BACKENDS, GateSimError, GateSimulator
from .trace import GateVcdTracer

__all__ = [
    "AccessViolation", "BACKENDS", "COMPILE_CACHE", "CacheStats",
    "CheckingMemoryModel", "CompileCache", "CompiledGateSimulator",
    "CompiledProgram", "GateSimError", "GateSimulator", "GateVcdTracer",
    "LevelUnit", "MemoryModel", "NativeGateSimulator", "compile_netlist",
    "compile_netlist_native", "levelize", "structural_hash",
]
