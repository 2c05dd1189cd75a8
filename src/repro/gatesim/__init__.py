"""Gate-level simulation: 4-valued selective-trace simulator, the
compiled and native parallel-pattern engines over one generated kernel,
memory models."""

from ..compile_cache import CacheStats, CompileCache
from .compiled import CompiledGateSimulator, compile_netlist
from .emit import COMPILE_CACHE, GateProgram, structural_hash
from .levelize import LevelUnit, levelize
from .memory import AccessViolation, CheckingMemoryModel, MemoryModel
from .native import NativeGateSimulator, compile_netlist_native
from .simulator import BACKENDS, GateSimError, GateSimulator
from .trace import GateVcdTracer

__all__ = [
    "AccessViolation", "BACKENDS", "COMPILE_CACHE", "CacheStats",
    "CheckingMemoryModel", "CompileCache", "CompiledGateSimulator",
    "GateProgram", "GateSimError", "GateSimulator", "GateVcdTracer",
    "LevelUnit", "MemoryModel", "NativeGateSimulator", "compile_netlist",
    "compile_netlist_native", "levelize", "structural_hash",
]
