"""RTL intermediate representation, cycle-based simulation, Verilog emission."""

from .expr import (Add, BitAnd, BitNot, BitOr, BitXor, Case, Cat, Cmp, Const,
                   Expr, Ext, MemRead, Mul, Mux, Reduce, Ref, Shl, Shr, Slice,
                   SMul, Sra, Sub, as_expr, evaluate, traverse)
from .compiled import compile_rtl
from .emit import RTL_COMPILE_CACHE, KernelProgram
from .lint import LintWarning, format_lint, lint
from .ir import (CombAssign, MemReadPort, MemWritePort, RtlError, RtlMemory,
                 RtlModule, RtlPort, RtlRegister)
from .native import NativeRtlSimulator, compile_rtl_native
from .simulate import RtlSimulator
from .verilog import emit_verilog

__all__ = [
    "Add", "BitAnd", "BitNot", "BitOr", "BitXor", "Case", "Cat", "Cmp",
    "CombAssign", "Const", "Expr", "Ext", "MemRead", "MemReadPort",
    "KernelProgram", "MemWritePort", "Mul", "Mux",
    "NativeRtlSimulator", "RTL_COMPILE_CACHE", "Reduce", "Ref",
    "RtlError", "RtlMemory", "RtlModule", "RtlPort",
    "RtlRegister", "RtlSimulator", "Shl", "Shr", "LintWarning", "Slice",
    "SMul", "Sra", "Sub", "as_expr", "compile_rtl", "compile_rtl_native",
    "emit_verilog", "evaluate", "format_lint", "lint", "traverse",
]
