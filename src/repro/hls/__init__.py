"""Behavioural synthesis: IR, scheduling, binding, code generation."""

from .binding import RegisterBinding, bind_registers, compute_liveness
from .codegen import GeneratedFsm, generate_rtl
from .compiled import (HLS_COMPILE_CACHE, CompiledFsm, CompiledFsmBatch,
                       compile_fsm, fsm_digest)
from .delay import estimate_delay, node_delay
from .interpreter import FsmInterpreter
from .ir import (Assign, For, HlsError, HlsMemory, HlsPort, HlsProgram, If,
                 MemReadStmt, MemWriteStmt, PortWrite, Stmt, WaitCycle,
                 WaitUntil)
from .native import NativeFsm, NativeFsmBatch, compile_fsm_native
from .schedule import (Fsm, FrontEndBlock, FsmState, MemReadOp, MemWriteOp,
                       PortWriteOp, RegWriteOp, Scheduler,
                       SchedulingConstraints, Transition,
                       prune_dead_reg_writes)

__all__ = [
    "Assign", "CompiledFsm", "CompiledFsmBatch", "For", "FrontEndBlock",
    "Fsm", "FsmInterpreter", "FsmState", "GeneratedFsm", "HLS_COMPILE_CACHE",
    "HlsError", "HlsMemory", "HlsPort", "HlsProgram", "If", "MemReadOp",
    "MemReadStmt", "MemWriteOp",
    "MemWriteStmt", "NativeFsm", "NativeFsmBatch", "PortWrite",
    "PortWriteOp", "RegWriteOp",
    "RegisterBinding", "Scheduler", "SchedulingConstraints", "Stmt",
    "Transition", "WaitCycle", "WaitUntil", "bind_registers",
    "compile_fsm", "compile_fsm_native", "compute_liveness",
    "estimate_delay", "fsm_digest", "generate_rtl", "node_delay",
    "prune_dead_reg_writes",
]
