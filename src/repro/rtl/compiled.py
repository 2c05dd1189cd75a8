"""Compiled RTL simulation: the RTL kernel printed as Python.

The interpreted :class:`~repro.rtl.simulate.RtlSimulator` pays one
Python closure call per expression node per cycle.  This engine runs
the RTL level's one kernel (:mod:`repro.rtl.emit`: ``nat_run(V, MEM,
cycles)`` -- combinational assigns in topological order, register
next-state functions, memory write ports and the multi-cycle loop --
and the waveform replay ``nat_replay``) printed as Python by
:class:`PythonPrinter` and loaded with ``compile()`` / ``exec``, so a
``step(n)`` executes straight-line bytecode over ``int`` locals instead
of closure trees over a dict environment.  Python ints have no word, so every width runs, where the
native print holds 64 bits.

:class:`CompiledRtlSimulator` is the native engine's host
(:class:`~repro.rtl.native.NativeRtlSimulator`) over a
:class:`~repro.native.PythonKernel`, with lists for buffers.  Kernels
are cached in :data:`~repro.rtl.emit.RTL_COMPILE_CACHE` keyed by the
emitted source digest.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..native import PythonKernel
from .emit import (RTL_COMPILE_CACHE, KernelProgram, emit_rtl,
                   load_program)
from .ir import RtlModule
from .native import NativeRtlSimulator

__all__ = ["CompiledRtlSimulator", "PythonPrinter", "RTL_COMPILE_CACHE",
           "compile_rtl"]


class PythonPrinter:
    """Python spelling of the code-generation walk (``int`` locals).

    Templates take operand strings (temps, locals or literals) and
    return an expression; ``m`` is the node's width-mask literal.
    """

    #: Python ints have no word: no width check, every shift evaluates
    word = None
    wide_shift = None
    zero = "0"

    def lit(self, value: int) -> str:
        return str(value)

    def signed(self, a: str, width: int) -> str:
        sign, bias = 1 << (width - 1), 1 << width
        return f"{a} - {bias} if {a} & {sign} else {a}"

    # -- one template per node kind ------------------------------------
    def arith(self, a: str, op: str, b: str, m: str) -> str:
        return f"({a} {op} {b}) & {m}"

    def smul(self, sa: str, sb: str, m: str) -> str:
        return self.arith(sa, "*", sb, m)

    def bitwise(self, a: str, op: str, b: str) -> str:
        return f"{a} {op} {b}"

    def bitnot(self, a: str, m: str) -> str:
        return f"~{a} & {m}"

    def shl(self, a: str, amount: int) -> str:
        return f"{a} << {amount}"

    def shr(self, a: str, amount: int) -> str:
        return f"{a} >> {amount}"

    def sra(self, sa: str, amount: int, m: str) -> str:
        return f"({sa} >> {amount}) & {m}"

    def cmp(self, a: str, rel: str, b: str, signed: bool) -> str:
        return f"1 if {a} {rel} {b} else 0"

    def mux(self, s: str, t: str, f: str) -> str:
        return f"{t} if {s} else {f}"

    def case_arm(self, s: str, value: str, t: str, f: str) -> str:
        """One ``Case`` arm; the walk folds them from the last."""
        return f"({t} if {s} == {value} else {f})"

    def cat(self, hi: str, width: int, lo: str) -> str:
        """*hi* above the *width*-bit *lo*; the walk folds the parts."""
        return f"(({hi}) << {width} | {lo})"

    def slice(self, a: str, lsb: int, m: str) -> str:
        return f"({a} >> {lsb}) & {m}"

    def sext(self, sa: str, m: str) -> str:
        return f"{sa} & {m}"

    _REDUCE = {"and": "1 if {a} == {full} else 0",
               "or": "1 if {a} else 0",
               "xor": 'bin({a}).count("1") & 1'}

    def reduce(self, op: str, a: str, full: str) -> str:
        return self._REDUCE[op].format(a=a, full=full)

    def word_at(self, base: int, addr: str) -> str:
        """The memory word *addr* past *base* in the flat image."""
        return f"MEM[{base} + {addr}]" if base else f"MEM[{addr}]"

    def mem_read(self, mem: Tuple[int, int], addr: str, depth: int) -> str:
        return (f"{self.word_at(mem[0], addr)} if 0 <= {addr} < {depth} "
                "else 0")

    # -- statements ----------------------------------------------------
    def let(self, name: str, expr: str) -> str:
        return f"{name} = {expr}"

    assign = let

    def port_write(self, mem: Tuple[int, int], en: str, addr: str,
                   data: str, depth: int, m: str) -> List[str]:
        return [f"if {en} and 0 <= {addr} < {depth}:",
                f"    {self.word_at(mem[0], addr)} = {data} & {m}"]

    # -- the kernel ----------------------------------------------------
    @staticmethod
    def nat_replay(state: str, env: str, step: str,
                   reads: Sequence[Tuple[str, int]]) -> str:
        """The C printer's ``nat_replay`` (:mod:`repro.rtl.native`) in
        Python."""
        spans = " + ".join(f"{array}[:{words}]"
                           for array, words in reads if words) or "[]"
        return f"""\
def nat_replay({state}, S, W, NW, ticks, SRC, NB, OUT):
    w = stepped = 0
    for t in range(ticks):
        while w < NW and W[3 * w] == t:
            {env}[W[3 * w + 1]] = W[3 * w + 2]
            w += 1
        state = {spans}
        if t == 0 or state != S:
            S[:] = state
            {step}
            stepped += 1
        OUT[t * NB:(t + 1) * NB] = [{env}[k] for k in SRC]
    return stepped
"""

    def nat_run(self, walk, mem_words: int) -> str:
        """In-ports and registers unpacked from ``V`` into locals,
        registers and assigns stored back after the final settle; then
        ``nat_replay`` over it, whose step reads the in-ports, the
        registers and the *mem_words* of ``MEM``."""
        names = list(walk.name_of.values())
        loads, stores = names[:walk.n_state], names[walk.n_inputs:]
        lines = ["def nat_run(V, MEM, cycles):"]
        if loads:
            lines.append(f"    {''.join(f'{v}, ' for v in loads)}"
                         f"= V[:{walk.n_state}]")
        lines.append("    for c in range(cycles):")
        lines += ["        " + stmt for stmt in walk.cycle] or \
            ["        pass"]
        lines += ["    " + stmt for stmt in walk.settle]
        lines.append(f"    V[{walk.n_inputs}:] = "
                     f"({''.join(f'{v}, ' for v in stores)})")
        return "\n".join(lines) + "\n\n" + self.nat_replay(
            "V, MEM", "V", "nat_run(V, MEM, 1)",
            (("V", walk.n_state), ("MEM", mem_words)))


def compile_rtl(module: RtlModule,
                cache: Optional[CompileCache] = None) -> KernelProgram:
    """Compile *module* into a loaded Python kernel (cached)."""
    if cache is None:
        cache = RTL_COMPILE_CACHE
    program = emit_rtl(module, PythonPrinter())
    key = hashlib.sha256(program.source.encode()).hexdigest()
    return load_program(
        program, key,
        lambda source: PythonKernel(source, f"<rtl-compiled:{module.name}>"),
        cache)


class CompiledRtlSimulator(NativeRtlSimulator):
    """The RTL host (:class:`~repro.rtl.native.NativeRtlSimulator`,
    whose docstring describes the surface) over the kernel printed as
    Python."""

    backend = "compiled"

    @staticmethod
    def _compile(module: RtlModule,
                 cache: Optional[CompileCache]) -> KernelProgram:
        return compile_rtl(module, cache=cache)
