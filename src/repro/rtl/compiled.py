"""Compiled RTL simulation: whole-module source emission.

The interpreted :class:`~repro.rtl.simulate.RtlSimulator` pays one
Python closure call per expression node per cycle.  This backend emits
the entire module -- combinational assigns in topological order,
register next-state functions, memory write ports and the multi-cycle
loop itself -- as one Python function compiled with ``compile()`` /
``exec``, so a ``step(n)`` executes straight-line bytecode with local
variables instead of closure trees over a dict environment.

The statements come from the RTL level's one code-generation walk
(:mod:`repro.rtl.emit`: naming, temp hoisting, evaluation order);
:class:`PythonPrinter` spells them as Python over ``int`` locals and is
the reference printer the vectorized (numpy) and native (C) printers
follow.

Compiled programs are cached in a process-wide
:class:`~repro.compile_cache.CompileCache` keyed by the emitted source
digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..compile_cache import CompileCache
from .emit import walk_module
from .ir import RtlModule
from .simulate import RtlSimulator

#: process-wide cache of compiled RTL programs
RTL_COMPILE_CACHE = CompileCache()


@dataclass
class RtlCompiledProgram:
    """A compiled whole-module step/settle function."""

    source: str
    #: ``fn(env, mems, cycles)``: run *cycles* clock edges then settle,
    #: reading/writing net values in *env* and memory lists in *mems*
    fn: Callable
    structural_key: str


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

    def smul(self, sa: str, sb: str, m: str, width: int) -> str:
        return self.arith(sa, "*", sb, m)

    def bitwise(self, a: str, op: str, b: str) -> str:
        return f"{a} {op} {b}"

    def bitnot(self, a: str, m: str) -> str:
        return f"~{a} & {m}"

    def shl(self, a: str, amount: int) -> str:
        return f"{a} << {amount}"

    def shr(self, a: str, amount: int) -> str:
        return f"{a} >> {amount}"

    def sra(self, sa: str, amount: int, m: str, width: int) -> str:
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

    def sext(self, sa: str, m: str, width: int) -> str:
        return f"{sa} & {m}"

    _REDUCE = {"and": "1 if {a} == {full} else 0",
               "or": "1 if {a} else 0",
               "xor": 'bin({a}).count("1") & 1'}

    def reduce(self, op: str, a: str, full: str) -> str:
        return self._REDUCE[op].format(a=a, full=full)

    def mem_read(self, mem: str, addr: str, depth: int) -> str:
        return f"{mem}[{addr}] if 0 <= {addr} < {depth} else 0"

    # -- statements ----------------------------------------------------
    def let(self, name: str, expr: str) -> str:
        return f"{name} = {expr}"

    assign = let

    def fresh(self, value: str) -> str:
        """A value that outlives the cycle (ints need no copy)."""
        return value

    def port_write(self, mem: str, en: str, addr: str, data: str,
                   depth: int, m: str) -> List[str]:
        return [f"if {en} and 0 <= {addr} < {depth}:",
                f"    {mem}[{addr}] = {data} & {m}"]


def module_source(module: RtlModule, printer: PythonPrinter) -> str:
    """*module* as one Python function ``_run(env, mems, cycles)``."""
    mem_of = {mem.name: f"mem{i}" for i, mem in enumerate(module.memories)}
    walk = walk_module(module, printer, mem_of)
    names = list(walk.name_of.items())
    lines = ["def _run(env, mems, cycles):"]
    for name, local in names[:walk.n_state]:
        lines.append(f"    {local} = env[{name!r}]")
    for name, local in mem_of.items():
        lines.append(f"    {local} = mems[{name!r}]")
    lines.append("    for _ in range(cycles):")
    lines += ["        " + line for line in walk.cycle] or ["        pass"]
    lines += ["    " + line for line in walk.settle]
    for name, local in names[walk.n_inputs:]:
        lines.append(f"    env[{name!r}] = {printer.fresh(local)}")
    return "\n".join(lines) + "\n"


def compile_rtl(module: RtlModule,
                cache: Optional[CompileCache] = None) -> RtlCompiledProgram:
    """Compile *module* into a single run function (cached)."""
    if cache is None:
        cache = RTL_COMPILE_CACHE
    source = module_source(module, PythonPrinter())
    key = hashlib.sha256(source.encode()).hexdigest()

    def factory() -> RtlCompiledProgram:
        code = compile(source, f"<rtl-compiled:{module.name}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        return RtlCompiledProgram(
            source=source,
            fn=namespace["_run"],  # type: ignore[arg-type]
            structural_key=key,
        )

    return cache.get_or_compile(key, factory)


class CompiledRtlSimulator(RtlSimulator):
    """:class:`RtlSimulator` stepping :func:`compile_rtl`'s function."""

    backend = "compiled"

    def _compile(self, module: RtlModule):
        return compile_rtl(module).fn
