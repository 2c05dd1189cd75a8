"""Compiled RTL simulation: whole-module source emission.

The interpreted :class:`~repro.rtl.simulate.RtlSimulator` pays one
Python closure call per expression node per cycle.  This backend emits
the entire module -- combinational assigns in topological order,
register next-state functions, memory write ports and the multi-cycle
loop itself -- as one Python function compiled with ``compile()`` /
``exec``, so a ``step(n)`` executes straight-line bytecode with local
variables instead of closure trees over a dict environment.

Expression DAGs are emitted with id-memoised temp hoisting: every
unique node becomes exactly one assignment statement, so shared
subtrees are computed once per cycle (the closure interpreter
re-evaluates them at every reference).  Hoisting makes ``Mux``/``Case``
branches eager; that is safe because every RTL operator is pure and
total (``MemRead`` is bounds-guarded, shifts are by non-negative
constants, there is no division).

Write-port expressions are emitted with a fresh memo per port *after*
the preceding port's write statement, preserving the interpreter's
read-after-write ordering for memories written and read in one cycle.

Compiled programs are cached in a process-wide
:class:`~repro.compile_cache.CompileCache` keyed by the emitted source
digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from .expr import (
    Add,
    BitAnd,
    BitNot,
    BitOr,
    BitXor,
    Case,
    Cat,
    Cmp,
    Const,
    Expr,
    Ext,
    MemRead,
    Mul,
    Mux,
    Reduce,
    Ref,
    Shl,
    Shr,
    Slice,
    SMul,
    Sra,
    Sub,
)
from .ir import RtlError, RtlModule
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


class _Emitter:
    """Emit an expression DAG as straight-line statements."""

    def __init__(self, name_of: Dict[str, str], mem_of: Dict[str, str],
                 prefix: str):
        self._name_of = name_of
        self._mem_of = mem_of
        self._prefix = prefix
        self.lines: List[str] = []
        self._memo: Dict[object, str] = {}
        self._n = 0

    def _tmp(self, expr: str) -> str:
        self._n += 1
        name = f"{self._prefix}{self._n}"
        self.lines.append(f"{name} = {expr}")
        return name

    def _signed(self, operand: str, width: int, node: Expr) -> str:
        key = (id(node), "signed")
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        sign, bias = 1 << (width - 1), 1 << width
        name = self._tmp(
            f"{operand} - {bias} if {operand} & {sign} else {operand}"
        )
        self._memo[key] = name
        return name

    def emit(self, node: Expr) -> str:
        """Return an operand string (temp/local name or literal)."""
        if isinstance(node, Const):
            return str(node.value)
        if isinstance(node, Ref):
            local = self._name_of.get(node.name)
            if local is None:
                raise RtlError(f"reference to unknown net {node.name!r}")
            return local
        key = id(node)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        name = self._tmp(self._expr_of(node))
        self._memo[key] = name
        return name

    def _expr_of(self, node: Expr) -> str:
        m = mask(node.width)
        if isinstance(node, Add):
            return f"({self.emit(node.a)} + {self.emit(node.b)}) & {m}"
        if isinstance(node, Sub):
            return f"({self.emit(node.a)} - {self.emit(node.b)}) & {m}"
        if isinstance(node, Mul):
            return f"({self.emit(node.a)} * {self.emit(node.b)}) & {m}"
        if isinstance(node, SMul):
            sa = self._signed(self.emit(node.a), node.a.width, node.a)
            sb = self._signed(self.emit(node.b), node.b.width, node.b)
            return f"({sa} * {sb}) & {m}"
        if isinstance(node, BitAnd):
            return f"{self.emit(node.a)} & {self.emit(node.b)}"
        if isinstance(node, BitOr):
            return f"{self.emit(node.a)} | {self.emit(node.b)}"
        if isinstance(node, BitXor):
            return f"{self.emit(node.a)} ^ {self.emit(node.b)}"
        if isinstance(node, BitNot):
            return f"~{self.emit(node.a)} & {m}"
        if isinstance(node, Shl):
            return f"{self.emit(node.a)} << {node.amount}"
        if isinstance(node, Shr):
            return f"{self.emit(node.a)} >> {node.amount}"
        if isinstance(node, Sra):
            sa = self._signed(self.emit(node.a), node.a.width, node.a)
            return f"({sa} >> {node.amount}) & {m}"
        if isinstance(node, Cmp):
            a, b = self.emit(node.a), self.emit(node.b)
            if node.op in ("slt", "sle"):
                a = self._signed(a, node.a.width, node.a)
                b = self._signed(b, node.b.width, node.b)
            rel = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                   "slt": "<", "sle": "<="}[node.op]
            return f"1 if {a} {rel} {b} else 0"
        if isinstance(node, Mux):
            s = self.emit(node.sel)
            t = self.emit(node.if_true)
            f = self.emit(node.if_false)
            return f"{t} if {s} else {f}"
        if isinstance(node, Case):
            s = self.emit(node.sel)
            out = self.emit(node.default)
            for value, branch in reversed(list(node.branches.items())):
                out = f"({self.emit(branch)} if {s} == {value} else {out})"
            return out
        if isinstance(node, Cat):
            out = self.emit(node.parts[0])
            for part in node.parts[1:]:
                out = f"(({out}) << {part.width} | {self.emit(part)})"
            return out
        if isinstance(node, Slice):
            return f"({self.emit(node.a)} >> {node.lsb}) & {m}"
        if isinstance(node, Ext):
            a = self.emit(node.a)
            if not node.signed or node.width == node.a.width:
                return f"{a}"
            return f"{self._signed(a, node.a.width, node.a)} & {m}"
        if isinstance(node, Reduce):
            a = self.emit(node.a)
            if node.op == "and":
                return f"1 if {a} == {mask(node.a.width)} else 0"
            if node.op == "or":
                return f"1 if {a} else 0"
            return f'bin({a}).count("1") & 1'
        if isinstance(node, MemRead):
            local = self._mem_of.get(node.mem_name)
            if local is None:
                raise RtlError(
                    f"read of unknown memory {node.mem_name!r}"
                )
            a = self.emit(node.addr)
            return f"{local}[{a}] if 0 <= {a} < {node.depth} else 0"
        raise RtlError(f"cannot emit {type(node).__name__}")


def _generate_source(module: RtlModule) -> str:
    assigns = module.topo_assign_order()
    name_of: Dict[str, str] = {}
    for port in module.ports:
        if port.direction == "in":
            name_of[port.name] = f"v{len(name_of)}"
    for reg in module.registers:
        name_of[reg.name] = f"v{len(name_of)}"
    for assign in assigns:
        name_of[assign.name] = f"v{len(name_of)}"
    mem_of = {mem.name: f"mem{i}" for i, mem in enumerate(module.memories)}

    head: List[str] = ["def _run(env, mems, cycles):"]
    for port in module.ports:
        if port.direction == "in":
            head.append(f"    {name_of[port.name]} = env[{port.name!r}]")
    for reg in module.registers:
        head.append(f"    {name_of[reg.name]} = env[{reg.name!r}]")
    for name, local in mem_of.items():
        head.append(f"    {local} = mems[{name!r}]")

    # one settle: combinational assigns in topological order
    settle = _Emitter(name_of, mem_of, "t")
    for assign in assigns:
        value = settle.emit(assign.expr)
        settle.lines.append(f"{name_of[assign.name]} = {value}")
    settle_lines = list(settle.lines)

    # per-cycle tail: register nexts, then memory writes (per-port
    # emission order preserves read-after-write), then register commit
    body = settle
    commits: List[str] = []
    for i, reg in enumerate(module.registers):
        value = body.emit(reg.next)
        body.lines.append(f"n{i} = ({value}) & {mask(reg.width)}")
        commits.append(f"{name_of[reg.name]} = n{i}")
    wp_index = 0
    for mem in module.memories:
        for port in mem.write_ports:
            wemit = _Emitter(name_of, mem_of, f"w{wp_index}_")
            en = wemit.emit(port.enable)
            addr = wemit.emit(port.addr)
            data = wemit.emit(port.data)
            body.lines.extend(wemit.lines)
            body.lines.append(
                f"if {en} and 0 <= {addr} < {mem.depth}:"
            )
            body.lines.append(
                f"    {mem_of[mem.name]}[{addr}] = "
                f"{data} & {mask(mem.width)}"
            )
            wp_index += 1
    body.lines.extend(commits)

    lines = list(head)
    lines.append("    for _ in range(cycles):")
    for line in body.lines:
        lines.append("        " + line)
    if not body.lines:
        lines.append("        pass")
    for line in settle_lines:
        lines.append("    " + line)
    for reg in module.registers:
        lines.append(f"    env[{reg.name!r}] = {name_of[reg.name]}")
    for assign in assigns:
        lines.append(f"    env[{assign.name!r}] = {name_of[assign.name]}")
    return "\n".join(lines) + "\n"


def compile_rtl(module: RtlModule,
                cache: Optional[CompileCache] = None) -> RtlCompiledProgram:
    """Compile *module* into a single run function (cached)."""
    if cache is None:
        cache = RTL_COMPILE_CACHE
    source = _generate_source(module)
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
