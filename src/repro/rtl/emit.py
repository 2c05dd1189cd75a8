"""The one code-generation walk of the RTL level.

The compiled, vectorized and native engines generate Python, numpy and
C from the same IR.  Everything those sources share lives here: net
naming, the id-memoised temp hoisting (CSE) and temp naming, the
evaluation and commit order, and the 64-bit width check.  An engine
supplies only a *printer* -- literals, the signed view, one template
per node kind and the statement forms -- and lays the walked
statements out in its own prologue and epilogue.  The behavioural
level's FSM walk (:mod:`repro.hls.emit`) reuses :class:`Emitter`.

Every unique expression node becomes one temp, so a shared subtree is
computed once per cycle (the closure interpreter re-evaluates it at
every reference).  Hoisting makes ``Mux``/``Case`` branches eager; that
is safe because every RTL operator is pure and total (``MemRead`` is
bounds-guarded, shifts are by non-negative constants, there is no
division).

What the walk asks of a printer (:class:`repro.rtl.compiled.PythonPrinter`
is the reference):

* ``lit(value)`` -- a literal; ``word`` -- None, or the 64-bit
  container the target holds a value in (named by the width error);
  ``wide_shift`` -- None, or the literal a ``Shr`` by 64 or more prints
  as without evaluating its operand;
* ``signed(a, width)`` -- the signed view of a *width*-bit operand;
* one template per node kind, over operand strings (see :data:`_WALK`);
* the statement forms ``let`` (a new temp), ``assign`` (an existing
  local), ``fresh`` (a value that outlives the cycle) and
  ``port_write`` (one RTL memory write port).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..datatypes.bits import mask
from .expr import (Add, BitAnd, BitNot, BitOr, BitXor, Case, Cat, Cmp,
                   Const, Expr, Ext, MemRead, Mul, Mux, Reduce, Ref, Shl,
                   Shr, Slice, SMul, Sra, Sub, traverse)
from .ir import RtlError, RtlModule

__all__ = ["Emitter", "ModuleWalk", "check_widths", "walk_module"]


def check_widths(exprs: Iterable[Expr], context: str, word: str) -> None:
    """Every node of every tree must fit the printer's 64-bit *word*."""
    for expr in exprs:
        for node in traverse(expr):
            if node.width > 64:
                raise RtlError(
                    f"{context}: expression width {node.width} exceeds "
                    f"the 64-bit {word} (use 'interpreted' or 'compiled')"
                )


_REL = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
        "slt": "<", "sle": "<="}


def _cmp(w: "Emitter", n: Cmp) -> str:
    a, b = w.emit(n.a), w.emit(n.b)
    signed = n.op in ("slt", "sle")
    if signed:
        a, b = w.signed(n.a), w.signed(n.b)
    return w.p.cmp(a, _REL[n.op], b, signed)


def _case(w: "Emitter", n: Case) -> str:
    s = w.emit(n.sel)
    out = w.emit(n.default)
    for value, branch in reversed(list(n.branches.items())):
        out = w.p.case_arm(s, w.p.lit(value), w.emit(branch), out)
    return out


def _cat(w: "Emitter", n: Cat) -> str:
    out = w.emit(n.parts[0])
    for part in n.parts[1:]:
        out = w.p.cat(out, part.width, w.emit(part))
    return out


def _shr(w: "Emitter", n: Shr) -> str:
    if n.amount >= 64 and w.p.wide_shift is not None:
        return w.p.wide_shift
    return w.p.shr(w.emit(n.a), n.amount)


def _ext(w: "Emitter", n: Ext) -> str:
    a = w.emit(n.a)
    if not n.signed or n.width == n.a.width:
        return a
    return w.p.sext(w.signed(n.a), w.mask(n), n.width)


def _mem_read(w: "Emitter", n: MemRead) -> str:
    mem = w.mem_of.get(n.mem_name)
    if mem is None:
        raise RtlError(f"read of unknown memory {n.mem_name!r}")
    return w.p.mem_read(mem, w.emit(n.addr), n.depth)


#: per node kind: the operands in evaluation order, then the template
_WALK = {
    Add: lambda w, n: w.p.arith(w.emit(n.a), "+", w.emit(n.b), w.mask(n)),
    Sub: lambda w, n: w.p.arith(w.emit(n.a), "-", w.emit(n.b), w.mask(n)),
    Mul: lambda w, n: w.p.arith(w.emit(n.a), "*", w.emit(n.b), w.mask(n)),
    SMul: lambda w, n: w.p.smul(w.signed(n.a), w.signed(n.b), w.mask(n),
                                n.width),
    BitAnd: lambda w, n: w.p.bitwise(w.emit(n.a), "&", w.emit(n.b)),
    BitOr: lambda w, n: w.p.bitwise(w.emit(n.a), "|", w.emit(n.b)),
    BitXor: lambda w, n: w.p.bitwise(w.emit(n.a), "^", w.emit(n.b)),
    BitNot: lambda w, n: w.p.bitnot(w.emit(n.a), w.mask(n)),
    Shl: lambda w, n: w.p.shl(w.emit(n.a), n.amount),
    Shr: _shr,
    Sra: lambda w, n: w.p.sra(w.signed(n.a), n.amount, w.mask(n), n.width),
    Cmp: _cmp,
    Mux: lambda w, n: w.p.mux(w.emit(n.sel), w.emit(n.if_true),
                              w.emit(n.if_false)),
    Case: _case,
    Cat: _cat,
    Slice: lambda w, n: w.p.slice(w.emit(n.a), n.lsb, w.mask(n)),
    Ext: _ext,
    Reduce: lambda w, n: w.p.reduce(n.op, w.emit(n.a),
                                    w.p.lit(mask(n.a.width))),
    MemRead: _mem_read,
}


class Emitter:
    """Emit expression DAGs as straight-line statements for *printer*.

    *name_of* maps nets to locals and *mem_of* memories to whatever the
    printer's ``mem_read`` takes; temps are ``{prefix}1``, ``{prefix}2``
    ... in evaluation order, and ``lines`` collects the statements.
    """

    def __init__(self, printer, name_of: Dict[str, str],
                 mem_of: Dict[str, object], prefix: str):
        self.p = printer
        self.mem_of = mem_of
        self._name_of = name_of
        self._prefix = prefix
        self.lines: List[str] = []
        self._memo: Dict[object, str] = {}
        self._n = 0

    def _tmp(self, expr: str) -> str:
        self._n += 1
        name = f"{self._prefix}{self._n}"
        self.lines.append(self.p.let(name, expr))
        return name

    def mask(self, node: Expr) -> str:
        """The literal of *node*'s width mask."""
        return self.p.lit(mask(node.width))

    def signed(self, node: Expr) -> str:
        """A temp holding the signed view of *node* (memoised)."""
        key = (id(node), "signed")
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._tmp(
                self.p.signed(self.emit(node), node.width))
        return hit

    def emit(self, node: Expr) -> str:
        """Return an operand string (temp/local name or literal)."""
        if isinstance(node, Const):
            return self.p.lit(node.value)
        if isinstance(node, Ref):
            local = self._name_of.get(node.name)
            if local is None:
                raise RtlError(f"reference to unknown net {node.name!r}")
            return local
        key = id(node)
        hit = self._memo.get(key)
        if hit is None:
            walk = _WALK.get(type(node))
            if walk is None:
                raise RtlError(f"cannot emit {type(node).__name__}")
            hit = self._memo[key] = self._tmp(walk(self, node))
        return hit


@dataclass
class ModuleWalk:
    """One RTL module walked for a printer."""

    #: net -> local: in-ports, then registers, then the assigns in
    #: topological order (``v0``, ``v1``, ...)
    name_of: Dict[str, str]
    #: the first ``n_inputs`` names are in-ports, the first ``n_state``
    #: in-ports and registers (the values a call loads)
    n_inputs: int
    n_state: int
    #: one settle: the combinational assigns in topological order
    settle: List[str]
    #: one clock edge: the settle, register nexts, memory write ports
    #: (each with a fresh memo, emitted after the previous port's write
    #: so a later port reads an earlier port's data), register commits
    cycle: List[str]


def walk_module(module: RtlModule, printer,
                mem_of: Dict[str, object]) -> ModuleWalk:
    """Walk *module* into *printer*'s statements."""
    assigns = module.topo_assign_order()
    if printer.word is not None:
        check_widths(
            [a.expr for a in assigns] + [r.next for r in module.registers]
            + [e for mem in module.memories for p in mem.write_ports
               for e in (p.enable, p.addr, p.data)],
            module.name, printer.word)
    name_of: Dict[str, str] = {}
    for port in module.ports:
        if port.direction == "in":
            name_of[port.name] = f"v{len(name_of)}"
    n_inputs = len(name_of)
    for reg in module.registers:
        name_of[reg.name] = f"v{len(name_of)}"
    n_state = len(name_of)
    for assign in assigns:
        name_of[assign.name] = f"v{len(name_of)}"

    body = Emitter(printer, name_of, mem_of, "t")
    for assign in assigns:
        value = body.emit(assign.expr)
        body.lines.append(printer.assign(name_of[assign.name], value))
    settle = list(body.lines)

    commits: List[str] = []
    for i, reg in enumerate(module.registers):
        value = body.emit(reg.next)
        m = printer.lit(mask(reg.width))
        body.lines.append(printer.let(f"n{i}",
                                      printer.fresh(f"({value}) & {m}")))
        commits.append(printer.assign(name_of[reg.name], f"n{i}"))
    wp_index = 0
    for mem in module.memories:
        for port in mem.write_ports:
            wemit = Emitter(printer, name_of, mem_of, f"w{wp_index}_")
            en = wemit.emit(port.enable)
            addr = wemit.emit(port.addr)
            data = wemit.emit(port.data)
            body.lines += wemit.lines
            body.lines += printer.port_write(
                mem_of[mem.name], en, addr, data, mem.depth,
                printer.lit(mask(mem.width)))
            wp_index += 1
    body.lines += commits
    return ModuleWalk(name_of, n_inputs, n_state, settle, body.lines)
