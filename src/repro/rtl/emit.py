"""The one code-generation walk of the RTL level.

The compiled and native engines run one kernel per module,
``nat_run(V, MEM, cycles)`` and beside it ``nat_replay(V, MEM, S, W,
NW, ticks, SRC, NB, OUT)`` -- per tick, the write rows ``W = (tick,
slot, value)`` due then, one ``nat_run`` cycle, and the slots ``SRC``
into ``OUT[tick * NB:]``; it returns the ticks it stepped -- printed as
Python and as C from the same IR (:func:`emit_rtl`).  The cycle runs
only where the tick's start state moved: one pass compares the
in-ports, the registers (``V[:n_state]``) and ``MEM`` with the snapshot
``S`` of the last stepped tick's start state (``state_words`` words)
and saves them there, and an equal state skips the cycle, a pure
function of it.  The first tick of a call always steps.

Everything those sources share lives here: net naming and the slot of
every net in ``V``, the flat memory image ``MEM``, the id-memoised temp
hoisting (CSE) and temp naming, the evaluation and commit order, and
the 64-bit width check.  An engine
supplies only a *printer* -- literals, the signed view, one template
per node kind, the statement forms and the kernel's layout -- and one
host (:class:`~repro.rtl.native.NativeRtlSimulator`) runs either
print.  The behavioural level's FSM walk (:mod:`repro.hls.emit`)
reuses :class:`Emitter`.

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
  ``mem_read`` takes a memory's ``(base, depth)`` in ``MEM``;
* the statement forms ``let`` (a new temp), ``assign`` (an existing
  local) and ``port_write`` (one RTL memory write port);
* ``nat_run(walk, mem_words)`` -- the kernel's source around a
  :class:`ModuleWalk`, followed by ``nat_replay(state, env, step,
  reads)``'s entry, which the FSM printers reuse over their own arrays,
  step and the ``(array, words)`` spans the step reads.

The behavioural level runs an RT-level front end inside an FSM's cycle
(:mod:`repro.hls.emit`): it walks the front end's module under its own
net names with ``split=True`` and puts the state dispatch between the
two parts of the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from .expr import (Add, BitAnd, BitNot, BitOr, BitXor, Case, Cat, Cmp,
                   Const, Expr, Ext, MemRead, Mul, Mux, Reduce, Ref, Shl,
                   Shr, Slice, SMul, Sra, Sub, traverse)
from .ir import RtlError, RtlModule

__all__ = ["Emitter", "KernelProgram", "ModuleWalk", "RTL_COMPILE_CACHE",
           "check_widths", "emit_rtl", "load_program", "memory_layout",
           "walk_module"]

#: the process-wide cache of loaded RTL kernels, one slot per backend
RTL_COMPILE_CACHE = CompileCache()


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
    return w.p.sext(w.signed(n.a), w.mask(n))


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
    SMul: lambda w, n: w.p.smul(w.signed(n.a), w.signed(n.b), w.mask(n)),
    BitAnd: lambda w, n: w.p.bitwise(w.emit(n.a), "&", w.emit(n.b)),
    BitOr: lambda w, n: w.p.bitwise(w.emit(n.a), "|", w.emit(n.b)),
    BitXor: lambda w, n: w.p.bitwise(w.emit(n.a), "^", w.emit(n.b)),
    BitNot: lambda w, n: w.p.bitnot(w.emit(n.a), w.mask(n)),
    Shl: lambda w, n: w.p.shl(w.emit(n.a), n.amount),
    Shr: _shr,
    Sra: lambda w, n: w.p.sra(w.signed(n.a), n.amount, w.mask(n)),
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
    #: topological order (``v0``, ``v1``, ...), unless the caller named
    #: the nets
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
    #: with ``split``, ``cycle[:edge]`` settles and evaluates every
    #: register next and write port (enable, address, data) against the
    #: pre-edge values, and ``cycle[edge:]`` stores and commits them
    edge: int


def walk_module(module: RtlModule, printer, mem_of: Dict[str, object],
                name_of: Optional[Dict[str, str]] = None,
                split: bool = False) -> ModuleWalk:
    """Walk *module* into *printer*'s statements.

    *name_of* names every net when the module's values live among a
    caller's locals.  With *split*, every write port's operands are
    held in temps before the first store, so code placed between
    ``cycle[:edge]`` and ``cycle[edge:]`` may reassign any local.
    """
    assigns = module.topo_assign_order()
    if printer.word is not None:
        check_widths(
            [a.expr for a in assigns] + [r.next for r in module.registers]
            + [e for mem in module.memories for p in mem.write_ports
               for e in (p.enable, p.addr, p.data)],
            module.name, printer.word)
    n_inputs = len(module.input_names())
    n_state = n_inputs + len(module.registers)
    if name_of is None:
        nets = [*module.input_names(), *(r.name for r in module.registers),
                *(a.name for a in assigns)]
        name_of = {net: f"v{i}" for i, net in enumerate(nets)}

    body = Emitter(printer, name_of, mem_of, "t")
    for assign in assigns:
        value = body.emit(assign.expr)
        body.lines.append(printer.assign(name_of[assign.name], value))
    settle = list(body.lines)

    commits: List[str] = []
    for i, reg in enumerate(module.registers):
        value = body.emit(reg.next)
        m = printer.lit(mask(reg.width))
        body.lines.append(printer.let(f"n{i}", f"({value}) & {m}"))
        commits.append(printer.assign(name_of[reg.name], f"n{i}"))
    stores: List[str] = []
    wp_index = 0
    for mem in module.memories:
        for port in mem.write_ports:
            prefix = f"w{wp_index}_"
            wemit = Emitter(printer, name_of, mem_of, prefix)
            operands = [wemit.emit(e)
                        for e in (port.enable, port.addr, port.data)]
            body.lines += wemit.lines
            if split:
                held = [f"{prefix}{kind}" for kind in ("en", "a", "d")]
                body.lines += [printer.let(h, x)
                               for h, x in zip(held, operands)]
                operands = held
            (stores if split else body.lines).extend(printer.port_write(
                mem_of[mem.name], *operands, mem.depth,
                printer.lit(mask(mem.width))))
            wp_index += 1
    edge = len(body.lines)
    body.lines += stores + commits
    return ModuleWalk(name_of, n_inputs, n_state, settle, body.lines, edge)


def memory_layout(memories):
    """The flat ``MEM`` image: ``(mem_of, rows)``.

    ``mem_of`` maps a memory's name to its ``(base, depth)`` and each
    row is ``(name, base, depth, width)``.  Contents are not part of
    the layout: a program is shared by every design with the same
    source (see :func:`load_program`), so simulators load contents from
    their own design.
    """
    mem_of: Dict[str, Tuple[int, int]] = {}
    rows = []
    base = 0
    for mem in memories:
        mem_of[mem.name] = (base, mem.depth)
        rows.append((mem.name, base, mem.depth, mem.width))
        base += mem.depth
    return mem_of, rows


@dataclass
class KernelProgram:
    """One design's kernel -- a module's ``nat_run(V, MEM, cycles)``
    (:func:`emit_rtl`) or an FSM's ``nat_step_batch(ENVS, MEMS, STATES,
    cycles, NP)`` (:func:`repro.hls.emit.emit_fsm`) -- and the tables
    its host needs around it."""

    source: str
    #: every net or environment entry -> its slot (in one pattern's)
    name_index: Dict[str, int]
    n_slots: int
    #: ``(name, base, depth, width)`` rows of the flat memory image
    mem_layout: list
    mem_words: int
    #: words of the state ``nat_replay``'s step reads: its snapshot
    state_words: int
    #: the loaded kernel (:class:`repro.native.NativeModule` or
    #: :class:`repro.native.PythonKernel`); None until loaded
    module: object = None
    structural_key: str = ""


def emit_rtl(module: RtlModule, printer) -> KernelProgram:
    """*module*'s kernel as *printer* prints it, not yet loaded: run
    *cycles* clock edges, then settle."""
    mem_of, layout = memory_layout(module.memories)
    walk = walk_module(module, printer, mem_of)
    name_index = {name: i for i, name in enumerate(walk.name_of)}
    mem_words = sum(depth for _, _, depth, _ in layout)
    return KernelProgram(printer.nat_run(walk, mem_words), name_index,
                         len(name_index), layout, mem_words,
                         walk.n_state + mem_words)


def load_program(program: KernelProgram, key: str,
                 load: Callable[[str], object], cache: CompileCache,
                 backend: str = "compiled") -> KernelProgram:
    """*program* with its kernel ``load(source)``, loaded once per *key*
    in *cache*.

    A kernel names no net or memory, so designs that differ only in
    names (or memory contents) share one cached program; the loaded
    code is shared, the slot and layout tables are the design's own.
    """
    shared = cache.get_or_compile(
        key, lambda: replace(program, module=load(program.source),
                             structural_key=key), backend=backend)
    if shared.name_index == program.name_index and \
            shared.mem_layout == program.mem_layout:
        return shared
    return replace(shared, name_index=program.name_index,
                   mem_layout=program.mem_layout)
