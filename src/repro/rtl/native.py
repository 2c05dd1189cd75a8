"""Native C-source RTL simulation (host toolchain, uint64 scalars).

Mirrors :mod:`repro.rtl.compiled` -- the whole module becomes one
generated function: settle, register updates, memory writes and the
cycle loop -- but the emission target is plain C compiled to a shared
object by the host toolchain (see :mod:`repro.native`), removing the
Python interpreter from the per-cycle path entirely.  This is the
single-pattern *latency* engine; the vectorized tier remains the wide
sweep engine.

Translation notes (every node width is checked to fit ``uint64_t``):

* signed interpretation via full-width two's complement:
  ``(a ^ s) - s`` wraps mod 2**64, then an ``int64_t`` cast gives
  signed compares/shifts;
* ``Mux``/``Case`` become ternary chains;
* memory reads are bounds-guarded loads from one flat ``MEM`` array
  (per-memory base offsets); write ports are guarded stores emitted in
  port order for read-after-write consistency;
* shift amounts >= 64 fold to ``0`` (C leaves them undefined).

Programs are cached in
:data:`~repro.rtl.compiled.RTL_COMPILE_CACHE` under the ``"native"``
backend tag, keyed by the C source digest; the shared objects
themselves persist in the on-disk cache of :mod:`repro.native`.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..native import NativeModule, compile_and_load
from .compiled import RTL_COMPILE_CACHE
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
    traverse,
)
from .ir import RtlError, RtlModule

__all__ = [
    "NativeRtlProgram", "NativeRtlSimulator", "check_native_widths",
    "compile_rtl_native",
]

_CDEF = "void nat_run(uint64_t* V, uint64_t* MEM, long cycles);"

_PRELUDE = """\
#include <stdint.h>

static inline uint64_t nat_parity(uint64_t x)
{
    x ^= x >> 32; x ^= x >> 16; x ^= x >> 8;
    x ^= x >> 4; x ^= x >> 2; x ^= x >> 1;
    return x & 1ULL;
}
"""


def check_native_widths(exprs: Iterable[Expr], context: str) -> None:
    """Every node of every tree must fit one ``uint64_t``."""
    for expr in exprs:
        for node in traverse(expr):
            if node.width > 64:
                raise RtlError(
                    f"{context}: expression width {node.width} exceeds "
                    "the 64-bit word of the native backend "
                    "(use 'interpreted' or 'compiled')"
                )


def _hex(value: int) -> str:
    return f"{value:#x}ULL"


class _CEmitter:
    """Emit an expression DAG as C statements over ``uint64_t`` locals.

    Same memoisation discipline as
    :class:`repro.rtl.compiled._Emitter`; only the operator surface
    differs.  Lines are ``name = expr`` pairs; the generator adds the
    ``uint64_t`` declaration for temporaries when rendering.
    """

    def __init__(self, name_of: Dict[str, str], mem_of: Dict[str, Tuple[int, int]],
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
        sign = 1 << (width - 1)
        name = self._tmp(f"(({operand}) ^ {_hex(sign)}) - {_hex(sign)}")
        self._memo[key] = name
        return name

    def emit(self, node: Expr) -> str:
        """Return an operand string (temp/local name or literal)."""
        if isinstance(node, Const):
            return _hex(node.value & mask(node.width))
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
        m = _hex(mask(node.width))
        if isinstance(node, Add):
            return f"(({self.emit(node.a)}) + ({self.emit(node.b)})) & {m}"
        if isinstance(node, Sub):
            # uint64 wrap-around subtraction: 2**64 is a multiple of
            # 2**width, so the masked residue matches Python exactly
            return f"(({self.emit(node.a)}) - ({self.emit(node.b)})) & {m}"
        if isinstance(node, Mul):
            return f"(({self.emit(node.a)}) * ({self.emit(node.b)})) & {m}"
        if isinstance(node, SMul):
            sa = self._signed(self.emit(node.a), node.a.width, node.a)
            sb = self._signed(self.emit(node.b), node.b.width, node.b)
            # wrapped uint64 product == signed product mod 2**64
            return f"(({sa}) * ({sb})) & {m}"
        if isinstance(node, BitAnd):
            return f"({self.emit(node.a)}) & ({self.emit(node.b)})"
        if isinstance(node, BitOr):
            return f"({self.emit(node.a)}) | ({self.emit(node.b)})"
        if isinstance(node, BitXor):
            return f"({self.emit(node.a)}) ^ ({self.emit(node.b)})"
        if isinstance(node, BitNot):
            return f"(~({self.emit(node.a)})) & {m}"
        if isinstance(node, Shl):
            if node.amount >= 64:
                return "0ULL"
            return f"({self.emit(node.a)}) << {node.amount}"
        if isinstance(node, Shr):
            if node.amount >= 64:
                return "0ULL"
            return f"({self.emit(node.a)}) >> {node.amount}"
        if isinstance(node, Sra):
            sa = self._signed(self.emit(node.a), node.a.width, node.a)
            amount = min(node.amount, 63)
            return (f"((uint64_t)(((int64_t)({sa})) >> {amount})) & {m}")
        if isinstance(node, Cmp):
            a, b = self.emit(node.a), self.emit(node.b)
            rel = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                   "slt": "<", "sle": "<="}[node.op]
            if node.op in ("slt", "sle"):
                sa = self._signed(a, node.a.width, node.a)
                sb = self._signed(b, node.b.width, node.b)
                return (f"(((int64_t)({sa})) {rel} ((int64_t)({sb})))"
                        " ? 1ULL : 0ULL")
            return f"(({a}) {rel} ({b})) ? 1ULL : 0ULL"
        if isinstance(node, Mux):
            s = self.emit(node.sel)
            t = self.emit(node.if_true)
            f = self.emit(node.if_false)
            return f"({s}) ? ({t}) : ({f})"
        if isinstance(node, Case):
            s = self.emit(node.sel)
            out = self.emit(node.default)
            for value, branch in reversed(list(node.branches.items())):
                out = (f"(({s}) == {_hex(value)}) "
                       f"? ({self.emit(branch)}) : ({out})")
            return out
        if isinstance(node, Cat):
            out = self.emit(node.parts[0])
            for part in node.parts[1:]:
                out = f"(({out}) << {part.width}) | ({self.emit(part)})"
            return out
        if isinstance(node, Slice):
            return f"(({self.emit(node.a)}) >> {node.lsb}) & {m}"
        if isinstance(node, Ext):
            a = self.emit(node.a)
            if not node.signed or node.width == node.a.width:
                return f"{a}"
            sa = self._signed(a, node.a.width, node.a)
            return f"({sa}) & {m}"
        if isinstance(node, Reduce):
            a = self.emit(node.a)
            if node.op == "and":
                return (f"(({a}) == {_hex(mask(node.a.width))})"
                        " ? 1ULL : 0ULL")
            if node.op == "or":
                return f"(({a}) != 0ULL) ? 1ULL : 0ULL"
            return f"nat_parity({a})"
        if isinstance(node, MemRead):
            layout = self._mem_of.get(node.mem_name)
            if layout is None:
                raise RtlError(
                    f"read of unknown memory {node.mem_name!r}"
                )
            base, depth = layout
            a = self.emit(node.addr)
            return (f"(({a}) < {depth}ULL) "
                    f"? MEM[{base}ULL + ({a})] : 0ULL")
        raise RtlError(f"cannot emit {type(node).__name__}")


def _render(raw_lines: Sequence[str]) -> List[str]:
    """``name = expr`` pairs -> C statements (temps get declarations)."""
    out = []
    for line in raw_lines:
        if line.startswith("if ("):
            out.append(line)
            continue
        target, expr = line.split(" = ", 1)
        if target.startswith("v"):
            out.append(f"{target} = {expr};")
        else:
            out.append(f"uint64_t {target} = {expr};")
    return out


def _generate_c_source(module: RtlModule):
    """Emit the module as C; returns ``(source, name_index, mem_layout)``.

    ``name_index`` maps every net (in-port, register, assign) to its
    slot in the ``V`` state array; ``mem_layout`` is a list of
    ``(name, base, depth, width, contents)`` rows describing the flat
    ``MEM`` array.
    """
    assigns = module.topo_assign_order()
    check_native_widths(
        [a.expr for a in assigns] + [r.next for r in module.registers]
        + [e for mem in module.memories for p in mem.write_ports
           for e in (p.enable, p.addr, p.data)],
        module.name)

    name_of: Dict[str, str] = {}
    name_index: Dict[str, int] = {}
    for port in module.ports:
        if port.direction == "in":
            name_index[port.name] = len(name_of)
            name_of[port.name] = f"v{len(name_of)}"
    n_loaded = len(name_of)
    for reg in module.registers:
        name_index[reg.name] = len(name_of)
        name_of[reg.name] = f"v{len(name_of)}"
    n_state = len(name_of)
    for assign in assigns:
        name_index[assign.name] = len(name_of)
        name_of[assign.name] = f"v{len(name_of)}"

    mem_of: Dict[str, Tuple[int, int]] = {}
    mem_layout = []
    base = 0
    for mem in module.memories:
        mem_of[mem.name] = (base, mem.depth)
        mem_layout.append((mem.name, base, mem.depth, mem.width,
                           tuple(mem.contents) if mem.contents is not None
                           else None))
        base += mem.depth

    # one settle: combinational assigns in topological order
    settle = _CEmitter(name_of, mem_of, "t")
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
        body.lines.append(f"n{i} = ({value}) & {_hex(mask(reg.width))}")
        commits.append(f"{name_of[reg.name]} = n{i}")
    wp_index = 0
    for mem in module.memories:
        mbase, depth = mem_of[mem.name]
        for port in mem.write_ports:
            wemit = _CEmitter(name_of, mem_of, f"w{wp_index}_")
            en = wemit.emit(port.enable)
            addr = wemit.emit(port.addr)
            data = wemit.emit(port.data)
            body.lines.extend(wemit.lines)
            body.lines.append(
                f"if (({en}) && (({addr}) < {depth}ULL)) "
                f"{{ MEM[{mbase}ULL + ({addr})] = "
                f"({data}) & {_hex(mask(mem.width))}; }}"
            )
            wp_index += 1
    body.lines.extend(commits)

    lines = [_PRELUDE,
             "void nat_run(uint64_t* V, uint64_t* MEM, long cycles)", "{",
             "    (void)MEM;"]
    for local, idx in ((name_of[n], i) for n, i in name_index.items()):
        if idx < n_state:
            lines.append(f"    uint64_t {local} = V[{idx}];")
        else:
            lines.append(f"    uint64_t {local} = 0ULL;")
    lines.append("    for (long c = 0; c < cycles; c++) {")
    for stmt in _render(body.lines):
        lines.append("        " + stmt)
    lines.append("    }")
    lines.append("    {")
    for stmt in _render(settle_lines):
        lines.append("        " + stmt)
    lines.append("    }")
    for name, idx in name_index.items():
        if idx >= n_loaded:  # registers and assigns flow back out
            lines.append(f"    V[{idx}] = {name_of[name]};")
    lines.append("}")
    return "\n".join(lines) + "\n", name_index, mem_layout


@dataclass
class NativeRtlProgram:
    """A compiled whole-module step/settle shared object."""

    source: str
    module: NativeModule
    #: ``run(V, MEM, cycles)``: run *cycles* clock edges then settle
    run: object
    name_index: Dict[str, int]
    n_slots: int
    mem_layout: list
    mem_words: int
    structural_key: str


def compile_rtl_native(module: RtlModule,
                       cache: Optional[CompileCache] = None
                       ) -> NativeRtlProgram:
    """Compile *module* into a native shared object (cached).

    Keyed by the digest of the generated C source in the shared RTL
    compile cache under the ``"native"`` backend tag; the shared object
    additionally persists in the on-disk cache so recompiles survive
    process restarts.
    """
    if cache is None:
        cache = RTL_COMPILE_CACHE
    source, name_index, mem_layout = _generate_c_source(module)
    key = "c:" + hashlib.sha256(source.encode()).hexdigest()

    def factory() -> NativeRtlProgram:
        mod = compile_and_load(source, _CDEF, tag="rtl")
        return NativeRtlProgram(
            source=source,
            module=mod,
            run=mod.fn("nat_run"),
            name_index=dict(name_index),
            n_slots=len(name_index),
            mem_layout=list(mem_layout),
            mem_words=sum(depth for _, _, depth, _, _ in mem_layout),
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend="native")


class _NativeEnv:
    """Dict-like view over one instance's slots of a native state array.

    Fault-injection pokes (``env[name] ^= 1 << bit``) and probe reads
    hit the shared-object state directly, mirroring the interpreted
    backend's ``env`` dict.  *view* is a ``NativeModule.u64_view``;
    the instance's slots start at *base* (pattern-major batches).
    """

    __slots__ = ("_v", "_base", "_index")

    def __init__(self, view: memoryview, index: Dict[str, int],
                 base: int = 0):
        self._v = view
        self._base = base
        self._index = index

    def __getitem__(self, name: str) -> int:
        return self._v[self._base + self._index[name]]

    def __setitem__(self, name: str, value: int) -> None:
        self._v[self._base + self._index[name]] = value & mask(64)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def keys(self):
        return self._index.keys()

    def get(self, name: str, default=None):
        if name in self._index:
            return self[name]
        return default


class NativeRtlSimulator:
    """Native-code cycle simulator for one :class:`RtlModule`.

    Public surface mirrors :class:`~repro.rtl.simulate.RtlSimulator`;
    ``env`` is a dict-like view over the shared-object state array so
    per-net pokes (fault injection) work unchanged.  Python reads and
    writes the state through memoryviews of the kernel's buffers.
    """

    backend = "native"

    def __init__(self, module: RtlModule,
                 cache: Optional[CompileCache] = None, **kwargs):
        if kwargs:
            raise RtlError(
                "unsupported options for the 'native' backend: "
                f"{sorted(kwargs)}"
            )
        module.validate()
        self.module = module
        self.mem_monitor = None
        self.cycles = 0
        self.program = compile_rtl_native(module, cache=cache)
        self._run = self.program.run

        mod = self.program.module
        self._v = mod.u64_buffer(self.program.n_slots)
        self._m = mod.u64_buffer(max(self.program.mem_words, 1))
        # raw FFI element access is ~4x slower (NativeModule.u64_view)
        self._vv = mod.u64_view(self._v)
        self._mv = mod.u64_view(self._m)
        self.env = _NativeEnv(self._vv, self.program.name_index)
        self._in_names = set(module.input_names())
        self._init_registers()
        for name, base, depth, width, contents in self.program.mem_layout:
            if contents is not None:
                self._fill(base, [contents[i] & mask(width)
                                  for i in range(depth)])
        self.settle()

    def _init_registers(self) -> None:
        index = self.program.name_index
        for reg in self.module.registers:
            self._vv[index[reg.name]] = reg.init & mask(reg.width)

    def _fill(self, base: int, values: List[int]) -> None:
        """Overwrite ``MEM[base:base + len(values)]``."""
        self._mv[base:base + len(values)] = array("Q", values)

    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        if name not in self._in_names:
            raise RtlError(
                f"{name!r} is not an input of {self.module.name!r}")
        self._vv[self.program.name_index[name]] = \
            value & mask(self.module.net_width(name))

    def get(self, name: str) -> int:
        """Read any net (input, register, assign, output port)."""
        target = self.module.outputs.get(name, name)
        return self._vv[self.program.name_index[target]]

    def port_widths(self) -> Dict[str, int]:
        """Widths of all ports, inputs first (coverage sampling helper)."""
        module = self.module
        return {name: module.net_width(name)
                for name in module.input_names() + module.output_names()}

    def peek_memory(self, name: str) -> List[int]:
        for mem_name, base, depth, _, _ in self.program.mem_layout:
            if mem_name == name:
                return self._mv[base:base + depth].tolist()
        raise RtlError(f"no memory named {name!r}")

    def load_memory(self, name: str, contents: Sequence[int]) -> None:
        for mem_name, base, depth, width, _ in self.program.mem_layout:
            if mem_name == name:
                if len(contents) != depth:
                    raise RtlError(
                        f"memory {name!r}: {len(contents)} values for "
                        f"depth {depth}"
                    )
                self._fill(base, [v & mask(width) for v in contents])
                return
        raise RtlError(f"no memory named {name!r}")

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Re-evaluate combinational logic for the current inputs/state."""
        self._run(self._v, self._m, 0)

    def step(self, cycles: int = 1) -> None:
        """Advance by *cycles* clock edges (inputs held constant)."""
        self._run(self._v, self._m, cycles)
        self.cycles += cycles

    def reset(self) -> None:
        """Restore registers (and RAM contents) to their initial state."""
        self._init_registers()
        for name, base, depth, width, contents in self.program.mem_layout:
            if contents is None:
                self._fill(base, [0] * depth)
        self.cycles = 0
        self.settle()
