"""Native C-source RTL simulation (host toolchain, uint64 scalars).

Mirrors :mod:`repro.rtl.compiled` -- the whole module becomes one
generated function: settle, register updates, memory writes and the
cycle loop -- but the emission target is plain C compiled to a shared
object by the host toolchain (see :mod:`repro.native`), removing the
Python interpreter from the per-cycle path entirely.  This is the
single-pattern *latency* engine; the vectorized tier remains the wide
sweep engine.

The statements come from the RTL level's one code-generation walk
(:mod:`repro.rtl.emit`); :class:`CPrinter` spells them as C over
``uint64_t`` locals (every node width is checked to fit one):

* temps are declared where the walk creates them;
* signed interpretation via full-width two's complement:
  ``(a ^ s) - s`` wraps mod 2**64, then an ``int64_t`` cast gives
  signed compares/shifts;
* ``Mux``/``Case`` become ternary chains;
* memory reads are bounds-guarded loads from one flat ``MEM`` array
  (per-memory base offsets); write ports are guarded stores;
* a logical shift by 64 or more folds to ``0`` and an arithmetic one
  clamps to 63 (C leaves both undefined).

Programs are cached in
:data:`~repro.rtl.compiled.RTL_COMPILE_CACHE` under the ``"native"``
backend tag, keyed by the C source digest; the shared objects
themselves persist in the on-disk cache of :mod:`repro.native`.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..engines import PortSampler, gather
from ..native import NativeModule, compile_and_load
from .compiled import RTL_COMPILE_CACHE
from .emit import walk_module
from .ir import RtlError, RtlModule

__all__ = [
    "CPrinter", "NativeRtlProgram", "NativeRtlSimulator",
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


class CPrinter:
    """C spelling of the code-generation walk (``uint64_t`` locals).

    The templates follow :class:`repro.rtl.compiled.PythonPrinter`'s;
    ``mem_read`` takes a memory's ``(base, depth)`` in the flat ``MEM``
    array.
    """

    word = "word of the native backend"
    wide_shift = "0ULL"
    zero = "0ULL"

    def lit(self, value: int) -> str:
        return f"{value:#x}ULL"

    def signed(self, a: str, width: int) -> str:
        sign = self.lit(1 << (width - 1))
        return f"(({a}) ^ {sign}) - {sign}"

    # -- one template per node kind ------------------------------------
    def arith(self, a: str, op: str, b: str, m: str) -> str:
        # a uint64_t op wraps mod 2**64, a multiple of 2**width, so the
        # masked residue matches Python (the signed product too)
        return f"(({a}) {op} ({b})) & {m}"

    def smul(self, sa: str, sb: str, m: str, width: int) -> str:
        return self.arith(sa, "*", sb, m)

    def bitwise(self, a: str, op: str, b: str) -> str:
        return f"({a}) {op} ({b})"

    def bitnot(self, a: str, m: str) -> str:
        return f"(~({a})) & {m}"

    def shl(self, a: str, amount: int) -> str:
        return f"({a}) << {amount}"

    def shr(self, a: str, amount: int) -> str:
        return f"({a}) >> {amount}"

    def sra(self, sa: str, amount: int, m: str, width: int) -> str:
        return (f"((uint64_t)(((int64_t)({sa})) >> {min(amount, 63)}))"
                f" & {m}")

    def cmp(self, a: str, rel: str, b: str, signed: bool) -> str:
        if signed:
            return (f"(((int64_t)({a})) {rel} ((int64_t)({b})))"
                    " ? 1ULL : 0ULL")
        return f"(({a}) {rel} ({b})) ? 1ULL : 0ULL"

    def mux(self, s: str, t: str, f: str) -> str:
        return f"({s}) ? ({t}) : ({f})"

    def case_arm(self, s: str, value: str, t: str, f: str) -> str:
        return f"(({s}) == {value}) ? ({t}) : ({f})"

    def cat(self, hi: str, width: int, lo: str) -> str:
        return f"(({hi}) << {width}) | ({lo})"

    def slice(self, a: str, lsb: int, m: str) -> str:
        return f"(({a}) >> {lsb}) & {m}"

    def sext(self, sa: str, m: str, width: int) -> str:
        return f"({sa}) & {m}"

    _REDUCE = {"and": "(({a}) == {full}) ? 1ULL : 0ULL",
               "or": "(({a}) != 0ULL) ? 1ULL : 0ULL",
               "xor": "nat_parity({a})"}

    def reduce(self, op: str, a: str, full: str) -> str:
        return self._REDUCE[op].format(a=a, full=full)

    def mem_read(self, mem: Tuple[int, int], addr: str, depth: int) -> str:
        base, words = mem
        return f"(({addr}) < {words}ULL) ? MEM[{base}ULL + ({addr})] : 0ULL"

    # -- statements ----------------------------------------------------
    def let(self, name: str, expr: str) -> str:
        return f"uint64_t {name} = {expr};"

    def assign(self, target: str, expr: str) -> str:
        return f"{target} = {expr};"

    def fresh(self, value: str) -> str:
        return value

    def port_write(self, mem: Tuple[int, int], en: str, addr: str,
                   data: str, depth: int, m: str) -> List[str]:
        base, words = mem
        return [f"if (({en}) && (({addr}) < {words}ULL)) "
                f"{{ MEM[{base}ULL + ({addr})] = ({data}) & {m}; }}"]


def memory_layout(memories):
    """The flat ``MEM`` image: ``(mem_of, rows)``.

    ``mem_of`` maps a memory's name to its ``(base, depth)`` and each
    row is ``(name, base, depth, width)``.  Contents are not part of
    the layout: a program is shared by every design with the same C
    source (see :func:`for_design`), so simulators load contents from
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


def _generate_c_source(module: RtlModule):
    """Emit the module as C; returns ``(source, name_index, mem_layout)``.

    ``name_index`` maps every net (in-port, register, assign) to its
    slot in the ``V`` state array; ``mem_layout`` is a list of
    ``(name, base, depth, width)`` rows describing the flat ``MEM``
    array.
    """
    mem_of, mem_layout = memory_layout(module.memories)
    walk = walk_module(module, CPrinter(), mem_of)
    name_index = {name: i for i, name in enumerate(walk.name_of)}

    lines = [_PRELUDE,
             "void nat_run(uint64_t* V, uint64_t* MEM, long cycles)", "{",
             "    (void)MEM;"]
    for name, local in walk.name_of.items():
        idx = name_index[name]
        init = f"V[{idx}]" if idx < walk.n_state else "0ULL"
        lines.append(f"    uint64_t {local} = {init};")
    lines.append("    for (long c = 0; c < cycles; c++) {")
    lines += ["        " + stmt for stmt in walk.cycle]
    lines += ["    }", "    {"]
    lines += ["        " + stmt for stmt in walk.settle]
    lines.append("    }")
    for name, local in walk.name_of.items():
        if name_index[name] >= walk.n_inputs:  # registers and assigns
            lines.append(f"    V[{name_index[name]}] = {local};")
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
            mem_words=sum(depth for _, _, depth, _ in mem_layout),
            structural_key=key,
        )

    return for_design(cache.get_or_compile(key, factory, backend="native"),
                      name_index, mem_layout)


def for_design(program, name_index: Dict[str, int], mem_layout: list):
    """*program* with the name maps of the design just generated.

    The C source names no net or memory, so designs that differ only in
    names (or memory contents) share one cached program; the loaded
    code is shared, the slot and layout tables are the design's own.
    """
    if program.name_index == name_index and \
            program.mem_layout == mem_layout:
        return program
    return replace(program, name_index=dict(name_index),
                   mem_layout=list(mem_layout))


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
        # memory contents come from *module*, like register inits (see
        # memory_layout)
        self._bases = {name: base
                       for name, base, _, _ in self.program.mem_layout}
        for mem in module.memories:
            if mem.contents is not None:
                self._fill(self._bases[mem.name],
                           [v & mask(mem.width) for v in mem.contents])
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

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """The values of *names*, one gather per read (see
        :class:`~repro.engines.PortSampler`)."""
        module = self.module
        widths = {name: module.net_width(name) for name in names}
        take = gather([self.program.name_index[module.outputs.get(name, name)]
                       for name in widths])
        view = self._vv
        return PortSampler(lambda: take(view), widths)

    def peek_memory(self, name: str) -> List[int]:
        for mem_name, base, depth, _ in self.program.mem_layout:
            if mem_name == name:
                return self._mv[base:base + depth].tolist()
        raise RtlError(f"no memory named {name!r}")

    def load_memory(self, name: str, contents: Sequence[int]) -> None:
        for mem_name, base, depth, width in self.program.mem_layout:
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
        for mem in self.module.memories:
            if mem.contents is None:
                self._fill(self._bases[mem.name], [0] * mem.depth)
        self.cycles = 0
        self.settle()
