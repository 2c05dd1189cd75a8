"""Native C-source RTL simulation, and the host of both generated-code
RTL engines.

The RTL level's one code-generation walk (:mod:`repro.rtl.emit`) emits
the whole module as one kernel, ``nat_run(V, MEM, cycles)``: settle,
register updates, memory writes and the cycle loop, and beside it
``nat_replay``, which runs a whole port waveform.  :class:`CPrinter`
spells it as C over ``uint64_t`` locals (every node width is checked to
fit one), compiled to a shared object by the host toolchain (see
:mod:`repro.native`), removing the Python interpreter from the
per-cycle path entirely:

* temps are declared where the walk creates them;
* signed interpretation via full-width two's complement:
  ``(a ^ s) - s`` wraps mod 2**64, then an ``int64_t`` cast gives
  signed compares/shifts;
* ``Mux``/``Case`` become ternary chains;
* memory reads are bounds-guarded loads from one flat ``MEM`` array
  (per-memory base offsets); write ports are guarded stores;
* a logical shift by 64 or more folds to ``0`` and an arithmetic one
  clamps to 63 (C leaves both undefined).

:class:`NativeRtlSimulator` is the one RTL host: the interpreted
simulator's surface over the kernel's buffers.  The compiled engine
(:class:`~repro.rtl.compiled.CompiledRtlSimulator`) is this class over
the same kernel printed as Python, with lists for buffers.  Each holds
one stimulus pattern.

Programs are cached in :data:`~repro.rtl.emit.RTL_COMPILE_CACHE` under
the ``"native"`` backend tag, keyed by the C source digest; the shared
objects themselves persist in the on-disk cache of
:mod:`repro.native`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..engines import PortSampler, count_replay, gather, write_rows
from ..native import compile_and_load
from .emit import (RTL_COMPILE_CACHE, KernelProgram, emit_rtl,
                   load_program)
from .ir import RtlError, RtlModule

__all__ = ["CPrinter", "NativeRtlSimulator", "compile_rtl_native",
           "kernel_replay"]

_CDEF = ("void nat_run(uint64_t* V, uint64_t* MEM, long cycles);\n"
         "long nat_replay(uint64_t* V, uint64_t* MEM, uint64_t* S, "
         "uint64_t* W, long NW, long ticks, uint64_t* SRC, int NB, "
         "uint64_t* OUT);")

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

    The templates follow :class:`repro.rtl.compiled.PythonPrinter`'s.
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

    def smul(self, sa: str, sb: str, m: str) -> str:
        return self.arith(sa, "*", sb, m)

    def bitwise(self, a: str, op: str, b: str) -> str:
        return f"({a}) {op} ({b})"

    def bitnot(self, a: str, m: str) -> str:
        return f"(~({a})) & {m}"

    def shl(self, a: str, amount: int) -> str:
        return f"({a}) << {amount}"

    def shr(self, a: str, amount: int) -> str:
        return f"({a}) >> {amount}"

    def sra(self, sa: str, amount: int, m: str) -> str:
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

    def sext(self, sa: str, m: str) -> str:
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

    def port_write(self, mem: Tuple[int, int], en: str, addr: str,
                   data: str, depth: int, m: str) -> List[str]:
        base, words = mem
        return [f"if (({en}) && (({addr}) < {words}ULL)) "
                f"{{ MEM[{base}ULL + ({addr})] = ({data}) & {m}; }}"]

    # -- the kernel ----------------------------------------------------
    @staticmethod
    def nat_replay(state: str, env: str, step: str,
                   reads: Sequence[Tuple[str, int]]) -> str:
        """``nat_replay(<state>, S, W, NW, ticks, SRC, NB, OUT)``: per
        tick, the write rows ``W = (tick, slot, value)`` due then into
        *env*, one *step* unless the words it *reads* (``(array,
        words)`` spans, saved to ``S`` end to end) equal those the last
        stepped tick started from, then the sampled slots ``SRC[k]`` of
        *env* into ``OUT[tick * NB + k]``; returns the ticks stepped.
        *state* declares the step's arrays."""
        loops, at = [], 0
        for array, words in reads:
            if words:
                loops.append(
                    f"        for (long i = 0; i < {words}L; i++) {{ "
                    f"moved |= S[{at}L + i] ^ {array}[i]; "
                    f"S[{at}L + i] = {array}[i]; }}")
                at += words
        compare = "\n".join(loops)
        return f"""\
long nat_replay({state}, uint64_t* S, uint64_t* W, long NW,
                long ticks, uint64_t* SRC, int NB, uint64_t* OUT)
{{
    long w = 0, stepped = 0;
    for (long t = 0; t < ticks; t++) {{
        for (; w < NW && W[3 * w] == (uint64_t)t; w++)
            {env}[W[3 * w + 1]] = W[3 * w + 2];
        uint64_t moved = t == 0;
{compare}
        if (moved) {{ {step}; stepped++; }}
        for (int k = 0; k < NB; k++)
            OUT[t * NB + k] = {env}[SRC[k]];
    }}
    return stepped;
}}
"""

    def nat_run(self, walk, mem_words: int) -> str:
        """Every net a local: in-ports and registers loaded from ``V``,
        registers and assigns stored back after the final settle; then
        ``nat_replay`` over it, whose step reads the in-ports, the
        registers and the *mem_words* of ``MEM``."""
        lines = [_PRELUDE,
                 "void nat_run(uint64_t* V, uint64_t* MEM, long cycles)", "{",
                 "    (void)MEM;"]
        for idx, local in enumerate(walk.name_of.values()):
            init = f"V[{idx}]" if idx < walk.n_state else "0ULL"
            lines.append(f"    uint64_t {local} = {init};")
        lines.append("    for (long c = 0; c < cycles; c++) {")
        lines += ["        " + stmt for stmt in walk.cycle]
        lines += ["    }", "    {"]
        lines += ["        " + stmt for stmt in walk.settle]
        lines.append("    }")
        for idx, local in enumerate(walk.name_of.values()):
            if idx >= walk.n_inputs:  # registers and assigns
                lines.append(f"    V[{idx}] = {local};")
        lines.append("}")
        return "\n".join(lines) + "\n\n" + self.nat_replay(
            "uint64_t* V, uint64_t* MEM", "V", "nat_run(V, MEM, 1)",
            (("V", walk.n_state), ("MEM", mem_words)))


def compile_rtl_native(module: RtlModule,
                       cache: Optional[CompileCache] = None
                       ) -> KernelProgram:
    """Compile *module* into a native shared object (cached).

    Keyed by the digest of the generated C source in the shared RTL
    compile cache under the ``"native"`` backend tag; the shared object
    additionally persists in the on-disk cache so recompiles survive
    process restarts.
    """
    if cache is None:
        cache = RTL_COMPILE_CACHE
    program = emit_rtl(module, CPrinter())
    key = "c:" + hashlib.sha256(program.source.encode()).hexdigest()
    return load_program(
        program, key, lambda source: compile_and_load(source, _CDEF,
                                                      tag="rtl"),
        cache, backend="native")


def kernel_replay(module, entry, state: tuple, level: str, waveform,
                  fields, set_input, srcs: Sequence[int]) -> List[tuple]:
    """Run *waveform* through the ``nat_replay`` *entry* of a loaded
    kernel *module*, over its *state* arrays and snapshot buffer: per
    tick, the tuple of the slots *srcs*.  *fields* and *set_input* make
    the write rows (:func:`repro.engines.write_rows`); the call's ticks
    count at *level* (:func:`repro.engines.count_replay`)."""
    rows = write_rows(waveform, fields, set_input)
    ticks, nb = len(waveform), len(srcs)
    out = module.u64_buffer(ticks * nb)
    stepped = entry(*state, module.u64_arg(rows), len(rows) // 3, ticks,
                    module.u64_arg(srcs), nb, out)
    if ticks:
        count_replay(level, ticks, stepped)
    if not nb:
        return [()] * ticks
    values = module.u64_view(out)
    return [tuple(values[i:i + nb]) for i in range(0, ticks * nb, nb)]


class _KernelEnv(Mapping):
    """Dict-like view over one instance's slots of a kernel's state
    array.

    Fault-injection pokes (``env[name] ^= 1 << bit``) and probe reads
    hit the kernel's state directly, mirroring the interpreted
    backend's ``env`` dict.  *view* is the kernel module's
    ``u64_view``; the instance's slots start at *base* (pattern-major
    batches), and a poke is masked to the module's *word*.
    """

    __slots__ = ("_v", "_base", "_index", "_word")

    def __init__(self, view, index: Dict[str, int], base: int, word: int):
        self._v = view
        self._base = base
        self._index = index
        self._word = word

    def __getitem__(self, name: str) -> int:
        return self._v[self._base + self._index[name]]

    def __setitem__(self, name: str, value: int) -> None:
        self._v[self._base + self._index[name]] = value & self._word

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class NativeRtlSimulator:
    """Native-code cycle simulator for one :class:`RtlModule`.

    Public surface mirrors :class:`~repro.rtl.simulate.RtlSimulator`;
    ``env`` is a dict-like view over the kernel's state array so
    per-net pokes (fault injection) work unchanged.  Python reads and
    writes the state through views of the kernel's buffers.
    Subclasses change only the kernel build (:meth:`_compile`).
    """

    backend = "native"

    def __init__(self, module: RtlModule,
                 cache: Optional[CompileCache] = None, **kwargs):
        if kwargs:
            raise RtlError(
                f"unsupported options for the {self.backend!r} backend: "
                f"{sorted(kwargs)}"
            )
        module.validate()
        self.module = module
        self.mem_monitor = None
        self.cycles = 0
        self.program = self._compile(module, cache)
        mod = self.program.module
        self._run = mod.fn("nat_run")
        self._replay = mod.fn("nat_replay")
        self._words = mod.u64_words
        self._v = mod.u64_buffer(self.program.n_slots)
        self._m = mod.u64_buffer(max(self.program.mem_words, 1))
        #: nat_replay's snapshot of a tick's start state
        self._snapshot = mod.u64_buffer(self.program.state_words)
        # raw FFI element access is ~4x slower (NativeModule.u64_view)
        self._vv = mod.u64_view(self._v)
        self._mv = mod.u64_view(self._m)
        self.env = _KernelEnv(self._vv, self.program.name_index, 0,
                              mod.u64_mask)
        self._in_names = set(module.input_names())
        #: each input's one field for nat_replay's write rows
        self._fields = {name: [(self.program.name_index[name], 0,
                                mask(module.net_width(name)))]
                        for name in self._in_names}
        self._init_registers()
        # memory contents come from *module*, like register inits (see
        # repro.rtl.emit.memory_layout)
        self._bases = {name: base
                       for name, base, _, _ in self.program.mem_layout}
        for mem in module.memories:
            if mem.contents is not None:
                self._fill(self._bases[mem.name],
                           [v & mask(mem.width) for v in mem.contents])
        self.settle()

    @staticmethod
    def _compile(module: RtlModule,
                 cache: Optional[CompileCache]) -> KernelProgram:
        """The loaded kernel of *module*: C."""
        return compile_rtl_native(module, cache=cache)

    def _init_registers(self) -> None:
        index = self.program.name_index
        for reg in self.module.registers:
            self._vv[index[reg.name]] = reg.init & mask(reg.width)

    def _fill(self, base: int, values: List[int]) -> None:
        """Overwrite ``MEM[base:base + len(values)]``."""
        self._mv[base:base + len(values)] = self._words(values)

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

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[tuple]:
        """Run *waveform* and sample *ports* after every tick, in one
        ``nat_replay`` call (see :mod:`repro.engines`): per tick, the
        tuple ``port_sampler(ports).read()`` returns."""
        module, index = self.module, self.program.name_index
        samples = kernel_replay(
            self.program.module, self._replay,
            (self._v, self._m, self._snapshot), "rtl", waveform,
            self._fields, self.set_input,
            [index[module.outputs.get(name, name)] for name in ports])
        self.cycles += len(waveform)
        return samples

    def peek_memory(self, name: str) -> List[int]:
        for mem_name, base, depth, _ in self.program.mem_layout:
            if mem_name == name:
                return list(self._mv[base:base + depth])
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
        """Restore registers and every memory to their initial state."""
        self._init_registers()
        for mem in self.module.memories:
            self._fill(self._bases[mem.name],
                       [0] * mem.depth if mem.contents is None else
                       [v & mask(mem.width) for v in mem.contents])
        self.cycles = 0
        self.settle()
