"""Native (C-source) parallel-pattern gate-level simulation, and the
host of both generated-code gate engines.

The gate level's one code-generation walk (:mod:`repro.gatesim.emit`)
emits the whole clock edge as one kernel; :class:`CPrinter` spells it
as C99 over ``uint64_t`` bitplanes -- every net as ``(ones, unk)``
planes confined to the pattern mask ``M`` -- compiled with the host
toolchain (:mod:`repro.native`) and driven through cffi/ctypes.  One
``nat_run`` call settles the cone, samples flops (including the SDFF
scan mux), performs memory writes and commits, for any number of
cycles, so no Python bytecode runs per cycle.

:class:`NativeGateSimulator` is the one gate host: the pattern-parallel
public surface over the kernel's buffers.  The compiled engine
(:class:`~repro.gatesim.compiled.CompiledGateSimulator`) is this class
over the same kernel printed as Python, with lists for buffers.

Memories are one flat pattern-major word image (every pattern owns its
storage, so ``privatize_memory`` is a no-op view).  Semantics match
the behavioural :class:`~repro.gatesim.memory.MemoryModel` exactly:
X address bits turn a read all-X and drop a write; out-of-range reads
return 0 and writes are dropped; X data or X enable commits 0.
Address-checking memories run on the interpreted engine only.

Artifacts are cached in the shared ``COMPILE_CACHE`` under the
structural digest, tagged ``backend="native"``, and the underlying
``.so`` persists in the on-disk cache across processes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import ENGINES, PortSampler, gather, write_rows
from ..native import build_cflags, compile_and_load, start_build
from ..synth.netlist import Netlist
from .emit import (COMPILE_CACHE, GateProgram, Planes, emit_program,
                   indent, structural_hash)
from .memory import PokeableMemory
from .simulator import GateSimError, check_pattern

__all__ = ["CPrinter", "KernelBuild", "NativeGateSimulator",
           "compile_netlist_native"]

#: bits of one ``uint64_t`` value word: the 64-bit slices in which
#: ``set_input_patterns`` hands port values to the kernel
_WORD_BITS = 64

_CDEF = ("void nat_run(uint64_t* S1, uint64_t* SX, uint64_t* R1, "
         "uint64_t* RX, uint64_t* MEM, uint64_t M, long cycles, "
         "int NP, int settle_after);\n"
         "void nat_set_patterns(uint64_t* S1, uint64_t* SX, "
         "uint64_t* slots, int width, uint64_t* vals, int NP);\n"
         "void nat_replay(uint64_t* S1, uint64_t* SX, uint64_t* R1, "
         "uint64_t* RX, uint64_t* MEM, uint64_t M, int NP, uint64_t* W, "
         "long NW, long ticks, uint64_t* SRC, int NB, int settle_after, "
         "uint8_t* OUT);")

#: transposes NP per-pattern values into ``width`` (<= 64) input
#: bitplanes: bit i of vals[p] lands in bit p of plane S1[slots[i]]
_SET_PATTERNS_C = """\
void nat_set_patterns(uint64_t *S1, uint64_t *SX, uint64_t *slots,
                      int width, uint64_t *vals, int NP) {
  for (int i = 0; i < width; i++) {
    uint64_t plane = 0;
    for (int p = 0; p < NP; p++) plane |= ((vals[p] >> i) & 1ULL) << p;
    S1[slots[i]] = plane;
    SX[slots[i]] = 0;
  }
}
"""

#: replays a waveform: per tick, the write rows W = (tick, slot, bit)
#: due then, broadcast to every pattern; one clock edge; then pattern
#: 0's 4-valued code of every sampled bit (SRC[k] = index << 1 | 1 for
#: an R1/RX net, index << 1 for a state slot) into OUT[tick * NB + k]
_REPLAY_C = """\
void nat_replay(uint64_t *S1, uint64_t *SX, uint64_t *R1, uint64_t *RX,
                uint64_t *MEM, uint64_t M, int NP, uint64_t *W, long NW,
                long ticks, uint64_t *SRC, int NB, int settle_after,
                uint8_t *OUT) {
  long w = 0;
  for (long t = 0; t < ticks; t++) {
    for (; w < NW && W[3 * w] == (uint64_t)t; w++) {
      S1[W[3 * w + 1]] = W[3 * w + 2] ? M : 0;
      SX[W[3 * w + 1]] = 0;
    }
    nat_run(S1, SX, R1, RX, MEM, M, 1, NP, settle_after);
    for (int k = 0; k < NB; k++) {
      uint64_t i = SRC[k] >> 1;
      uint64_t one = (SRC[k] & 1) ? R1[i] : S1[i];
      uint64_t unk = (SRC[k] & 1) ? RX[i] : SX[i];
      OUT[t * NB + k] = (uint8_t)((one & 1) | (unk & 1) << 1);
    }
  }
}
"""

_SETTLE_ARGS = "S1, SX, R1, RX, MEM, M, NP"


class CPrinter:
    """C spelling of the gate walk: ``uint64_t`` plane locals, results
    stored to R1/RX as produced, the settle split into functions of a
    few hundred statements so the optimizer sees many small basic
    blocks instead of one huge one (gcc/clang are superlinear there)."""

    word = "storage word of the native backend"
    #: 600 source lines per settle function, with its 4-line header
    chunk_lines = 596
    results_in_locals = False
    sep = " "

    def let(self, stmt: str) -> str:
        return f"uint64_t {stmt};"

    def lets(self, *stmts: str) -> str:
        return f"uint64_t {', '.join(stmts)};"

    def assign(self, stmt: str) -> str:
        return f"{stmt};"

    @staticmethod
    def _gather(planes: Sequence[Planes], flag: str, word: str,
                pad: str) -> List[str]:
        """Per pattern ``bit``: *flag* set by any X plane, *word*
        packed from the ones planes."""
        lines = []
        for i, (ones, unks) in enumerate(planes):
            lines.append(f"{pad}if ({unks} & bit) {flag} = 1;")
            lines.append(f"{pad}if ({ones} & bit) {word} |= {1 << i}ULL;")
        return lines

    def mem_read(self, data: Sequence[Planes], addr: Sequence[Planes],
                 depth: int, off: int, words: int) -> List[str]:
        lines = [f"{self.let(f'{a} = 0')}{self.sep}{self.let(f'{x} = 0')}"
                 for a, x in data]
        lines += ["for (int p = 0; p < NP; p++) {",
                  "  uint64_t bit = 1ULL << p;",
                  "  int axf = 0; uint64_t addr = 0;"]
        lines += self._gather(addr, "axf", "addr", "  ")
        lines.append("  if (axf) {")
        lines += [f"    {x} |= bit;" for _, x in data]
        lines.append(f"  }} else if (addr < {depth}ULL) {{")
        lines.append(f"    uint64_t w = MEM[(uint64_t)p * {words}ULL + "
                     f"{off}ULL + addr];")
        lines += [f"    if (w & {1 << i}ULL) {a} |= bit;"
                  for i, (a, _) in enumerate(data)]
        return lines + ["  }", "}"]

    def port_write(self, en: Planes, addr: Sequence[Planes],
                   data: Sequence[Planes], depth: int, off: int,
                   words: int) -> List[str]:
        lines = ["{",
                 "  " + self.lets(f"we1 = {en[0]}", f"wex = {en[1]}"),
                 "  uint64_t act = (we1 | wex) & M;",
                 "  if (act) for (int p = 0; p < NP; p++) {",
                 "    uint64_t bit = 1ULL << p;",
                 "    if (!(act & bit)) continue;",
                 "    int axf = 0; uint64_t addr = 0;"]
        lines += self._gather(addr, "axf", "addr", "    ")
        lines.append(f"    if (axf || addr >= {depth}ULL) continue;")
        lines.append("    int dxf = 0; uint64_t data = 0;")
        lines += self._gather(data, "dxf", "data", "    ")
        # X data or X enable commits 0, like the interpreted engine
        lines.append("    if (dxf || (wex & bit)) data = 0;")
        lines.append(f"    MEM[(uint64_t)p * {words}ULL + {off}ULL + "
                     "addr] = data;")
        return lines + ["  }", "}"]

    def program(self, chunks: List[List[str]], edge: List[str],
                results: List[Planes]) -> str:
        lines = ["#include <stdint.h>", ""]
        for k, body in enumerate(chunks):
            lines += [
                f"static void settle{k}(uint64_t *S1, uint64_t *SX,",
                "    uint64_t *R1, uint64_t *RX, uint64_t *MEM, uint64_t M,",
                "    int NP) {",
                "  (void)R1; (void)RX; (void)MEM; (void)M; (void)NP;"]
            lines += indent(body, 2) + ["}", ""]
        lines += ["static void settle(uint64_t *S1, uint64_t *SX, "
                  "uint64_t *R1,",
                  "                   uint64_t *RX, uint64_t *MEM, "
                  "uint64_t M, int NP) {"]
        lines += [f"  settle{k}({_SETTLE_ARGS});"
                  for k in range(len(chunks))]
        lines += ["}", "",
                  "void nat_run(uint64_t *S1, uint64_t *SX, uint64_t *R1,",
                  "             uint64_t *RX, uint64_t *MEM, uint64_t M,",
                  "             long cycles, int NP, int settle_after) {",
                  "  for (long c = 0; c < cycles; c++) {",
                  f"    settle({_SETTLE_ARGS});"]
        lines += indent(edge, 4)
        lines += ["  }",
                  f"  if (settle_after) settle({_SETTLE_ARGS});",
                  "}", "", _SET_PATTERNS_C, _REPLAY_C]
        return "\n".join(lines)


def compile_netlist_native(netlist: Netlist,
                           cache: Optional[CompileCache] = None,
                           run_cycles: Optional[int] = None,
                           program: Optional[GateProgram] = None
                           ) -> GateProgram:
    """Compile *netlist* to a loaded C kernel, via both cache layers.

    The in-process :data:`~repro.gatesim.emit.COMPILE_CACHE` keeps
    the loaded module under the shared structural digest tagged
    ``backend="native"``; the ``.so`` itself persists in the on-disk
    cache (:func:`repro.native.build_shared_object`), so a fresh
    process re-links in milliseconds instead of recompiling, and a
    build :meth:`NativeGateSimulator.start_build` began is waited for,
    not started again.  *program*, the netlist's kernel as
    :func:`emit_program` printed it in C, spares emitting it again.

    *run_cycles*, when the caller knows how long it will run, picks
    the build flags (:func:`repro.native.build_cflags`).  The
    in-process key stays the structural hash, so a later long run of
    the same netlist in this process would reuse a short run's ``-O0``
    program; no caller does that today (an FI campaign's saboteur
    program runs its own workload only, once per batch).
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> GateProgram:
        emitted = program or emit_program(netlist, CPrinter())
        module = compile_and_load(emitted.source, _CDEF, tag="gate",
                                  run_cycles=run_cycles)
        return replace(emitted, module=module, structural_key=key)

    return cache.get_or_compile(key, factory, backend="native")


class KernelBuild:
    """A gate kernel, emitted and compiling in a ``cc`` child process:
    what :meth:`NativeGateSimulator.start_build` returns.

    :meth:`reap` waits for the child (:meth:`repro.native.Build.reap`)
    and :meth:`load` loads the kernel it built into
    :data:`~repro.gatesim.emit.COMPILE_CACHE`, from the source emitted
    here, so every simulator of the netlist made later -- in this
    process or in a child it forks -- finds it there.  A failed build
    loads nothing: the first such simulator raises its error, as a
    build started there would.  :meth:`cancel` stops a child that still
    runs.
    """

    def __init__(self, netlist: Netlist, run_cycles: Optional[int]):
        self._netlist = netlist
        self._run_cycles = run_cycles
        self._program = emit_program(netlist, CPrinter())
        self._build = start_build(self._program.source, tag="gate",
                                  cflags=build_cflags(run_cycles))

    def reap(self) -> float:
        """Wait for the child and return its CPU seconds; a failure is
        kept for :meth:`load`."""
        self._build.reap()
        return self._build.cpu_s

    def load(self) -> None:
        """Load the kernel (reaping the child first if need be)."""
        self._build.reap()
        if self._build.error is None:
            compile_netlist_native(self._netlist,
                                   run_cycles=self._run_cycles,
                                   program=self._program)

    def cancel(self) -> None:
        self._build.cancel()


# ----------------------------------------------------------------------
# memory views
# ----------------------------------------------------------------------
class _MemoryView(PokeableMemory):
    """One pattern's window into the flat memory image.

    Mirrors the :class:`~repro.gatesim.memory.MemoryModel` surface the
    fault-injection campaign and the tests touch (``flip_bit`` /
    ``peek`` / ``write``).  Storage is pattern-private by construction,
    so no un-aliasing step is ever needed.
    """

    def __init__(self, sim: "NativeGateSimulator", name: str, base: int,
                 depth: int, width: int, writable: bool):
        self._sim = sim
        self.name = name
        self._base = base
        self.depth = depth
        self.width = width
        self.writable = writable
        self.on_change = sim._unsettle

    def _flip(self, address: int, bits: int) -> None:
        self._sim._mem_v[self._base + address] ^= bits

    def peek(self) -> List[int]:
        return list(self._sim._mem_v[self._base:self._base + self.depth])

    def write(self, address: Optional[int], value: int,
              cycle: int = 0) -> None:
        if not self.writable:
            raise ValueError(f"{self.name} is a ROM")
        if address is None or not 0 <= address < self.depth:
            return
        self._sim._mem_v[self._base + address] = value & mask(self.width)
        self._changed()


# ----------------------------------------------------------------------
# port sampling
# ----------------------------------------------------------------------
#: a plane source for the sampler: (True, state_slot) or
#: (False, result_index)
_Where = Tuple[bool, int]


def plane_sampler(ports: Dict[str, List[_Where]],
                  planes: Callable[[], tuple],
                  n_patterns: int) -> PortSampler:
    """A port sampler over two-bitplane storage.

    *ports* gives each port bit's source; *planes()* settles the engine
    and returns its ``(S1, SX, R1, RX)`` storage.  Each read gathers
    every bit's ones and unknowns (one ``itemgetter`` call per array)
    and packs pattern 0 as one 4-valued code per byte (``ones | unk <<
    1``: the engines hold Z as X).
    """
    bits = [src for srcs in ports.values() for src in srcs]
    state = [k for k, (in_state, _) in enumerate(bits) if in_state]
    result = [k for k, (in_state, _) in enumerate(bits) if not in_state]
    take_s = gather([bits[k][1] for k in state])
    take_r = gather([bits[k][1] for k in result])
    if state + result == sorted(state + result):
        order = None  # already in port order
    else:
        where = {k: i for i, k in enumerate(state + result)}
        order = gather([where[k] for k in range(len(bits))])

    def pack(in_state, in_result) -> int:
        words = take_s(in_state) + take_r(in_result)
        if order is not None:
            words = order(words)
        if n_patterns > 1:
            words = map((1).__and__, words)
        return int.from_bytes(bytes(words), "little")

    def read() -> int:
        s1, sx, r1, rx = planes()
        return pack(s1, r1) | pack(sx, rx) << 1

    return PortSampler(read, {name: len(srcs)
                              for name, srcs in ports.items()})


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
#: a plane source: (ones view, unknowns view, index into both)
_Src = Tuple[object, object, int]

#: one value word
_WORD = (1 << _WORD_BITS) - 1


class NativeGateSimulator:
    """Parallel-pattern gate-level simulator over a generated kernel.

    Mirrors the public API of the interpreted
    :class:`~repro.gatesim.simulator.GateSimulator` (``set_input`` /
    ``get`` / ``get_logic`` / ``step`` / ``reset``), and adds the
    pattern-parallel entry points ``set_input_patterns`` /
    ``get_patterns`` / ``get_port_planes`` / ``get_logic_pattern``:
    with ``n_patterns=N`` a single pass evaluates N independent
    stimulus vectors.  The single-value API broadcasts writes across
    all patterns and reads pattern 0, so with ``n_patterns=1`` (the
    default) the engine is a drop-in, bit-exact replacement for the
    interpreted simulator; the one representational difference is that
    Z is stored as X (gate inputs already treat them identically).

    The pattern cap is the engine table's (:data:`repro.engines.ENGINES`):
    native packs patterns into one 64-bit word, which covers the
    fault-injection batch width and the throughput rows.

    ``set_input_patterns`` hands the values to the kernel's
    ``nat_set_patterns`` in one call per 64 port bits, which transposes
    them into bitplanes, and :meth:`replay` runs a whole waveform in one
    ``nat_replay`` call; every other Python-side access to the kernel's
    state goes through views of its buffers.  The combinational cone
    settles lazily: a read settles it first only when one of the bits
    read is a net of the cone, not a state slot (an input or a flop Q).
    Subclasses change only the kernel build (:meth:`_compile`,
    :meth:`start_build`).

    *run_cycles* is how many cycles the caller will step, when it
    knows; it picks the build flags of the kernel.
    """

    backend = "native"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None,
                 run_cycles: Optional[int] = None):
        if checking_memories:
            raise GateSimError(
                f"checking memories are not supported by the "
                f"{self.backend} backend; use interpreted")
        if n_patterns < 1:
            raise GateSimError(f"n_patterns must be >= 1, got {n_patterns}")
        cap = ENGINES[self.backend].max_patterns["gate"]
        if cap is not None and n_patterns > cap:
            raise GateSimError(
                f"{self.backend} backend packs patterns into one {cap}-bit "
                f"word; got n_patterns={n_patterns} "
                f"(use backend=\"compiled\")")
        netlist.validate()
        self.netlist = netlist
        self.n_patterns = n_patterns
        self.cycles = 0
        self._mask = mask(n_patterns)
        self.program = self._compile(netlist, cache, run_cycles)
        prog = self.program
        mod = prog.module
        self._u64_arg = mod.u64_arg
        self._run = mod.fn("nat_run")
        self._set_patterns = mod.fn("nat_set_patterns")
        self._replay = mod.fn("nat_replay")

        self._slot = {uid: i for i, uid in enumerate(prog.state_uids)}
        self._ridx = {uid: i for i, uid in enumerate(prog.result_uids)}

        # the kernel's buffers, and the views Python reads and writes
        # them through (raw FFI element access is ~4x slower, see
        # NativeModule.u64_view)
        self._s1 = mod.u64_buffer(len(prog.state_uids))
        self._sx = mod.u64_buffer(len(prog.state_uids))
        self._r1 = mod.u64_buffer(len(prog.result_uids))
        self._rx = mod.u64_buffer(len(prog.result_uids))
        self._mem = mod.u64_buffer(max(1, prog.mem_words * n_patterns))
        self._s1_v, self._sx_v, self._r1_v, self._rx_v, self._mem_v = (
            mod.u64_view(buf) for buf in
            (self._s1, self._sx, self._r1, self._rx, self._mem))

        self._s1_v[self._slot[netlist.const1.uid]] = self._mask
        for uid in prog.x_state_uids:
            self._sx_v[self._slot[uid]] = self._mask

        # one pattern's initial memory image, copied into every
        # pattern's span by _load_memories, and the pattern-private views
        image: List[int] = []
        self.memories: Dict[str, _MemoryView] = {}
        self._mem_views: Dict[str, List[_MemoryView]] = {}
        for name, off, depth, width, writable, contents in \
                prog.mem_layout:
            image.extend(contents or [0] * depth)
            views = [_MemoryView(self, name, p * prog.mem_words + off,
                                 depth, width, writable)
                     for p in range(n_patterns)]
            self._mem_views[name] = views
            self.memories[name] = views[0]
        self._image_buf = mod.u64_buffer(image)
        self._image = mod.u64_view(self._image_buf)
        self._load_memories()

        # flop init states
        self._flop_slots: List[Tuple[int, int]] = []
        for flop in netlist.flops():
            q_slot = self._slot[flop.outputs["Q"].uid]
            init = flop.init & 1
            self._flop_slots.append((q_slot, init))
            self._s1_v[q_slot] = self._mask if init else 0

        # per input: (bit offset, slot table, bits) per 64-bit chunk,
        # the arguments of one nat_set_patterns call each, and its bits'
        # fields for nat_replay's write rows
        self._inputs: Dict[str, List[Tuple[int, object, int]]] = {}
        self._fields: Dict[str, List[Tuple[int, int, int]]] = {}
        for name, nets in netlist.inputs.items():
            slots = [self._slot[n.uid] for n in nets]
            self._fields[name] = [(j, i, 1) for i, j in enumerate(slots)]
            chunks = [slots[lo:lo + _WORD_BITS]
                      for lo in range(0, len(slots), _WORD_BITS)]
            self._inputs[name] = [
                (k * _WORD_BITS, mod.u64_buffer(chunk), len(chunk))
                for k, chunk in enumerate(chunks)]

        # port lookup tables (outputs shadow inputs, like interpreted),
        # and the ports with a bit in the cone: reads of those settle
        self._ports: Dict[str, List[_Src]] = {}
        for name, nets in list(netlist.outputs.items()) + \
                list(netlist.inputs.items()):
            self._ports.setdefault(
                name, [self._src(n.uid) for n in nets])
        self._cone_ports = {name for name, srcs in self._ports.items()
                            if any(a is self._r1_v for a, _, _ in srcs)}

        self._dirty = True
        self._settle()

    def _compile(self, netlist: Netlist, cache: Optional[CompileCache],
                 run_cycles: Optional[int]) -> GateProgram:
        """The loaded kernel of *netlist*: C, built for *run_cycles*."""
        return compile_netlist_native(netlist, cache=cache,
                                      run_cycles=run_cycles)

    @staticmethod
    def start_build(netlist: Netlist,
                    run_cycles: Optional[int] = None) -> KernelBuild:
        """Emit *netlist*'s kernel and start building it in a child
        process (:func:`repro.native.start_build`), for simulators of
        it made later (see :class:`KernelBuild`).  An engine with
        nothing to build out of process sets this to None."""
        return KernelBuild(netlist, run_cycles)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _src(self, uid: int) -> _Src:
        s = self._slot.get(uid)
        if s is not None:
            return (self._s1_v, self._sx_v, s)
        return (self._r1_v, self._rx_v, self._ridx[uid])

    def _settle(self) -> None:
        self._run(self._s1, self._sx, self._r1, self._rx, self._mem,
                  self._mask, 0, self.n_patterns, 1)
        self._dirty = False

    def _load_memories(self) -> None:
        """Every pattern's memories from the initial image."""
        words = self.program.mem_words
        for lo in range(0, words * self.n_patterns, words or 1):
            self._mem_v[lo:lo + words] = self._image[:words]

    def _ensure_settled(self) -> None:
        if self._dirty:
            self._settle()

    def _unsettle(self) -> None:
        """A memory poke changed storage: the next read re-settles."""
        self._dirty = True

    def _port(self, name: str) -> List[_Src]:
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        return srcs

    def _port_srcs(self, name: str) -> List[_Src]:
        """A port's plane sources, current for a read: the cone settles
        first when a bit of the port is in it."""
        if name in self._cone_ports:
            self._ensure_settled()
        return self._port(name)

    # ------------------------------------------------------------------
    # single-value API (GateSimulator-compatible; pattern 0)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        """Drive *value* on input *name*, broadcast to all patterns."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        value &= mask(len(nets))
        M = self._mask
        s1, sx, slot = self._s1_v, self._sx_v, self._slot
        for i, net in enumerate(nets):
            j = slot[net.uid]
            s1[j] = M if (value >> i) & 1 else 0
            sx[j] = 0
        self._dirty = True

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X allowed) on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != len(nets):
            raise GateSimError(
                f"input {name!r} is {len(nets)} bits, got {len(values)}")
        M = self._mask
        s1, sx = self._s1_v, self._sx_v
        for net, v in zip(nets, values):
            j = self._slot[net.uid]
            if v == L.L1:
                s1[j], sx[j] = M, 0
            elif v == L.L0:
                s1[j], sx[j] = 0, 0
            else:
                s1[j], sx[j] = 0, M
        self._dirty = True

    def get(self, name: str) -> int:
        """Read a port of pattern 0 as an integer (X/Z raise)."""
        return self.get_patterns(name)[0]

    def get_logic(self, name: str) -> List[int]:
        """Read a port of pattern 0 as raw logic values (LSB first)."""
        return self.get_logic_pattern(name, 0)

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """Pattern 0 of every bit of *names*, one gather per read (see
        :class:`~repro.engines.PortSampler`)."""
        views = (self._s1_v, self._sx_v, self._r1_v, self._rx_v)
        settle = (self._ensure_settled if self._cone_ports.intersection(names)
                  else lambda: None)

        def planes() -> tuple:
            settle()
            return views

        return plane_sampler(
            {name: [(a is self._s1_v, index)
                    for a, _, index in self._port(name)]
             for name in names}, planes, self.n_patterns)

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[int]:
        """Run *waveform* and sample *ports* after every tick, in one
        ``nat_replay`` call (see :mod:`repro.engines`): per tick, what
        ``port_sampler(ports).read()`` returns.  Writes broadcast to
        every pattern, as :meth:`set_input` does; the cone settles after
        an edge only when a sampled bit is in it."""
        srcs = [index << 1 | (a is not self._s1_v)
                for name in ports for a, _, index in self._port(name)]
        rows = write_rows(waveform, self._fields, self.set_input)
        ticks, nb = len(waveform), len(srcs)
        settle_after = int(any(k & 1 for k in srcs))
        mod = self.program.module
        out = mod.u8_buffer(ticks * nb)
        self._replay(self._s1, self._sx, self._r1, self._rx, self._mem,
                     self._mask, self.n_patterns, self._u64_arg(rows),
                     len(rows) // 3, ticks, self._u64_arg(srcs), nb,
                     settle_after, out)
        if ticks:
            self.cycles += ticks
            self._dirty = not settle_after
        if not nb:
            return [0] * ticks
        data = mod.u8_bytes(out)
        return [int.from_bytes(data[i:i + nb], "little")
                for i in range(0, ticks * nb, nb)]

    # ------------------------------------------------------------------
    # pattern-parallel API
    # ------------------------------------------------------------------
    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        """Drive one integer stimulus value per pattern on *name*.

        Values are taken modulo ``2**width`` (negative ones as two's
        complement).  The kernel transposes them into bitplanes: one
        ``nat_set_patterns`` call per 64 bits of port width.
        """
        chunks = self._inputs.get(name)
        if chunks is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != self.n_patterns:
            raise GateSimError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}")
        for lo, slots, width in chunks:
            self._set_patterns(self._s1, self._sx, slots, width,
                               self._words(values, lo), self.n_patterns)
        self._dirty = True

    def _words(self, values: Sequence[int], lo: int) -> object:
        """Bits ``lo..lo+63`` of every value as a ``uint64_t*``
        argument; the kernel ignores the bits past the port width."""
        if not lo:
            try:
                return self._u64_arg(values)
            except OverflowError:  # negative or >= 2**64: mask once
                pass
        return self._u64_arg([(v >> lo) & _WORD for v in values])

    def get_patterns(self, name: str) -> List[int]:
        """Read a port as one integer per pattern (X/Z raise)."""
        srcs = self._port_srcs(name)
        out = [0] * self.n_patterns
        for i, (a, x, index) in enumerate(srcs):
            ones, unk = a[index], x[index]
            if unk:
                p = (unk & -unk).bit_length() - 1
                raise GateSimError(
                    f"port {name!r} bit {i} is X in pattern {p}")
            while ones:
                p = (ones & -ones).bit_length() - 1
                out[p] |= 1 << i
                ones &= ones - 1
        return out

    def get_port_planes(self, name: str) -> Tuple[List[int], List[int]]:
        """Read a port as raw bitplanes: per bit, (ones, unknowns).

        Bit *p* of each returned plane belongs to pattern *p*.  This is
        the bulk-observation entry point of the fault-injection
        campaign: one call yields every pattern's view of the port with
        plain integer ops, X included, without the per-pattern decode
        of :meth:`get_patterns` / :meth:`get_logic_pattern`.
        """
        srcs = self._port_srcs(name)
        return ([a[i] for a, _, i in srcs], [x[i] for _, x, i in srcs])

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        check_pattern(pattern, self.n_patterns)
        srcs = self._port_srcs(name)
        bit = 1 << pattern
        out = []
        for a, x, index in srcs:
            if x[index] & bit:
                out.append(L.LX)
            elif a[index] & bit:
                out.append(L.L1)
            else:
                out.append(L.L0)
        return out

    def memory_model(self, name: str, pattern: int = 0):
        """The pattern-private view of memory *name*; the
        fault-injection campaign pokes it to model memory-cell SEUs
        without touching the other patterns."""
        views = self._mem_views.get(name)
        if views is None:
            raise GateSimError(f"no memory named {name!r}")
        check_pattern(pattern, self.n_patterns)
        return views[pattern]

    def privatize_memory(self, name: str, pattern: int):
        """No-op: memory storage is pattern-private already."""
        return self.memory_model(name, pattern)

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance clock edges: settle, flops, memories -- all in the
        kernel."""
        if cycles < 1:
            return
        self._run(self._s1, self._sx, self._r1, self._rx, self._mem,
                  self._mask, cycles, self.n_patterns, 0)
        self.cycles += cycles
        # settle lazily: the next read (or next step) re-settles the
        # cone once
        self._dirty = True

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        M = self._mask
        for q_slot, init in self._flop_slots:
            self._s1_v[q_slot] = M if init else 0
            self._sx_v[q_slot] = 0
        self._load_memories()
        self.cycles = 0
        self._dirty = True
        self._settle()

    # ------------------------------------------------------------------
    # interop / introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> List[int]:
        """Pattern-0 net values indexed by uid (interpreted-compat)."""
        self._ensure_settled()
        out = [L.LX] * len(self.netlist.nets)
        s1, sx, r1, rx = self._s1_v, self._sx_v, self._r1_v, self._rx_v
        for uid, slot in self._slot.items():
            out[uid] = L.LX if sx[slot] & 1 else s1[slot] & 1
        for uid, index in self._ridx.items():
            out[uid] = L.LX if rx[index] & 1 else r1[index] & 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")
