"""Native (C-source) parallel-pattern gate-level simulation.

Structurally this is :mod:`repro.gatesim.compiled` one tier down: the
same levelised walk emits the same two-bitplane dataflow -- every net
as ``(ones, unk)`` planes confined to the pattern mask ``M`` -- but as
C99 over ``uint64_t`` instead of Python bigints, compiled with the
host toolchain (:mod:`repro.native`) and driven through cffi/ctypes.
The whole clock edge lives in C: one ``nat_run`` call settles the
cone, samples flops (including the SDFF scan mux), performs memory
writes and commits, for any number of cycles.  That removes the
per-cycle Python bytecode walk entirely.

Memories are flat per-pattern ``uint64_t`` word arrays inside C
(pattern-major: every pattern owns its storage, so
``privatize_memory`` is a no-op view).  Semantics match
the behavioural :class:`~repro.gatesim.memory.MemoryModel` exactly:
X address bits turn a read all-X and drop a write; out-of-range reads
return 0 and writes are dropped; X data or X enable commits 0.

Artifacts are cached in the shared ``COMPILE_CACHE`` under the same
structural digest as the other engines, tagged ``backend="native"``,
and the underlying ``.so`` persists in the on-disk cache across
processes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import PortSampler
from ..native import NativeModule, compile_and_load
from ..synth.library import CODEGEN
from ..synth.netlist import CellInstance, MemoryMacro, Netlist
from .compiled import (COMPILE_CACHE, plane_sampler, state_layout,
                       structural_hash)
from .levelize import levelize
from .memory import PokeableMemory
from .simulator import GateSimError, check_pattern

__all__ = ["NativeGateProgram", "NativeGateSimulator",
           "compile_netlist_native"]

#: native planes are single machine words: one pattern per bit
WORD_PATTERNS = 64

#: settle-chunk budget (source lines per generated C function)
_CHUNK_LINES = 600

_CDEF = ("void nat_run(uint64_t* S1, uint64_t* SX, uint64_t* R1, "
         "uint64_t* RX, uint64_t* MEM, uint64_t M, long cycles, "
         "int NP, int settle_after);\n"
         "void nat_set_patterns(uint64_t* S1, uint64_t* SX, "
         "uint64_t* slots, int width, uint64_t* vals, int NP);")

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


@dataclass
class NativeGateProgram:
    """A loaded native settle/step kernel plus its layout tables."""

    source: str
    module: NativeModule
    run: Callable
    #: ``set_patterns(S1, SX, slots, width, vals, NP)``
    set_patterns: Callable
    state_uids: List[int]
    result_uids: List[int]
    #: (name, word offset within one pattern's bank, depth, width,
    #:  writable, initial contents) per memory macro
    mem_layout: List[Tuple[str, int, int, int, bool, Tuple[int, ...]]]
    #: words per pattern across all macros
    mem_words: int
    x_state_uids: List[int]
    structural_key: str


def _generate_c_source(netlist: Netlist):
    """Emit the C kernel; returns (source, layout tables)."""
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library

    for macro in netlist.memories:
        if macro.width > WORD_PATTERNS:
            raise GateSimError(
                f"native backend: memory {macro.name!r} width "
                f"{macro.width} exceeds the 64-bit storage word")
    state_uids, x_state_uids = state_layout(netlist, units)
    slot = {uid: i for i, uid in enumerate(state_uids)}

    # pattern-major memory image: MEM[p * MEM_WORDS + off + addr]
    mem_layout: List[Tuple[str, int, int, int, bool, Tuple[int, ...]]] = []
    off = 0
    for macro in netlist.memories:
        contents = tuple(v & mask(macro.width)
                         for v in (macro.contents or ()))
        mem_layout.append((macro.name, off, macro.depth, macro.width,
                           macro.writable, contents))
        off += macro.depth
    mem_words = off
    mem_off = {name: o for name, o, *_rest in mem_layout}
    mem_depth = {m.name: m.depth for m in netlist.memories}

    # results are assigned one index per produced net, in unit order
    result_uids: List[int] = []
    for unit in units:
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            for pin in lib[cell.cell_type].outputs:
                result_uids.append(cell.outputs[pin].uid)
        else:
            macro, port_index = unit.key
            for n in macro.read_ports[port_index].data:
                result_uids.append(n.uid)
    ridx = {uid: i for i, uid in enumerate(result_uids)}

    # the settle cone is split into chunks of a few hundred units so
    # the optimizer sees many small basic blocks instead of one huge
    # one (gcc/clang are superlinear there); chunk-crossing values
    # travel through the R1/RX result arrays
    lines: List[str] = ["#include <stdint.h>", ""]
    n_chunks = 0
    chunk_lines: List[str] = []
    declared: set = set()

    def open_chunk() -> None:
        nonlocal chunk_lines
        chunk_lines = [
            f"static void settle{n_chunks}(uint64_t *S1, uint64_t *SX,",
            "    uint64_t *R1, uint64_t *RX, uint64_t *MEM, uint64_t M,",
            "    int NP) {",
            "  (void)R1; (void)RX; (void)MEM; (void)M; (void)NP;",
        ]
        declared.clear()

    def close_chunk() -> None:
        nonlocal n_chunks
        chunk_lines.append("}")
        lines.extend(chunk_lines)
        lines.append("")
        n_chunks += 1

    def ref(uid: int) -> Tuple[str, str]:
        """Local names for a net's planes, loading them on first use."""
        if uid not in declared:
            declared.add(uid)
            s = slot.get(uid)
            if s is not None:
                chunk_lines.append(f"  uint64_t a{uid} = S1[{s}]; "
                                   f"uint64_t x{uid} = SX[{s}];")
            else:
                i = ridx[uid]
                chunk_lines.append(f"  uint64_t a{uid} = R1[{i}]; "
                                   f"uint64_t x{uid} = RX[{i}];")
        return f"a{uid}", f"x{uid}"

    open_chunk()
    for index, unit in enumerate(units):
        if len(chunk_lines) >= _CHUNK_LINES:
            close_chunk()
            open_chunk()
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            spec = lib[cell.cell_type]
            ins = [ref(cell.pins[pin].uid) for pin in spec.inputs]
            for pin in spec.outputs:
                uid = cell.outputs[pin].uid
                template = CODEGEN.get((cell.cell_type, pin))
                if template is None:
                    raise GateSimError(
                        f"no codegen template for cell "
                        f"{cell.cell_type!r} output {pin!r}")
                out = (f"a{uid}", f"x{uid}")
                # the templates emit SSA `name = expr` lines over
                # & | ^ ~ ( ) and M -- valid C once declared uint64_t
                for line in template(out, ins, f"t{index}_"):
                    name, expr = line.split(" = ", 1)
                    chunk_lines.append(f"  uint64_t {name} = {expr};")
                declared.add(uid)
                i = ridx[uid]
                chunk_lines.append(f"  R1[{i}] = a{uid}; "
                                   f"RX[{i}] = x{uid};")
        else:
            macro, port_index = unit.key
            rp = macro.read_ports[port_index]
            depth = mem_depth[macro.name]
            base = mem_off[macro.name]
            addr_refs = [ref(n.uid) for n in rp.addr]
            for n in rp.data:
                chunk_lines.append(f"  uint64_t a{n.uid} = 0; "
                                   f"uint64_t x{n.uid} = 0;")
                declared.add(n.uid)
            # per pattern: X on any address bit -> all-X data; in-range
            # -> unpack the stored word; out-of-range -> known 0.  The
            # enable is ignored for data, like MemoryModel.read.
            chunk_lines.append("  for (int p = 0; p < NP; p++) {")
            chunk_lines.append("    uint64_t bit = 1ULL << p;")
            chunk_lines.append("    int axf = 0; uint64_t addr = 0;")
            for i, (a_n, x_n) in enumerate(addr_refs):
                chunk_lines.append(f"    if ({x_n} & bit) axf = 1;")
                chunk_lines.append(f"    if ({a_n} & bit) "
                                   f"addr |= {1 << i}ULL;")
            chunk_lines.append("    if (axf) {")
            for n in rp.data:
                chunk_lines.append(f"      x{n.uid} |= bit;")
            chunk_lines.append(f"    }} else if (addr < {depth}ULL) {{")
            chunk_lines.append(f"      uint64_t w = MEM[(uint64_t)p * "
                               f"{mem_words}ULL + {base}ULL + addr];")
            for i, n in enumerate(rp.data):
                chunk_lines.append(f"      if (w & {1 << i}ULL) "
                                   f"a{n.uid} |= bit;")
            chunk_lines.append("    }")
            chunk_lines.append("  }")
            for n in rp.data:
                i = ridx[n.uid]
                chunk_lines.append(f"  R1[{i}] = a{n.uid}; "
                                   f"RX[{i}] = x{n.uid};")
    close_chunk()

    lines.append("static void settle(uint64_t *S1, uint64_t *SX, "
                 "uint64_t *R1,")
    lines.append("                   uint64_t *RX, uint64_t *MEM, "
                 "uint64_t M, int NP) {")
    for k in range(n_chunks):
        lines.append(f"  settle{k}(S1, SX, R1, RX, MEM, M, NP);")
    lines.append("}")
    lines.append("")

    def src(uid: int) -> Tuple[str, str]:
        s = slot.get(uid)
        if s is not None:
            return f"S1[{s}]", f"SX[{s}]"
        return f"R1[{ridx[uid]}]", f"RX[{ridx[uid]}]"

    lines.append("void nat_run(uint64_t *S1, uint64_t *SX, uint64_t *R1,")
    lines.append("             uint64_t *RX, uint64_t *MEM, uint64_t M,")
    lines.append("             long cycles, int NP, int settle_after) {")
    lines.append("  for (long c = 0; c < cycles; c++) {")
    lines.append("    settle(S1, SX, R1, RX, MEM, M, NP);")

    # sample flop inputs (post-settle, pre-commit planes)
    flops = netlist.flops()
    for k, flop in enumerate(flops):
        d1, dx = src(flop.pins["D"].uid)
        if flop.cell_type == "SDFF":
            e1, ex = src(flop.pins["SE"].uid)
            s1, sx = src(flop.pins["SI"].uid)
            lines.append(f"    uint64_t e1_{k} = {e1}, ex_{k} = {ex};")
            lines.append(f"    uint64_t e0_{k} = M & ~(e1_{k} | ex_{k});")
            lines.append(f"    uint64_t nd_{k} = (e1_{k} & {s1}) | "
                         f"(e0_{k} & {d1});")
            lines.append(f"    uint64_t nx_{k} = (e1_{k} & {sx}) | "
                         f"(e0_{k} & {dx}) | ex_{k};")
        else:
            lines.append(f"    uint64_t nd_{k} = {d1};")
            lines.append(f"    uint64_t nx_{k} = {dx};")

    # memory writes (pre-commit planes; per pattern, pattern-private)
    for macro in netlist.memories:
        depth = mem_depth[macro.name]
        base = mem_off[macro.name]
        for wp in macro.write_ports:
            e1, ex = src(wp.enable.uid)
            lines.append("    {")
            lines.append(f"      uint64_t we1 = {e1}, wex = {ex};")
            lines.append("      uint64_t act = (we1 | wex) & M;")
            lines.append("      if (act) for (int p = 0; p < NP; p++) {")
            lines.append("        uint64_t bit = 1ULL << p;")
            lines.append("        if (!(act & bit)) continue;")
            lines.append("        int axf = 0; uint64_t addr = 0;")
            for i, n in enumerate(wp.addr):
                a1, ax = src(n.uid)
                lines.append(f"        if ({ax} & bit) axf = 1;")
                lines.append(f"        if ({a1} & bit) "
                             f"addr |= {1 << i}ULL;")
            lines.append(f"        if (axf || addr >= {depth}ULL) "
                         "continue;")
            lines.append("        int dxf = 0; uint64_t data = 0;")
            for i, n in enumerate(wp.data):
                d1, dx = src(n.uid)
                lines.append(f"        if ({dx} & bit) dxf = 1;")
                lines.append(f"        if ({d1} & bit) "
                             f"data |= {1 << i}ULL;")
            # X data or X enable commits 0, like the compiled engine
            lines.append("        if (dxf || (wex & bit)) data = 0;")
            lines.append(f"        MEM[(uint64_t)p * {mem_words}ULL + "
                         f"{base}ULL + addr] = data;")
            lines.append("      }")
            lines.append("    }")

    # commit flops
    for k, flop in enumerate(flops):
        q_slot = slot[flop.outputs["Q"].uid]
        lines.append(f"    S1[{q_slot}] = nd_{k}; "
                     f"SX[{q_slot}] = nx_{k};")
    lines.append("  }")
    lines.append("  if (settle_after) "
                 "settle(S1, SX, R1, RX, MEM, M, NP);")
    lines.append("}")
    lines.append("")
    lines.append(_SET_PATTERNS_C)
    source = "\n".join(lines)
    return (source, state_uids, result_uids, mem_layout, mem_words,
            x_state_uids)


def compile_netlist_native(netlist: Netlist,
                           cache: Optional[CompileCache] = None,
                           run_cycles: Optional[int] = None
                           ) -> NativeGateProgram:
    """Compile *netlist* to a loaded C kernel, via both cache layers.

    The in-process :data:`~repro.gatesim.compiled.COMPILE_CACHE` keeps
    the loaded module under the shared structural digest tagged
    ``backend="native"``; the ``.so`` itself persists in the on-disk
    cache (:func:`repro.native.build_shared_object`), so a fresh
    process re-links in milliseconds instead of recompiling.

    *run_cycles*, when the caller knows how long it will run, picks
    the build flags (:func:`repro.native.build_cflags`).  The
    in-process key stays the structural hash, so a later long run of
    the same netlist in this process would reuse a short run's ``-O0``
    program; no caller does that today (FI overlays run once).
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> NativeGateProgram:
        (source, state_uids, result_uids, mem_layout, mem_words,
         x_state_uids) = _generate_c_source(netlist)
        module = compile_and_load(source, _CDEF, tag="gate",
                                  run_cycles=run_cycles)
        return NativeGateProgram(
            source=source,
            module=module,
            run=module.fn("nat_run"),
            set_patterns=module.fn("nat_set_patterns"),
            state_uids=state_uids,
            result_uids=result_uids,
            mem_layout=mem_layout,
            mem_words=mem_words,
            x_state_uids=x_state_uids,
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend="native")


# ----------------------------------------------------------------------
# memory views
# ----------------------------------------------------------------------
class _NativeMemoryView(PokeableMemory):
    """One pattern's window into the flat native memory image.

    Mirrors the :class:`~repro.gatesim.memory.MemoryModel` surface the
    fault-injection campaign touches (``flip_bit`` / ``peek`` /
    ``read`` / ``write`` / ``reset``).  Storage is pattern-private by
    construction, so no un-aliasing step is ever needed.
    """

    def __init__(self, sim: "NativeGateSimulator", name: str, base: int,
                 depth: int, width: int, writable: bool,
                 contents: Tuple[int, ...]):
        self._sim = sim
        self.name = name
        self._base = base
        self.depth = depth
        self.width = width
        self.writable = writable
        self._image = (array("Q", contents) if contents
                       else array("Q", bytes(8 * depth)))
        self.on_change = sim._unsettle

    def _flip(self, address: int, bits: int) -> None:
        self._sim._mem_v[self._base + address] ^= bits

    def peek(self) -> List[int]:
        return self._sim._mem_v[self._base:self._base + self.depth].tolist()

    def read(self, address: Optional[int], enabled: bool = True,
             cycle: int = 0) -> List[int]:
        if address is None:
            return [L.LX] * self.width
        if not 0 <= address < self.depth:
            return [L.L0] * self.width
        value = self._sim._mem_v[self._base + address]
        return [(value >> i) & 1 for i in range(self.width)]

    def write(self, address: Optional[int], value: int,
              cycle: int = 0) -> None:
        if not self.writable:
            raise ValueError(f"{self.name} is a ROM")
        if address is None or not 0 <= address < self.depth:
            return
        self._sim._mem_v[self._base + address] = value & mask(self.width)
        self._changed()

    def reset(self) -> None:
        self._sim._mem_v[self._base:self._base + self.depth] = self._image


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
#: a plane source: (ones view, unknowns view, index into both)
_Src = Tuple[memoryview, memoryview, int]

#: one 64-bit machine word
_WORD = (1 << WORD_PATTERNS) - 1


class NativeGateSimulator:
    """Parallel-pattern gate simulator over a native C kernel.

    API-identical to
    :class:`~repro.gatesim.compiled.CompiledGateSimulator` (whose
    docstring describes the pattern-parallel surface); the pattern
    count is capped at 64 -- one machine word -- which covers the
    fault-injection batch width and the throughput rows.  The compiled
    engine has no pattern cap.

    ``set_input_patterns`` hands the values to the kernel's
    ``nat_set_patterns`` in one call per 64 port bits, which transposes
    them into bitplanes in C; every other Python-side access to the
    kernel's state goes through memoryviews of its buffers.

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
                "checking memories are not supported by the native "
                "backend; use interpreted or compiled")
        if n_patterns < 1:
            raise GateSimError(f"n_patterns must be >= 1, got {n_patterns}")
        if n_patterns > WORD_PATTERNS:
            raise GateSimError(
                f"native backend packs patterns into one 64-bit word; "
                f"got n_patterns={n_patterns} (use backend=\"compiled\")")
        netlist.validate()
        self.netlist = netlist
        self.n_patterns = n_patterns
        self.cycles = 0
        self._mask = mask(n_patterns)
        self.program = compile_netlist_native(netlist, cache=cache,
                                              run_cycles=run_cycles)
        mod = self.program.module
        self._u64_arg = mod.u64_arg
        self._run = self.program.run
        self._set_patterns = self.program.set_patterns

        self._slot = {uid: i for i, uid in
                      enumerate(self.program.state_uids)}
        self._ridx = {uid: i for i, uid in
                      enumerate(self.program.result_uids)}

        # machine buffers shared with the kernel, and the memoryviews
        # Python reads and writes them through (raw FFI element access
        # is ~4x slower, see NativeModule.u64_view)
        self._s1 = mod.u64_buffer(len(self.program.state_uids))
        self._sx = mod.u64_buffer(len(self.program.state_uids))
        self._r1 = mod.u64_buffer(len(self.program.result_uids))
        self._rx = mod.u64_buffer(len(self.program.result_uids))
        self._mem = mod.u64_buffer(
            max(1, self.program.mem_words * n_patterns))
        self._s1_v, self._sx_v, self._r1_v, self._rx_v, self._mem_v = (
            mod.u64_view(buf) for buf in
            (self._s1, self._sx, self._r1, self._rx, self._mem))

        self._s1_v[self._slot[netlist.const1.uid]] = self._mask
        for uid in self.program.x_state_uids:
            self._sx_v[self._slot[uid]] = self._mask

        # pattern-private memory views
        self.memories: Dict[str, _NativeMemoryView] = {}
        self._mem_views: Dict[str, List[_NativeMemoryView]] = {}
        for name, off, depth, width, writable, contents in \
                self.program.mem_layout:
            views = [
                _NativeMemoryView(
                    self, name, p * self.program.mem_words + off,
                    depth, width, writable, contents)
                for p in range(n_patterns)
            ]
            self._mem_views[name] = views
            self.memories[name] = views[0]
            for view in views:
                view.reset()

        # flop init states
        self._flops: List[CellInstance] = netlist.flops()
        self._flop_slots: List[Tuple[int, int]] = []
        for flop in self._flops:
            q_slot = self._slot[flop.outputs["Q"].uid]
            init = flop.init & 1
            self._flop_slots.append((q_slot, init))
            self._s1_v[q_slot] = self._mask if init else 0

        # per input: (bit offset, slot table, bits) per 64-bit chunk,
        # the arguments of one nat_set_patterns call each
        self._inputs: Dict[str, List[Tuple[int, object, int]]] = {}
        for name, nets in netlist.inputs.items():
            slots = [self._slot[n.uid] for n in nets]
            chunks = [slots[lo:lo + WORD_PATTERNS]
                      for lo in range(0, len(slots), WORD_PATTERNS)]
            self._inputs[name] = [
                (k * WORD_PATTERNS, mod.u64_buffer(chunk), len(chunk))
                for k, chunk in enumerate(chunks)]

        # port lookup tables (outputs shadow inputs, like interpreted)
        self._ports: Dict[str, List[_Src]] = {}
        for name, nets in list(netlist.outputs.items()) + \
                list(netlist.inputs.items()):
            self._ports.setdefault(
                name, [self._src(n.uid) for n in nets])

        self._dirty = True
        self._settle()

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

    def _ensure_settled(self) -> None:
        if self._dirty:
            self._settle()

    def _unsettle(self) -> None:
        """A memory poke changed storage: the next read re-settles."""
        self._dirty = True

    def _port_srcs(self, name: str) -> List[_Src]:
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        return srcs

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

        def planes() -> tuple:
            self._ensure_settled()
            return views

        return plane_sampler(
            {name: [(a is self._s1_v, index)
                    for a, _, index in self._port_srcs(name)]
             for name in names}, planes, self.n_patterns)

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
        """Read a port as raw bitplanes: per bit, (ones, unknowns)."""
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
        """The pattern-private view of memory *name*."""
        views = self._mem_views.get(name)
        if views is None:
            raise GateSimError(f"no memory named {name!r}")
        check_pattern(pattern, self.n_patterns)
        return views[pattern]

    def privatize_memory(self, name: str, pattern: int):
        """No-op: native memory storage is pattern-private already."""
        return self.memory_model(name, pattern)

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance clock edges: settle, flops, memories -- all in C."""
        if cycles < 1:
            return
        self._run(self._s1, self._sx, self._r1, self._rx, self._mem,
                  self._mask, cycles, self.n_patterns, 0)
        self.cycles += cycles
        # settle lazily, exactly like the compiled engine: the next
        # read (or next step) re-settles the cone once
        self._dirty = True

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        M = self._mask
        for q_slot, init in self._flop_slots:
            self._s1_v[q_slot] = M if init else 0
            self._sx_v[q_slot] = 0
        for views in self._mem_views.values():
            for view in views:
                view.reset()
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
        return (f"NativeGateSimulator({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")
