"""Native parallel-pattern gate-level simulation on one fixed C kernel,
and the host of both generated-code gate engines.

The gate level's walk (:mod:`repro.gatesim.emit`) turns a netlist into
an ``int32`` op table.  This module's kernel (:data:`KERNEL_SOURCE`) is
one C99 file over ``uint64_t`` bitplanes -- every net as ``(ones,
unk)`` planes confined to the pattern mask ``M`` -- printed once from
the cells' ``CODEGEN`` templates: one ``switch`` case per template, a
memory-read op, the SDFF sample and the memory write.  Its ``nat_run``
walks any netlist's table: it settles the cone, samples flops,
performs memory writes and commits, for any number of cycles, so no
Python bytecode runs per cycle.  It is built by the host toolchain
(:mod:`repro.native`) once per ``.so`` cache, shared by every netlist
and FI overlay, and driven through cffi/ctypes; a netlist costs its
walk, not a ``cc`` run.  The C trusts the table, so
:func:`check_table` bounds-checks every table before its first call.

:class:`NativeGateSimulator` is the one gate host: the pattern-parallel
public surface over the kernel's buffers.  The compiled engine
(:class:`~repro.gatesim.compiled.CompiledGateSimulator`) is this class
over the same table printed as Python, with lists for buffers.

Memories are one flat pattern-major word image (every pattern owns its
storage, so ``privatize_memory`` is a no-op view).  Semantics match
the behavioural :class:`~repro.gatesim.memory.MemoryModel` exactly:
X address bits turn a read all-X and drop a write; out-of-range reads
return 0 and writes are dropped; X data or X enable commits 0.
Address-checking memories run on the interpreted engine only.

Programs are cached in the shared ``COMPILE_CACHE`` under the
structural digest, tagged ``backend="native"``; the kernel's ``.so``
persists in the on-disk cache across processes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import ENGINES, PortSampler, gather, write_rows
from ..native import compile_and_load
from ..synth.library import CODEGEN
from ..synth.netlist import Netlist
from .emit import (CELL_OPS, CELL_ROW, COMPILE_CACHE, HEADER, OP_READ,
                   OP_SDFF, OP_WRITE, GateProgram, emit_program,
                   structural_hash, table_ops)
from .memory import PokeableMemory
from .simulator import GateSimError, check_pattern, logic_drive

__all__ = ["KERNEL_SOURCE", "NativeGateSimulator", "check_table",
           "compile_netlist_native"]

#: bits of one ``uint64_t`` value word: the 64-bit slices in which
#: ``set_input_patterns`` hands port values to the kernel, and the
#: widest memory word and address the kernel holds
_WORD_BITS = 64

_CDEF = ("void nat_run(int32_t* T, uint64_t* V1, uint64_t* VX, "
         "uint64_t* MEM, uint64_t M, long cycles, int NP, "
         "int settle_after);\n"
         "void nat_set_patterns(uint64_t* V1, uint64_t* VX, "
         "uint64_t* slots, int width, uint64_t* vals, int NP);\n"
         "void nat_replay(int32_t* T, uint64_t* V1, uint64_t* VX, "
         "uint64_t* MEM, uint64_t M, int NP, uint64_t* W, long NW, "
         "long ticks, uint64_t* SRC, int NB, int settle_after, "
         "uint8_t* OUT);")

#: the kernel around its cell cases.  ``walk`` runs the ops of
#: ``[op, end)``; its memory ports follow the walk's rules (an X
#: address bit makes a read X and drops a write, an out-of-range read
#: returns 0 and an out-of-range write is dropped, X data or an X
#: enable writes 0), and each gathers every pattern's address (and a
#: write its data) in one pass per bit, and a read scatters the words
#: into its data planes in one pass per bit.  ``nat_set_patterns``,
#: which takes no table, transposes NP per-pattern values into
#: ``width`` (<= 64) input bitplanes: bit i of vals[p] lands in bit p
#: of plane V1[slots[i]].
_KERNEL_C = """\
#include <stdint.h>

typedef uint64_t u64;

static void gather(u64 *lanes, const u64 *plane, int k, int NP) {
  for (int p = 0; p < NP; p++) lanes[p] |= (*plane >> p & 1) << k;
}

static const int32_t *mem_read(const int32_t *r, u64 *V1, u64 *VX,
                               const u64 *MEM, int NP, u64 words) {
  u64 depth = (u64)r[0], off = (u64)r[1], addr[64] = {0}, w[64], xa = 0;
  int na = r[2], nd = r[3];
  const int32_t *ad = r + 4, *dt = ad + na;
  for (int k = 0; k < na; k++) {
    gather(addr, &V1[ad[k]], k, NP);
    xa |= VX[ad[k]];
  }
  for (int p = 0; p < NP; p++)
    w[p] = (xa >> p & 1) || addr[p] >= depth
        ? 0 : MEM[(u64)p * words + off + addr[p]];
  for (int k = 0; k < nd; k++) {
    u64 plane = 0;
    for (int p = 0; p < NP; p++) plane |= (w[p] >> k & 1) << p;
    V1[dt[k]] = plane;
    VX[dt[k]] = xa;
  }
  return dt + nd;
}

static const int32_t *mem_write(const int32_t *r, const u64 *V1,
                                const u64 *VX, u64 *MEM, u64 M, int NP,
                                u64 words) {
  u64 depth = (u64)r[0], off = (u64)r[1];
  int na = r[2], nd = r[3];
  const int32_t *ad = r + 5, *dt = ad + na;
  u64 wex = VX[r[4]], act = (V1[r[4]] | wex) & M;
  if (act) {
    u64 addr[64] = {0}, data[64] = {0}, xa = 0, zero = wex;
    for (int k = 0; k < na; k++) {
      gather(addr, &V1[ad[k]], k, NP);
      xa |= VX[ad[k]];
    }
    for (int k = 0; k < nd; k++) {
      gather(data, &V1[dt[k]], k, NP);
      zero |= VX[dt[k]];
    }
    u64 live = act & ~xa;
    for (int p = 0; p < NP; p++)
      if ((live >> p & 1) && addr[p] < depth)
        MEM[(u64)p * words + off + addr[p]] = zero >> p & 1 ? 0 : data[p];
  }
  return dt + nd;
}

static void walk(const int32_t *op, const int32_t *end, u64 *restrict V1,
                 u64 *restrict VX, u64 *restrict MEM, u64 M, int NP,
                 u64 words) {
  while (op < end) {
    int n = op[1];
    const int32_t *r = op + 2;
    switch (op[0]) {
%(cells)s
    case %(read)d: /* memory read port */
      for (; n > 0; n--) r = mem_read(r, V1, VX, MEM, NP, words);
      break;
    case %(sdff)d: /* scan flop sample: SI when SE, else D */
      for (; n > 0; n--, r += 4) {
        u64 e1 = V1[r[3]], ex = VX[r[3]], e0 = M & ~(e1 | ex);
        u64 n1 = (e1 & V1[r[2]]) | (e0 & V1[r[1]]);
        u64 nx = (e1 & VX[r[2]]) | (e0 & VX[r[1]]) | ex;
        V1[r[0]] = n1; VX[r[0]] = nx;
      }
      break;
    case %(write)d: /* memory write port */
      for (; n > 0; n--) r = mem_write(r, V1, VX, MEM, M, NP, words);
      break;
    }
    op = r;
  }
}

void nat_run(const int32_t *T, u64 *V1, u64 *VX, u64 *MEM, u64 M,
             long cycles, int NP, int settle_after) {
  const int32_t *settle = T + %(header)d, *edge = T + T[1], *end = T + T[2];
  u64 words = (u64)T[0];
  for (long c = 0; c < cycles; c++) {
    walk(settle, edge, V1, VX, MEM, M, NP, words);
    walk(edge, end, V1, VX, MEM, M, NP, words);
  }
  if (settle_after) walk(settle, edge, V1, VX, MEM, M, NP, words);
}

void nat_set_patterns(u64 *V1, u64 *VX, u64 *slots, int width, u64 *vals,
                      int NP) {
  for (int i = 0; i < width; i++) {
    u64 plane = 0;
    for (int p = 0; p < NP; p++) plane |= ((vals[p] >> i) & 1ULL) << p;
    V1[slots[i]] = plane;
    VX[slots[i]] = 0;
  }
}

void nat_replay(const int32_t *T, u64 *V1, u64 *VX, u64 *MEM, u64 M,
                int NP, u64 *W, long NW, long ticks, u64 *SRC, int NB,
                int settle_after, uint8_t *OUT) {
  long w = 0;
  for (long t = 0; t < ticks; t++) {
    for (; w < NW && W[3 * w] == (u64)t; w++) {
      V1[W[3 * w + 1]] = W[3 * w + 2] ? M : 0;
      VX[W[3 * w + 1]] = 0;
    }
    nat_run(T, V1, VX, MEM, M, 1, NP, settle_after);
    for (int k = 0; k < NB; k++)
      OUT[t * NB + k] = (uint8_t)((V1[SRC[k]] & 1) | (VX[SRC[k]] & 1) << 1);
  }
}
"""


def _cell_case(op: int) -> List[str]:
    """The ``switch`` case of cell op *op*: its template over each row."""
    cell, pin = CELL_OPS[op]
    ins = [(f"a{j}", f"x{j}") for j in range(CELL_ROW[op] - 1)]
    loads = ", ".join(f"{a} = V1[r[{j + 1}]], {x} = VX[r[{j + 1}]]"
                      for j, (a, x) in enumerate(ins))
    body = [f"u64 {loads};"]
    body += [f"u64 {line};"
             for line in CODEGEN[(cell, pin)](("o1", "ox"), ins, "t_")]
    body.append("V1[r[0]] = o1; VX[r[0]] = ox;")
    return ([f"    case {op}: /* {cell}.{pin} */",
             f"      for (; n > 0; n--, r += {CELL_ROW[op]}) {{"]
            + [f"        {line}" for line in body] + ["      }", "      break;"])


#: the one gate kernel, for every netlist
KERNEL_SOURCE = _KERNEL_C % {
    "cells": "\n".join(line for op in range(len(CELL_OPS))
                       for line in _cell_case(op)),
    "read": OP_READ, "sdff": OP_SDFF, "write": OP_WRITE, "header": HEADER}


def check_table(program: GateProgram) -> None:
    """Raise :class:`GateSimError` unless the C kernel may run
    *program*'s table: the header matches the layout, the ops tile the
    settle and the edge, every opcode is a kernel case, every operand
    lies inside the value arrays, and every memory row lies inside one
    pattern's image (so inside ``mem_words * n_patterns``) with at most
    64 address and data bits.  The kernel trusts the table; this is the
    check before its first call."""
    for name, _, _, width, _, _ in program.mem_layout:
        if width > _WORD_BITS:
            raise GateSimError(
                f"memory {name!r} width {width} exceeds the 64-bit "
                f"storage word of the native backend")
    table, n = program.table, program.n_values
    if len(table) < HEADER or table[0] != program.mem_words or not \
            HEADER <= table[1] <= table[2] == len(table):
        raise GateSimError(f"table header {list(table[:HEADER])} does "
                           f"not frame a {len(table)}-word table over "
                           f"{program.mem_words} memory words")
    for lo, hi in ((HEADER, table[1]), (table[1], table[2])):
        for op, rows in table_ops(table, lo, hi):
            for row in rows:
                operands = row
                if op in (OP_READ, OP_WRITE):
                    depth, off, na, nd = row[:4]
                    if not (0 <= off and 0 <= depth
                            and off + depth <= program.mem_words
                            and na <= _WORD_BITS and nd <= _WORD_BITS):
                        raise GateSimError(
                            f"memory row {list(row[:4])} exceeds "
                            f"{program.mem_words} words of 64 bits")
                    operands = row[4:]
                if not all(0 <= i < n for i in operands):
                    raise GateSimError(
                        f"op {op} row {list(row)} indexes outside "
                        f"{n} values")


def compile_netlist_native(netlist: Netlist,
                           cache: Optional[CompileCache] = None
                           ) -> GateProgram:
    """*netlist*'s program on the C kernel, via both cache layers.

    The walk (:func:`~repro.gatesim.emit.emit_program`) makes the
    table, :func:`check_table` checks it, and the in-process
    :data:`~repro.gatesim.emit.COMPILE_CACHE` keeps the program under
    the shared structural digest tagged ``backend="native"``.  The
    kernel is the same for every netlist: its ``.so`` persists in the
    on-disk cache (:func:`repro.native.build_shared_object`), so only
    the first program of an empty cache runs ``cc``.
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> GateProgram:
        program = emit_program(netlist)
        check_table(program)
        module = compile_and_load(KERNEL_SOURCE, _CDEF, tag="gate")
        return replace(program, module=module, structural_key=key)

    return cache.get_or_compile(key, factory, backend="native")


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
def plane_sampler(ports: Dict[str, List[int]],
                  planes: Callable[[], tuple],
                  n_patterns: int) -> PortSampler:
    """A port sampler over two-bitplane storage.

    *ports* gives each port bit's value index; *planes()* settles the
    engine and returns its ``(V1, VX)`` planes.  Each read gathers every
    bit's ones and unknowns (one ``itemgetter`` call per plane) and
    packs pattern 0 as one 4-valued code per byte (``ones | unk << 1``:
    the engines hold Z as X).
    """
    take = gather([i for bits in ports.values() for i in bits])

    def pack(plane) -> int:
        words = take(plane)
        if n_patterns > 1:
            words = map((1).__and__, words)
        return int.from_bytes(bytes(words), "little")

    def read() -> int:
        v1, vx = planes()
        return pack(v1) | pack(vx) << 1

    return PortSampler(read, {name: len(bits)
                              for name, bits in ports.items()})


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
#: one value word
_WORD = (1 << _WORD_BITS) - 1


class NativeGateSimulator:
    """Parallel-pattern gate-level simulator over a gate program.

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
    Subclasses change only how the program loads (:meth:`_compile`).
    """

    backend = "native"
    #: an FI campaign runs every batch on one saboteur program that
    #: holds its whole faultload (:func:`repro.fi.campaign.shared_program`):
    #: the table costs a walk, not a build, per program
    union_program = True

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None):
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
        self.program = self._compile(netlist, cache)
        prog = self.program
        mod = prog.module
        self._u64_arg = mod.u64_arg
        self._run = mod.fn("nat_run")
        self._set_patterns = mod.fn("nat_set_patterns")
        self._replay = mod.fn("nat_replay")
        self._table = mod.i32_arg(prog.table)

        # every net's value index: its state slot, or n_state + its
        # result index
        self._n_state = len(prog.state_uids)
        self._index = {uid: i for i, uid in enumerate(prog.state_uids)}
        self._index.update((uid, self._n_state + i)
                           for i, uid in enumerate(prog.result_uids))

        # the kernel's buffers, and the views Python reads and writes
        # them through (raw FFI element access is ~4x slower, see
        # NativeModule.u64_view)
        self._v1 = mod.u64_buffer(prog.n_values)
        self._vx = mod.u64_buffer(prog.n_values)
        self._mem = mod.u64_buffer(max(1, prog.mem_words * n_patterns))
        self._v1_v, self._vx_v, self._mem_v = (
            mod.u64_view(buf) for buf in (self._v1, self._vx, self._mem))

        self._v1_v[self._index[netlist.const1.uid]] = self._mask
        for uid in prog.x_state_uids:
            self._vx_v[self._index[uid]] = self._mask

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
            q_slot = self._index[flop.outputs["Q"].uid]
            init = flop.init & 1
            self._flop_slots.append((q_slot, init))
            self._v1_v[q_slot] = self._mask if init else 0

        # per input: (bit offset, slot table, bits) per 64-bit chunk,
        # the arguments of one nat_set_patterns call each, and its bits'
        # fields for nat_replay's write rows
        self._inputs: Dict[str, List[Tuple[int, object, int]]] = {}
        self._fields: Dict[str, List[Tuple[int, int, int]]] = {}
        for name, nets in netlist.inputs.items():
            slots = [self._index[n.uid] for n in nets]
            self._fields[name] = [(j, i, 1) for i, j in enumerate(slots)]
            chunks = [slots[lo:lo + _WORD_BITS]
                      for lo in range(0, len(slots), _WORD_BITS)]
            self._inputs[name] = [
                (k * _WORD_BITS, mod.u64_buffer(chunk), len(chunk))
                for k, chunk in enumerate(chunks)]

        # every port's value indices (outputs shadow inputs, like
        # interpreted), and the ports with a bit in the cone: reads of
        # those settle
        self._ports: Dict[str, List[int]] = {}
        for name, nets in list(netlist.outputs.items()) + \
                list(netlist.inputs.items()):
            self._ports.setdefault(name, [self._index[n.uid] for n in nets])
        self._cone_ports = {name for name, bits in self._ports.items()
                            if any(i >= self._n_state for i in bits)}

        self._dirty = True
        self._settle()

    def _compile(self, netlist: Netlist,
                 cache: Optional[CompileCache]) -> GateProgram:
        """The loaded program of *netlist*: its table on the C kernel."""
        return compile_netlist_native(netlist, cache=cache)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        self._run(self._table, self._v1, self._vx, self._mem, self._mask,
                  0, self.n_patterns, 1)
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

    def _port(self, name: str) -> List[int]:
        bits = self._ports.get(name)
        if bits is None:
            raise GateSimError(f"no port named {name!r}")
        return bits

    def _port_bits(self, name: str) -> List[int]:
        """A port's value indices, current for a read: the cone settles
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
        v1, vx, index = self._v1_v, self._vx_v, self._index
        for i, net in enumerate(nets):
            j = index[net.uid]
            v1[j] = M if (value >> i) & 1 else 0
            vx[j] = 0
        self._dirty = True

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X and Z allowed, Z stored
        as X) on *name*; a code outside L0..LZ raises
        :class:`GateSimError`."""
        nets = logic_drive(self.netlist, name, values)
        M = self._mask
        v1, vx = self._v1_v, self._vx_v
        for net, v in zip(nets, values):
            j = self._index[net.uid]
            if v == L.L1:
                v1[j], vx[j] = M, 0
            elif v == L.L0:
                v1[j], vx[j] = 0, 0
            else:
                v1[j], vx[j] = 0, M
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
        views = (self._v1_v, self._vx_v)
        settle = (self._ensure_settled if self._cone_ports.intersection(names)
                  else lambda: None)

        def planes() -> tuple:
            settle()
            return views

        return plane_sampler({name: self._port(name) for name in names},
                             planes, self.n_patterns)

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[int]:
        """Run *waveform* and sample *ports* after every tick, in one
        ``nat_replay`` call (see :mod:`repro.engines`): per tick, what
        ``port_sampler(ports).read()`` returns.  Writes broadcast to
        every pattern, as :meth:`set_input` does; the cone settles after
        an edge only when a sampled bit is in it."""
        srcs = [i for name in ports for i in self._port(name)]
        rows = write_rows(waveform, self._fields, self.set_input)
        ticks, nb = len(waveform), len(srcs)
        settle_after = int(any(i >= self._n_state for i in srcs))
        mod = self.program.module
        out = mod.u8_buffer(ticks * nb)
        self._replay(self._table, self._v1, self._vx, self._mem,
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
            self._set_patterns(self._v1, self._vx, slots, width,
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
        bits = self._port_bits(name)
        v1, vx = self._v1_v, self._vx_v
        out = [0] * self.n_patterns
        for i, index in enumerate(bits):
            ones, unk = v1[index], vx[index]
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
        bits = self._port_bits(name)
        v1, vx = self._v1_v, self._vx_v
        return [v1[i] for i in bits], [vx[i] for i in bits]

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        check_pattern(pattern, self.n_patterns)
        bits = self._port_bits(name)
        v1, vx = self._v1_v, self._vx_v
        bit = 1 << pattern
        out = []
        for index in bits:
            if vx[index] & bit:
                out.append(L.LX)
            elif v1[index] & bit:
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
        self._run(self._table, self._v1, self._vx, self._mem, self._mask,
                  cycles, self.n_patterns, 0)
        self.cycles += cycles
        # settle lazily: the next read (or next step) re-settles the
        # cone once
        self._dirty = True

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        M = self._mask
        for q_slot, init in self._flop_slots:
            self._v1_v[q_slot] = M if init else 0
            self._vx_v[q_slot] = 0
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
        v1, vx = self._v1_v, self._vx_v
        for uid, index in self._index.items():
            out[uid] = L.LX if vx[index] & 1 else v1[index] & 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")
