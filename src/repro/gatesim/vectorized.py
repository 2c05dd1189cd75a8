"""Vectorized wide-word gate-level simulation (numpy uint64 bitplanes).

The compiled backend (:mod:`repro.gatesim.compiled`) packs patterns
into Python integers; throughput is excellent up to roughly one machine
word of patterns, after which every bitwise op pays the bignum tax one
limb at a time inside the interpreter loop.  This backend executes the
**same generated settle source** over numpy ``uint64`` arrays instead:

* every net is two bitplanes ``(ones, unk)``, each an ndarray of shape
  ``(n_words,)`` with ``n_words = ceil(n_patterns / 64)``; bit *p* of
  the flattened plane belongs to stimulus pattern *p*;
* the pattern mask ``M`` is an ndarray too (the tail word is partial),
  so the emitted code from :func:`~repro.gatesim.compiled._generate_source`
  runs unchanged -- the cell templates are pure ``& | ^ ~`` over
  confined planes;
* memory read ports are evaluated whole-faultload at once: address
  planes are transposed to per-pattern addresses with ``unpackbits``,
  the data is gathered from pattern-major storage in one indexing op,
  and the result is repacked with ``packbits``.

Programs are cached in the shared :data:`~repro.gatesim.compiled.COMPILE_CACHE`
under the ``"vectorized"`` backend tag, so compiled and vectorized
artifacts of one structural digest never collide.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import PortSampler
from ..synth.netlist import CellInstance, MemoryMacro, Netlist
from .compiled import COMPILE_CACHE, CompileCache, compile_netlist
from .memory import PokeableMemory
from .simulator import GateSimError, check_pattern

__all__ = ["VectorizedGateSimulator"]

_U64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: a plane source: (True, state_slot) or (False, result_index)
_Src = Tuple[bool, int]


def _unpack(plane: np.ndarray, n_patterns: int) -> np.ndarray:
    """Plane -> one 0/1 byte per pattern (LSB-first within the plane)."""
    return np.unpackbits(plane.view(np.uint8), count=n_patterns,
                         bitorder="little")


def _pack(bits: np.ndarray, n_words: int) -> np.ndarray:
    """One 0/1 value per pattern -> a (n_words,) uint64 plane."""
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(n_words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(np.uint64)


def _plane_to_int(plane: np.ndarray) -> int:
    return int.from_bytes(plane.tobytes(), "little")


def _int_to_plane(value: int, n_words: int) -> np.ndarray:
    data = value.to_bytes(n_words * 8, "little")
    return np.frombuffer(data, dtype=np.uint64).copy()


class _VecMemory:
    """Pattern-major vectorized storage of one memory macro.

    Cells hold known 0/1 words only (matching
    :class:`~repro.gatesim.memory.MemoryModel`); unknownness enters a
    read solely through X address bits, never through storage.
    """

    def __init__(self, macro: MemoryMacro, n_patterns: int):
        self.name = macro.name
        self.depth = macro.depth
        self.width = macro.width
        self.writable = macro.writable
        self._contents = macro.contents
        self._n_patterns = n_patterns
        self.data = self._fresh()

    def _fresh(self) -> np.ndarray:
        if self._contents is not None:
            m = mask(self.width)
            row = np.array([v & m for v in self._contents],
                           dtype=np.uint64)
            return np.tile(row, (self._n_patterns, 1))
        return np.zeros((self._n_patterns, self.depth), dtype=np.uint64)

    def reset(self) -> None:
        self.data = self._fresh()


class _VecMemoryView(PokeableMemory):
    """One pattern's view of a :class:`_VecMemory` (FI poke surface)."""

    def __init__(self, mem: _VecMemory, pattern: int, on_change):
        self._mem = mem
        self._pattern = pattern
        self.name = mem.name
        self.depth = mem.depth
        self.width = mem.width
        self.on_change = on_change

    def _flip(self, address: int, bits: int) -> None:
        self._mem.data[self._pattern, address] ^= np.uint64(bits)

    def peek(self) -> List[int]:
        return [int(v) for v in self._mem.data[self._pattern]]


class VectorizedGateSimulator:
    """Wide-word parallel-pattern gate simulator over numpy bitplanes.

    Public API mirrors :class:`~repro.gatesim.compiled.CompiledGateSimulator`
    exactly (single-value calls broadcast writes / read pattern 0); the
    pattern count is unbounded by the machine word, so whole seeded
    faultloads or thousands of stimulus vectors evaluate per pass.
    *run_cycles* is accepted and unused, like the compiled engine's.
    """

    backend = "vectorized"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None,
                 run_cycles: Optional[int] = None):
        if n_patterns < 1:
            raise GateSimError(f"n_patterns must be >= 1, got {n_patterns}")
        if checking_memories:
            raise GateSimError(
                "checking memories are not supported by the vectorized "
                "backend (use 'interpreted' or 'compiled')"
            )
        netlist.validate()
        self.netlist = netlist
        self.n_patterns = n_patterns
        self.cycles = 0
        self._n_words = (n_patterns + 63) // 64
        self.program = compile_netlist(netlist, cache=cache,
                                       backend="vectorized")

        self._slot = {uid: i for i, uid in
                      enumerate(self.program.state_uids)}
        self._ridx = {uid: i for i, uid in
                      enumerate(self.program.result_uids)}

        m = np.full(self._n_words, _U64_FULL, dtype=np.uint64)
        tail = n_patterns % 64
        if tail:
            m[-1] = np.uint64((1 << tail) - 1)
        self._M = m
        self._zeros = np.zeros(self._n_words, dtype=np.uint64)
        self._rows = np.arange(n_patterns)

        # vectorized memories (pattern-major storage)
        self._vec_mems: Dict[str, _VecMemory] = {}
        self._macros: Dict[str, MemoryMacro] = {}
        self.memories: Dict[str, _VecMemoryView] = {}
        for macro in netlist.memories:
            self._macros[macro.name] = macro
            mem = _VecMemory(macro, n_patterns)
            self._vec_mems[macro.name] = mem
            self.memories[macro.name] = _VecMemoryView(mem, 0,
                                                       self._unsettle)

        self._mem_hooks = [
            self._make_read_hook(self._macros[name], port_index)
            for name, port_index in self.program.mem_ports
        ]

        # state planes (arrays are never mutated in place, so sharing
        # references to M / zeros is safe)
        n_state = len(self.program.state_uids)
        self._s1: List[np.ndarray] = [self._zeros] * n_state
        self._sx: List[np.ndarray] = [self._zeros] * n_state
        self._s1[self._slot[netlist.const1.uid]] = self._M
        for uid in self.program.x_state_uids:
            self._sx[self._slot[uid]] = self._M

        # flops
        self._flops: List[CellInstance] = netlist.flops()
        self._flop_ops: List[Tuple[int, int, _Src, Optional[_Src],
                                   Optional[_Src]]] = []
        for flop in self._flops:
            q_slot = self._slot[flop.outputs["Q"].uid]
            init = flop.init & 1
            self._s1[q_slot] = self._M if init else self._zeros
            if flop.cell_type == "SDFF":
                entry = (q_slot, init, self._src(flop.pins["D"].uid),
                         self._src(flop.pins["SI"].uid),
                         self._src(flop.pins["SE"].uid))
            else:
                entry = (q_slot, init, self._src(flop.pins["D"].uid),
                         None, None)
            self._flop_ops.append(entry)

        # write ports: (memory, enable src, addr srcs, data srcs)
        self._write_ops: List[Tuple[_VecMemory, _Src,
                                    List[_Src], List[_Src]]] = []
        for macro in netlist.memories:
            for wp in macro.write_ports:
                self._write_ops.append((
                    self._vec_mems[macro.name],
                    self._src(wp.enable.uid),
                    [self._src(n.uid) for n in wp.addr],
                    [self._src(n.uid) for n in wp.data],
                ))

        # port lookup tables (outputs shadow inputs, like interpreted get)
        self._ports: Dict[str, List[_Src]] = {}
        for name, nets in list(netlist.outputs.items()) + \
                list(netlist.inputs.items()):
            self._ports.setdefault(
                name, [self._src(n.uid) for n in nets]
            )

        self._r1: Tuple[np.ndarray, ...] = ()
        self._rx: Tuple[np.ndarray, ...] = ()
        self._dirty = True
        self._settle()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _src(self, uid: int) -> _Src:
        slot = self._slot.get(uid)
        if slot is not None:
            return (True, slot)
        return (False, self._ridx[uid])

    def _planes(self, src: _Src) -> Tuple[np.ndarray, np.ndarray]:
        state, index = src
        if state:
            return self._s1[index], self._sx[index]
        return self._r1[index], self._rx[index]

    def _decode_address(self, addr1, addrx
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Address planes -> (per-pattern address, per-pattern X flag)."""
        n = self.n_patterns
        addr = np.zeros(n, dtype=np.int64)
        unknown = np.zeros(n, dtype=bool)
        for i, plane in enumerate(addr1):
            addr |= _unpack(plane, n).astype(np.int64) << i
        for plane in addrx:
            if plane.any():
                unknown |= _unpack(plane, n).astype(bool)
        return addr, unknown

    def _make_read_hook(self, macro: MemoryMacro, port_index: int):
        mem = self._vec_mems[macro.name]
        width = macro.width
        depth = macro.depth
        n = self.n_patterns
        n_words = self._n_words
        rows = self._rows
        zeros = self._zeros

        def hook(addr1, addrx, en1, enx):
            # the plain array model returns data regardless of the
            # enable (chip-select only matters to the checking model)
            addr, unknown = self._decode_address(addr1, addrx)
            in_range = addr < depth
            safe = np.where(in_range, addr, 0)
            word = np.where(in_range, mem.data[rows, safe], np.uint64(0))
            if unknown.any():
                x_plane = _pack(unknown.view(np.uint8), n_words)
                word = np.where(unknown, np.uint64(0), word)
            else:
                x_plane = zeros
            flat: List[np.ndarray] = []
            for i in range(width):
                bit = ((word >> np.uint64(i)) &
                       np.uint64(1)).astype(np.uint8)
                flat.append(_pack(bit, n_words))
                flat.append(x_plane)
            return tuple(flat)

        return hook

    def _settle(self) -> None:
        self._r1, self._rx = self.program.fn(
            self._s1, self._sx, self._mem_hooks, self._M
        )
        self._dirty = False

    def _ensure_settled(self) -> None:
        if self._dirty:
            self._settle()

    def _unsettle(self) -> None:
        """A memory poke changed storage: the next read re-settles."""
        self._dirty = True

    # ------------------------------------------------------------------
    # single-value API (GateSimulator-compatible; pattern 0)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        """Drive *value* on input *name*, broadcast to all patterns."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        value &= mask(len(nets))
        M, zeros = self._M, self._zeros
        s1, sx, slot = self._s1, self._sx, self._slot
        for i, net in enumerate(nets):
            j = slot[net.uid]
            s1[j] = M if (value >> i) & 1 else zeros
            sx[j] = zeros
        self._dirty = True

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X allowed) on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != len(nets):
            raise GateSimError(
                f"input {name!r} is {len(nets)} bits, got {len(values)}"
            )
        M, zeros = self._M, self._zeros
        for net, v in zip(nets, values):
            j = self._slot[net.uid]
            if v == L.L1:
                self._s1[j], self._sx[j] = M, zeros
            elif v == L.L0:
                self._s1[j], self._sx[j] = zeros, zeros
            else:
                self._s1[j], self._sx[j] = zeros, M
        self._dirty = True

    def get(self, name: str) -> int:
        """Read a port of pattern 0 as an integer (X/Z raise)."""
        return self.get_patterns(name)[0]

    def get_logic(self, name: str) -> List[int]:
        """Read a port of pattern 0 as raw logic values (LSB first)."""
        return self.get_logic_pattern(name, 0)

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """Pattern 0 of every bit of *names* (see
        :class:`~repro.engines.PortSampler`), read port by port."""
        widths = {name: len(self.get_logic(name)) for name in names}
        return PortSampler(
            lambda: int.from_bytes(
                bytes(chain.from_iterable(map(self.get_logic, widths))),
                "little"),
            widths)

    # ------------------------------------------------------------------
    # pattern-parallel API
    # ------------------------------------------------------------------
    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        """Drive one integer stimulus value per pattern on *name*.

        Accepts any integer sequence, including numpy arrays -- the
        wide benchmark drivers pre-generate ndarray stimulus.
        """
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != self.n_patterns:
            raise GateSimError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}"
            )
        width = len(nets)
        n_words = self._n_words
        if width <= 63:
            try:
                vals = np.asarray(values, dtype=np.uint64)
            except OverflowError:  # negative or >= 2**64 Python ints
                vals = np.asarray([int(v) & mask(width) for v in values],
                                  dtype=np.uint64)
            vals = vals & np.uint64(mask(width))
            for i, net in enumerate(nets):
                j = self._slot[net.uid]
                bit = ((vals >> np.uint64(i)) &
                       np.uint64(1)).astype(np.uint8)
                self._s1[j] = _pack(bit, n_words)
                self._sx[j] = self._zeros
        else:
            w_mask = mask(width)
            planes = [0] * width
            for p, value in enumerate(values):
                value = int(value) & w_mask
                bit = 1 << p
                i = 0
                while value:
                    if value & 1:
                        planes[i] |= bit
                    value >>= 1
                    i += 1
            for i, net in enumerate(nets):
                j = self._slot[net.uid]
                self._s1[j] = _int_to_plane(planes[i], n_words)
                self._sx[j] = self._zeros
        self._dirty = True

    def get_patterns(self, name: str) -> List[int]:
        """Read a port as one integer per pattern (X/Z raise)."""
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        out = [0] * self.n_patterns
        for i, src in enumerate(srcs):
            a, x = self._planes(src)
            unk = _plane_to_int(x)
            if unk:
                p = (unk & -unk).bit_length() - 1
                raise GateSimError(
                    f"port {name!r} bit {i} is X in pattern {p}"
                )
            ones = _plane_to_int(a)
            while ones:
                p = (ones & -ones).bit_length() - 1
                out[p] |= 1 << i
                ones &= ones - 1
        return out

    def get_port_planes(self, name: str) -> Tuple[List[int], List[int]]:
        """Read a port as raw bitplanes: per bit, (ones, unknowns).

        Bit *p* of each returned (Python integer) plane belongs to
        pattern *p*, matching the compiled backend bit for bit -- the
        fault-injection classification code consumes either engine's
        planes through the same decoder.
        """
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        ones: List[int] = []
        unks: List[int] = []
        for src in srcs:
            a, x = self._planes(src)
            ones.append(_plane_to_int(a))
            unks.append(_plane_to_int(x))
        return ones, unks

    def memory_model(self, name: str, pattern: int = 0) -> _VecMemoryView:
        """One pattern's poke/peek view of a memory.

        Storage is pattern-major and always pattern-private, so unlike
        the compiled backend there is no ROM aliasing to undo.
        """
        mem = self._vec_mems.get(name)
        if mem is None:
            raise GateSimError(f"no memory named {name!r}")
        check_pattern(pattern, self.n_patterns)
        return _VecMemoryView(mem, pattern, self._unsettle)

    def privatize_memory(self, name: str, pattern: int) -> _VecMemoryView:
        """Pattern-private memory view (already private here)."""
        return self.memory_model(name, pattern)

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        check_pattern(pattern, self.n_patterns)
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        word, bit = divmod(pattern, 64)
        probe = np.uint64(1 << bit)
        out = []
        for src in srcs:
            a, x = self._planes(src)
            if x[word] & probe:
                out.append(L.LX)
            elif a[word] & probe:
                out.append(L.L1)
            else:
                out.append(L.L0)
        return out

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance one or more clock edges (all patterns at once)."""
        M = self._M
        n = self.n_patterns
        rows = self._rows
        for _ in range(cycles):
            self._ensure_settled()
            planes = self._planes
            # sample flop inputs
            updates: List[Tuple[int, np.ndarray, np.ndarray]] = []
            for q_slot, _init, d_src, si_src, se_src in self._flop_ops:
                d1, dx = planes(d_src)
                if se_src is not None:
                    e1, ex = planes(se_src)
                    s1, sx = planes(si_src)  # type: ignore[arg-type]
                    e0 = M & ~(e1 | ex)
                    nd1 = (e1 & s1) | (e0 & d1)
                    ndx = (e1 & sx) | (e0 & dx) | ex
                else:
                    nd1, ndx = d1, dx
                updates.append((q_slot, nd1, ndx))
            # sample + commit memory writes (decode reads pre-edge
            # planes only, so committing per port preserves port order)
            for mem, en_src, addr_srcs, data_srcs in self._write_ops:
                e1, ex = planes(en_src)
                if not (e1.any() or ex.any()):
                    continue
                act = _unpack(e1 | ex, n).astype(bool)
                en_x = _unpack(ex, n).astype(bool) if ex.any() \
                    else np.zeros(n, dtype=bool)
                addr, addr_x = self._decode_address(
                    [planes(s)[0] for s in addr_srcs],
                    [planes(s)[1] for s in addr_srcs])
                data = np.zeros(n, dtype=np.uint64)
                data_x = en_x
                for i, src in enumerate(data_srcs):
                    d1, dx = planes(src)
                    data |= (_unpack(d1, n).astype(np.uint64)
                             << np.uint64(i))
                    if dx.any():
                        data_x = data_x | _unpack(dx, n).astype(bool)
                # X data or X enable commit 0; X address is dropped
                data = np.where(data_x, np.uint64(0), data)
                sel = act & ~addr_x & (addr < mem.depth)
                if sel.any():
                    mem.data[rows[sel], addr[sel]] = data[sel]
            for q_slot, nd1, ndx in updates:
                self._s1[q_slot] = nd1
                self._sx[q_slot] = ndx
            self.cycles += 1
            # settle lazily, like the compiled backend
            self._dirty = True

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        M, zeros = self._M, self._zeros
        for q_slot, init, *_rest in self._flop_ops:
            self._s1[q_slot] = M if init else zeros
            self._sx[q_slot] = zeros
        for mem in self._vec_mems.values():
            mem.reset()
        self.cycles = 0
        self._dirty = True
        self._settle()

    # ------------------------------------------------------------------
    # interop / introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> List[int]:
        """Pattern-0 net values indexed by uid (interpreted-compat view)."""
        self._ensure_settled()
        one = np.uint64(1)
        out = [L.LX] * len(self.netlist.nets)
        for uid, slot in self._slot.items():
            out[uid] = (L.LX if self._sx[slot][0] & one
                        else int(self._s1[slot][0] & one))
        for uid, index in self._ridx.items():
            out[uid] = (L.LX if self._rx[index][0] & one
                        else int(self._r1[index][0] & one))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VectorizedGateSimulator({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")
