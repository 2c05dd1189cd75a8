"""Compiled parallel-pattern gate-level simulation.

The interpreted :class:`~repro.gatesim.simulator.GateSimulator` pays one
Python call per cell evaluation per cycle.  This backend instead walks
the levelised netlist **once** and emits a single straight-line Python
function that evaluates the whole combinational cone in topological
order with word-level integer ops -- the classic compiled-code
simulation technique, with bit-parallel pattern packing on top:

* every net is held as **two bitplanes** ``(ones, unk)``; bit *p* of a
  plane belongs to stimulus pattern *p*.  ``ones`` marks bits known 1,
  ``unk`` marks unknown bits (X; Z collapses to X, which is exactly how
  gate inputs treat it).  The planes are disjoint and confined to the
  pattern mask ``M = (1 << n_patterns) - 1``;
* the generated function computes all ``n_patterns`` stimulus vectors
  per pass using Python's arbitrary-precision integers, so throughput
  scales with the pattern count on top of the interpretation savings;
* memory macros stay behavioural: read ports become calls into small
  per-port hooks that unpack each pattern's address, consult that
  pattern's memory model and repack the data planes.

Compiled artifacts are cached in-process in a :class:`CompileCache`
keyed by a structural hash of the netlist, so rebuilding the same design
(e.g. across benchmark repetitions) compiles exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CacheStats, CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import PortSampler, gather
from ..synth.library import CODEGEN
from ..synth.netlist import CellInstance, MemoryMacro, Netlist
from .levelize import levelize
from .memory import CheckingMemoryModel, MemoryModel
from .simulator import GateSimError, check_pattern

__all__ = [
    "CacheStats", "CompileCache", "COMPILE_CACHE", "CompiledGateSimulator",
    "CompiledProgram", "compile_netlist", "structural_hash",
]


# ----------------------------------------------------------------------
# structural hashing + artifact cache
# ----------------------------------------------------------------------
def structural_hash(netlist: Netlist) -> str:
    """A stable digest of the netlist *structure* (not its state).

    Two netlists with equal hashes generate identical simulation code:
    the digest covers cell types, pin connectivity (by net uid), flop
    init values, memory geometry/contents and the port maps.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("ascii", "backslashreplace"))
        h.update(b"\x00")

    feed(netlist.name)
    feed(netlist.library.name)
    feed(f"c0={netlist.const0.uid},c1={netlist.const1.uid}")
    for cell in netlist.cells:
        feed(cell.cell_type)
        feed(str(cell.init))
        for pin in sorted(cell.pins):
            feed(f"{pin}={cell.pins[pin].uid}")
        for pin in sorted(cell.outputs):
            feed(f">{pin}={cell.outputs[pin].uid}")
    for macro in netlist.memories:
        feed(f"mem {macro.name} {macro.depth}x{macro.width}")
        feed(str(macro.contents))
        for rp in macro.read_ports:
            feed("r" + ",".join(str(n.uid) for n in rp.addr))
            feed("d" + ",".join(str(n.uid) for n in rp.data))
            feed(f"e{rp.enable.uid if rp.enable is not None else -1}")
        for wp in macro.write_ports:
            feed(f"w{wp.enable.uid}|"
                 + ",".join(str(n.uid) for n in wp.addr) + "|"
                 + ",".join(str(n.uid) for n in wp.data))
    for name in sorted(netlist.inputs):
        feed(f"in {name}:"
             + ",".join(str(n.uid) for n in netlist.inputs[name]))
    for name in sorted(netlist.outputs):
        feed(f"out {name}:"
             + ",".join(str(n.uid) for n in netlist.outputs[name]))
    return h.hexdigest()


#: process-wide default cache (also exposed via :mod:`repro.flow.artifacts`)
COMPILE_CACHE = CompileCache()


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
@dataclass
class CompiledProgram:
    """A compiled combinational-settle function plus its layout tables."""

    source: str
    fn: Callable
    #: net uids read from the state arrays, in slot order
    state_uids: List[int]
    #: net uids returned by the settle function, in result order
    result_uids: List[int]
    #: (memory name, read port index) per MR hook, in call order
    mem_ports: List[Tuple[str, int]]
    #: state uids with no driver: held permanently at X (interpreted
    #: leaves such nets LX in its value array)
    x_state_uids: List[int]
    structural_key: str


def state_layout(netlist: Netlist, units) -> Tuple[List[int], List[int]]:
    """The state arrays' slots: ``(state_uids, x_state_uids)``.

    The slots hold the constant nets, the input nets, the flop Q nets,
    then the nets of memory ports that nothing drives (*units* is the
    levelised cone): ``validate()`` only checks cell pins and outputs,
    so those are pinned at X, matching the interpreted simulator's
    LX-initialised value array.
    """
    lib = netlist.library
    state_uids: List[int] = [netlist.const0.uid, netlist.const1.uid]
    for nets in netlist.inputs.values():
        state_uids.extend(n.uid for n in nets)
    for cell in netlist.cells:
        if lib[cell.cell_type].sequential:
            state_uids.append(cell.outputs["Q"].uid)

    driven = set(state_uids)
    for unit in units:
        driven.update(unit.outs)
    x_state_uids: List[int] = []

    def require(net) -> None:
        if net is not None and net.uid not in driven:
            driven.add(net.uid)
            state_uids.append(net.uid)
            x_state_uids.append(net.uid)

    for macro in netlist.memories:
        for rp in macro.read_ports:
            for n in rp.addr:
                require(n)
            require(rp.enable)
        for wp in macro.write_ports:
            require(wp.enable)
            for n in wp.addr + wp.data:
                require(n)
    return state_uids, x_state_uids


def _generate_source(netlist: Netlist) -> Tuple[str, List[int], List[int],
                                                List[Tuple[str, int]],
                                                List[int]]:
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library
    state_uids, x_state_uids = state_layout(netlist, units)

    lines: List[str] = ["def _settle(S1, SX, MR, M):"]
    for slot, uid in enumerate(state_uids):
        lines.append(f"    a{uid} = S1[{slot}]")
        lines.append(f"    x{uid} = SX[{slot}]")

    result_uids: List[int] = []
    mem_ports: List[Tuple[str, int]] = []
    for index, unit in enumerate(units):
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            spec = lib[cell.cell_type]
            ins = [(f"a{cell.pins[pin].uid}", f"x{cell.pins[pin].uid}")
                   for pin in spec.inputs]
            for pin in spec.outputs:
                uid = cell.outputs[pin].uid
                template = CODEGEN.get((cell.cell_type, pin))
                if template is None:
                    raise GateSimError(
                        f"no codegen template for cell {cell.cell_type!r} "
                        f"output {pin!r}"
                    )
                out = (f"a{uid}", f"x{uid}")
                for line in template(out, ins, f"t{index}_"):
                    lines.append("    " + line)
                result_uids.append(uid)
        else:
            macro, port_index = unit.key
            rp = macro.read_ports[port_index]
            addr1 = ", ".join(f"a{n.uid}" for n in rp.addr)
            addrx = ", ".join(f"x{n.uid}" for n in rp.addr)
            if rp.enable is not None:
                en1, enx = f"a{rp.enable.uid}", f"x{rp.enable.uid}"
            else:
                en1, enx = "M", "0"
            targets = []
            for n in rp.data:
                targets.append(f"a{n.uid}")
                targets.append(f"x{n.uid}")
                result_uids.append(n.uid)
            lines.append(
                f"    {', '.join(targets)} = MR[{len(mem_ports)}]"
                f"(({addr1},), ({addrx},), {en1}, {enx})"
            )
            mem_ports.append((macro.name, port_index))

    if result_uids:
        ones = ", ".join(f"a{uid}" for uid in result_uids)
        unks = ", ".join(f"x{uid}" for uid in result_uids)
        lines.append(f"    return ({ones},), ({unks},)")
    else:
        lines.append("    return (), ()")
    return ("\n".join(lines) + "\n", state_uids, result_uids, mem_ports,
            x_state_uids)


def compile_netlist(netlist: Netlist,
                    cache: Optional[CompileCache] = None,
                    backend: str = "compiled") -> CompiledProgram:
    """Compile *netlist*'s combinational cone into a settle function.

    Consults (and fills) *cache* -- the module-level :data:`COMPILE_CACHE`
    by default -- keyed by :func:`structural_hash` tagged with the
    owning *backend* ("compiled" / "vectorized"), so engines sharing
    one structural digest keep separate cache slots and stats.
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> CompiledProgram:
        source, state_uids, result_uids, mem_ports, x_state_uids = \
            _generate_source(netlist)
        code = compile(source, f"<gatesim-compiled:{netlist.name}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        return CompiledProgram(
            source=source,
            fn=namespace["_settle"],  # type: ignore[arg-type]
            state_uids=state_uids,
            result_uids=result_uids,
            mem_ports=mem_ports,
            x_state_uids=x_state_uids,
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend=backend)


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
#: a plane source: (True, state_slot) or (False, result_index)
_Src = Tuple[bool, int]


def plane_sampler(ports: Dict[str, List[_Src]], planes: Callable[[], tuple],
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


class CompiledGateSimulator:
    """Parallel-pattern gate-level simulator over a compiled netlist.

    Mirrors the public API of the interpreted
    :class:`~repro.gatesim.simulator.GateSimulator` (``set_input`` /
    ``get`` / ``get_logic`` / ``step`` / ``reset``), and adds the
    pattern-parallel entry points ``set_input_patterns`` /
    ``get_patterns`` / ``get_logic_pattern``: with ``n_patterns=N`` a
    single pass evaluates N independent stimulus vectors.

    The single-value API broadcasts writes across all patterns and reads
    pattern 0, so with ``n_patterns=1`` (the default) the backend is a
    drop-in, bit-exact replacement for the interpreted simulator.  The
    only representational difference: Z is stored as X (gate inputs
    already treat them identically).

    *run_cycles* is accepted for the native engine's sake (it falls
    back to this one) and unused: generated Python has no build flags.
    """

    backend = "compiled"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None,
                 run_cycles: Optional[int] = None):
        if n_patterns < 1:
            raise GateSimError(f"n_patterns must be >= 1, got {n_patterns}")
        netlist.validate()
        self.netlist = netlist
        self.n_patterns = n_patterns
        self.cycles = 0
        self._mask = mask(n_patterns)
        self.program = compile_netlist(netlist, cache=cache)

        self._slot = {uid: i for i, uid in
                      enumerate(self.program.state_uids)}
        self._ridx = {uid: i for i, uid in
                      enumerate(self.program.result_uids)}

        # memory models: one bank entry per pattern (ROMs are read-only
        # and shared; RAMs diverge under per-pattern writes)
        self.memories: Dict[str, MemoryModel] = {}
        self._mem_banks: Dict[str, List[MemoryModel]] = {}
        self._macros: Dict[str, MemoryMacro] = {}
        for macro in netlist.memories:
            self._macros[macro.name] = macro
            bank: List[MemoryModel] = []
            for p in range(n_patterns):
                if p and not macro.writable:
                    bank.append(bank[0])
                    continue
                if checking_memories:
                    model: MemoryModel = CheckingMemoryModel(
                        macro.name, macro.depth, macro.width,
                        macro.contents, reporter=reporter,
                    )
                else:
                    model = MemoryModel(
                        macro.name, macro.depth, macro.width, macro.contents
                    )
                model.on_change = self._unsettle
                bank.append(model)
            self._mem_banks[macro.name] = bank
            self.memories[macro.name] = bank[0]

        self._mem_hooks = [
            self._make_read_hook(self._macros[name], port_index)
            for name, port_index in self.program.mem_ports
        ]

        # state planes
        n_state = len(self.program.state_uids)
        self._s1: List[int] = [0] * n_state
        self._sx: List[int] = [0] * n_state
        self._s1[self._slot[netlist.const1.uid]] = self._mask
        for uid in self.program.x_state_uids:
            self._sx[self._slot[uid]] = self._mask

        # flops
        self._flops: List[CellInstance] = netlist.flops()
        self._flop_ops: List[Tuple[int, int, _Src, Optional[_Src],
                                   Optional[_Src]]] = []
        for flop in self._flops:
            q_uid = flop.outputs["Q"].uid
            q_slot = self._slot[q_uid]
            init = flop.init & 1
            self._s1[q_slot] = self._mask if init else 0
            if flop.cell_type == "SDFF":
                entry = (q_slot, init, self._src(flop.pins["D"].uid),
                         self._src(flop.pins["SI"].uid),
                         self._src(flop.pins["SE"].uid))
            else:
                entry = (q_slot, init, self._src(flop.pins["D"].uid),
                         None, None)
            self._flop_ops.append(entry)

        # write ports: (bank, enable src, addr srcs, data srcs)
        self._write_ops: List[Tuple[List[MemoryModel], _Src,
                                    List[_Src], List[_Src]]] = []
        for macro in netlist.memories:
            for wp in macro.write_ports:
                self._write_ops.append((
                    self._mem_banks[macro.name],
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

        self._r1: Tuple[int, ...] = ()
        self._rx: Tuple[int, ...] = ()
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

    def _planes(self, src: _Src) -> Tuple[int, int]:
        state, index = src
        if state:
            return self._s1[index], self._sx[index]
        return self._r1[index], self._rx[index]

    def _make_read_hook(self, macro: MemoryMacro, port_index: int):
        bank = self._mem_banks[macro.name]
        width = macro.width
        n = self.n_patterns
        sim = self

        def hook(addr1: Tuple[int, ...], addrx: Tuple[int, ...],
                 en1: int, enx: int) -> Tuple[int, ...]:
            d1 = [0] * width
            dx = [0] * width
            cycle = sim.cycles
            for p in range(n):
                bit = 1 << p
                addr: Optional[int] = 0
                for i, unk in enumerate(addrx):
                    if unk & bit:
                        addr = None
                        break
                    if addr1[i] & bit:
                        addr |= 1 << i  # type: ignore[operator]
                enabled = bool(en1 & bit) and not (enx & bit)
                row = bank[p].read(addr, enabled=enabled, cycle=cycle)
                for i, v in enumerate(row):
                    if v == L.L1:
                        d1[i] |= bit
                    elif v != L.L0:
                        dx[i] |= bit
            flat: List[int] = []
            for i in range(width):
                flat.append(d1[i])
                flat.append(dx[i])
            return tuple(flat)

        return hook

    def _settle(self) -> None:
        self._r1, self._rx = self.program.fn(
            self._s1, self._sx, self._mem_hooks, self._mask
        )
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
        s1, sx, slot = self._s1, self._sx, self._slot
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
                f"input {name!r} is {len(nets)} bits, got {len(values)}"
            )
        M = self._mask
        for net, v in zip(nets, values):
            j = self._slot[net.uid]
            if v == L.L1:
                self._s1[j], self._sx[j] = M, 0
            elif v == L.L0:
                self._s1[j], self._sx[j] = 0, 0
            else:
                self._s1[j], self._sx[j] = 0, M
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
        def planes() -> tuple:
            self._ensure_settled()
            return self._s1, self._sx, self._r1, self._rx

        return plane_sampler({name: self._port_srcs(name) for name in names},
                             planes, self.n_patterns)

    # ------------------------------------------------------------------
    # pattern-parallel API
    # ------------------------------------------------------------------
    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        """Drive one integer stimulus value per pattern on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != self.n_patterns:
            raise GateSimError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}"
            )
        w_mask = mask(len(nets))
        planes = [0] * len(nets)
        for p, value in enumerate(values):
            value &= w_mask
            bit = 1 << p
            i = 0
            while value:
                if value & 1:
                    planes[i] |= bit
                value >>= 1
                i += 1
        for i, net in enumerate(nets):
            j = self._slot[net.uid]
            self._s1[j] = planes[i]
            self._sx[j] = 0
        self._dirty = True

    def get_patterns(self, name: str) -> List[int]:
        """Read a port as one integer per pattern (X/Z raise)."""
        srcs = self._port_srcs(name)
        out = [0] * self.n_patterns
        for i, src in enumerate(srcs):
            ones, unk = self._planes(src)
            if unk:
                p = (unk & -unk).bit_length() - 1
                raise GateSimError(
                    f"port {name!r} bit {i} is X in pattern {p}"
                )
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
        ones: List[int] = []
        unks: List[int] = []
        for src in srcs:
            a, x = self._planes(src)
            ones.append(a)
            unks.append(x)
        return ones, unks

    def memory_model(self, name: str, pattern: int = 0) -> MemoryModel:
        """The behavioural model backing *name* for one pattern.

        RAM banks diverge per pattern; ROM patterns share bank 0.  The
        fault-injection campaign pokes pattern-private banks to model
        memory-cell SEUs without touching the other patterns.
        """
        bank = self._mem_banks.get(name)
        if bank is None:
            raise GateSimError(f"no memory named {name!r}")
        check_pattern(pattern, self.n_patterns)
        return bank[pattern]

    def privatize_memory(self, name: str, pattern: int) -> MemoryModel:
        """Give *pattern* its own copy of a shared (ROM) bank entry.

        ROM patterns alias bank 0 to save state; injecting an SEU into
        an aliased bank would corrupt every pattern, so the campaign
        un-aliases the target pattern first.  Idempotent; returns the
        pattern-private model.
        """
        model = self.memory_model(name, pattern)
        bank = self._mem_banks[name]
        if pattern > 0 and model is bank[0]:
            macro = self._macros[name]
            model = MemoryModel(macro.name, macro.depth, macro.width,
                                macro.contents)
            model.on_change = self._unsettle
            bank[pattern] = model
        return model

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        check_pattern(pattern, self.n_patterns)
        srcs = self._port_srcs(name)
        bit = 1 << pattern
        out = []
        for src in srcs:
            ones, unk = self._planes(src)
            if unk & bit:
                out.append(L.LX)
            elif ones & bit:
                out.append(L.L1)
            else:
                out.append(L.L0)
        return out

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance one or more clock edges (all patterns at once)."""
        M = self._mask
        n = self.n_patterns
        for _ in range(cycles):
            self._ensure_settled()
            planes = self._planes
            # sample flop inputs
            updates: List[Tuple[int, int, int]] = []
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
            # sample memory writes (per pattern, into that pattern's bank)
            writes: List[Tuple[MemoryModel, Optional[int], int]] = []
            for bank, en_src, addr_srcs, data_srcs in self._write_ops:
                e1, ex = planes(en_src)
                active = (e1 | ex) & M
                if not active:
                    continue
                addr_planes = [planes(s) for s in addr_srcs]
                data_planes = [planes(s) for s in data_srcs]
                for p in range(n):
                    bit = 1 << p
                    if not active & bit:
                        continue
                    addr: Optional[int] = 0
                    for i, (a1, ax) in enumerate(addr_planes):
                        if ax & bit:
                            addr = None
                            break
                        if a1 & bit:
                            addr |= 1 << i  # type: ignore[operator]
                    data: Optional[int] = 0
                    for i, (d1, dx) in enumerate(data_planes):
                        if dx & bit:
                            data = None
                            break
                        if d1 & bit:
                            data |= 1 << i  # type: ignore[operator]
                    if ex & bit:
                        data = None  # X enable: commit 0, like interpreted
                    writes.append(
                        (bank[p], addr, data if data is not None else 0)
                    )
            for model, addr, value in writes:
                model.write(addr, value, cycle=self.cycles)
            for q_slot, nd1, ndx in updates:
                self._s1[q_slot] = nd1
                self._sx[q_slot] = ndx
            self.cycles += 1
            # settle lazily: the next read (or next iteration) runs the
            # compiled cone once, with the post-edge cycle number -- the
            # same values and hook cycle the interpreter's eager settle
            # produces, at half the full-evaluation count
            self._dirty = True

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        M = self._mask
        for q_slot, init, *_rest in self._flop_ops:
            self._s1[q_slot] = M if init else 0
            self._sx[q_slot] = 0
        for name, bank in self._mem_banks.items():
            for p, model in enumerate(bank):
                if p and model is bank[0]:
                    continue
                model.reset()
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
        out = [L.LX] * len(self.netlist.nets)
        for uid, slot in self._slot.items():
            out[uid] = (L.LX if self._sx[slot] & 1
                        else (self._s1[slot] & 1))
        for uid, index in self._ridx.items():
            out[uid] = (L.LX if self._rx[index] & 1
                        else (self._r1[index] & 1))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledGateSimulator({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")
