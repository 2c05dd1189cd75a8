"""Event-driven gate-level simulation with 4-valued logic.

The simulator levelises the netlist once into positions: one unit per
cell output pin and per memory read port, in level order, then one
position per flop.  It uses selective-trace evaluation: a net that
changes pushes every position it feeds onto one pending min-heap, and
a settle pops the heap while its minimum is a unit.  Only units whose
inputs changed are re-evaluated, each once and in level order (a
fan-out unit always sits at a higher level) -- the classic compiled
event-driven algorithm of gate-level simulators -- so a settle costs
what changed, not the netlist's size.  A cell output is a truth-table
lookup: its input codes index a table drawn once per cell type and pin
from the library's ``EVAL`` functions, the one definition of cell
semantics (Z passes through as they return it).  The clock edge is
event-driven too: a flop's position is pushed when its D, SE or SI
net changes, and :meth:`GateSimulator.step` samples only the flops
pending after its settle, and the write ports, then commits; memory
macros are bound to behavioural models from :mod:`repro.gatesim.memory`
(checking or plain).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import (ENGINES, PortSampler, engine_class, gather,
                       replay_loop)
from ..synth.library import EVAL
from ..synth.netlist import CellInstance, MemoryMacro, Net, Netlist
from .memory import CheckingMemoryModel, MemoryModel


class GateSimError(RuntimeError):
    """Raised for X-valued observations and structural problems."""


def check_pattern(pattern: int, n_patterns: int) -> None:
    """Reject a pattern index a multi-pattern engine does not hold."""
    if not 0 <= pattern < n_patterns:
        raise GateSimError(f"pattern {pattern} outside 0..{n_patterns - 1}")


#: the logic codes a net holds: L0, L1, LX, LZ
CODES = (L.L0, L.L1, L.LX, L.LZ)


def logic_drive(netlist: Netlist, name: str,
                values: Sequence[int]) -> List[Net]:
    """The nets of input *name*, for a ``set_input_logic`` drive of
    *values*: one code of :data:`CODES` per bit, else
    :class:`GateSimError` before any net changes."""
    nets = netlist.inputs.get(name)
    if nets is None:
        raise GateSimError(f"no input named {name!r}")
    if len(values) != len(nets):
        raise GateSimError(
            f"input {name!r} is {len(nets)} bits, got {len(values)}"
        )
    for v in values:
        if v not in CODES:
            raise GateSimError(
                f"input {name!r}: {v!r} is no logic code (L0..LZ)")
    return nets


#: valid values for the ``backend=`` argument of :class:`GateSimulator`
BACKENDS = tuple(ENGINES)


@functools.lru_cache(maxsize=None)
def _pin_table(cell_type: str, pin: str,
               n_inputs: int) -> Dict[object, int]:
    """The output code of *cell_type*'s output *pin* for every
    combination of input codes, drawn from the library's ``EVAL``; one
    table per ``EVAL`` entry, shared read-only by every simulator.

    Keyed as ``operator.itemgetter`` over the input nets returns the
    codes: by their tuple, or by the one code of a one-input cell."""
    fn = EVAL[(cell_type, pin)]
    return {codes if n_inputs > 1 else codes[0]: fn(*codes)
            for codes in itertools.product(CODES, repeat=n_inputs)}


def _word(values: List[int], uids: Sequence[int]) -> Optional[int]:
    """The unsigned word on the nets *uids* (LSB first), or None when
    a bit is X or Z."""
    word = 0
    for i, uid in enumerate(uids):
        v = values[uid]
        if v == L.L1:
            word |= 1 << i
        elif v != L.L0:
            return None
    return word


class GateSimulator:
    """Cycle-oriented 4-valued simulator for a :class:`Netlist`.

    ``backend`` selects the engine (see :mod:`repro.engines`):
    ``"interpreted"`` (this class, selective trace, the default),
    ``"compiled"`` -- a
    :class:`~repro.gatesim.compiled.CompiledGateSimulator`, same public
    API, the netlist's op table printed as one whole-edge kernel plus
    parallel-pattern evaluation -- or ``"native"``, the same table
    walked by one fixed C kernel over ``uint64_t`` bitplanes.  ``checking_memories`` (the address-checking model) is
    this engine's alone; the generated engines reject it.
    It holds one pattern and offers the pattern API at it, so a
    one-lane FI run drives every gate engine alike.
    """

    backend = "interpreted"

    def __new__(cls, netlist: Netlist = None, checking_memories: bool = False,
                reporter=None, backend: str = "interpreted", **kwargs):
        if cls is GateSimulator:
            impl = engine_class(backend, "gate", GateSimError)
            if impl is not GateSimulator:
                return impl(netlist, checking_memories=checking_memories,
                            reporter=reporter, **kwargs)
        return object.__new__(cls)

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, backend: str = "interpreted",
                 n_patterns: int = 1, **kwargs):
        if n_patterns != 1:
            raise GateSimError("the interpreted backend simulates a "
                               f"single pattern, not {n_patterns}")
        if kwargs:
            raise GateSimError(
                "unsupported options for the interpreted backend: "
                f"{sorted(kwargs)}"
            )
        netlist.validate()
        self.netlist = netlist
        self.cycles = 0
        n = len(netlist.nets)
        #: net values indexed by uid; everything unknown until driven
        self.values: List[int] = [L.LX] * n

        self.values[netlist.const0.uid] = L.L0
        self.values[netlist.const1.uid] = L.L1

        # memory models
        self.memories: Dict[str, MemoryModel] = {}
        for macro in netlist.memories:
            if checking_memories:
                model: MemoryModel = CheckingMemoryModel(
                    macro.name, macro.depth, macro.width, macro.contents,
                    reporter=reporter,
                )
            else:
                model = MemoryModel(
                    macro.name, macro.depth, macro.width, macro.contents
                )
            self.memories[macro.name] = model

        self._build_units()
        #: True while step() commits an edge's writes (its closing
        #: settle re-reads the ports)
        self._in_edge = False
        for name, model in self.memories.items():
            model.on_change = functools.partial(
                self._memory_changed, self._read_units.get(name, []))
        #: the rows an edge samples per write port: (model, en, addr, data)
        self._write_rows = [
            (self.memories[macro.name], wp.enable.uid,
             [n.uid for n in wp.addr], [n.uid for n in wp.data])
            for macro in netlist.memories for wp in macro.write_ports]

        # inputs default to 0 (testbenches override)
        for nets in netlist.inputs.values():
            for net in nets:
                self.values[net.uid] = L.L0

        self._settle_all()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_units(self) -> None:
        """Lay out the positions: one unit per cell output pin and per
        memory read port, in levelised order, then one per flop."""
        from .levelize import levelize

        netlist = self.netlist
        #: per unit position: a cell output's truth table, or None for
        #: a memory read port
        self._tables: List[Optional[Dict[object, int]]] = []
        #: per unit position: the ``itemgetter`` of a cell's input
        #: codes, or the read of a memory port
        self._takes: List[Callable] = []
        #: per unit position: a cell output's net uid, or the tuple of
        #: a memory read port's data net uids
        self._outs: List[object] = []
        #: net uid -> the positions it feeds (data deps only)
        self._fanout: List[List[int]] = [[] for _ in netlist.nets]
        #: memory name -> the positions of its read ports
        self._read_units: Dict[str, List[int]] = {}

        def add(deps, table, take, out) -> None:
            for uid in deps:
                self._fanout[uid].append(len(self._outs))
            self._tables.append(table)
            self._takes.append(take)
            self._outs.append(out)

        for lu in levelize(netlist, error=GateSimError):
            if isinstance(lu.key, CellInstance):
                cell = lu.key
                spec = netlist.library[cell.cell_type]
                take = operator.itemgetter(*(cell.pins[pin].uid
                                             for pin in spec.inputs))
                for pin in spec.outputs:
                    add(lu.deps, _pin_table(cell.cell_type, pin,
                                            len(spec.inputs)),
                        take, cell.outputs[pin].uid)
            else:
                self._read_units.setdefault(lu.key[0].name, []).append(
                    len(self._outs))
                add(lu.deps, None, self._make_mem_read_eval(*lu.key),
                    tuple(lu.outs))

        #: the first flop position; a settle stops below it
        self._first_flop = len(self._outs)
        #: per flop, from the first flop position on: (q, se, si, d),
        #: se and si None for a DFF
        self._flops: List[Tuple[int, Optional[int], Optional[int], int]] = []
        #: (q, initial value) per flop
        self._flop_inits: List[Tuple[int, int]] = []
        for flop in netlist.flops():
            q = flop.outputs["Q"].uid
            self._flop_inits.append((q, flop.init & 1))
            self.values[q] = flop.init & 1
            for net in flop.pins.values():  # D, and SE and SI
                self._fanout[net.uid].append(
                    self._first_flop + len(self._flops))
            if flop.cell_type == "SDFF":
                self._flops.append((q, flop.pins["SE"].uid,
                                    flop.pins["SI"].uid, flop.pins["D"].uid))
            else:
                self._flops.append((q, None, None, flop.pins["D"].uid))
        #: per position, 1 while it is pending
        self._dirty = bytearray(self._first_flop + len(self._flops))
        #: the pending positions, a min-heap
        self._pending: List[int] = []

    def _make_mem_read_eval(self, macro: MemoryMacro,
                            index: int) -> Callable[[], List[int]]:
        rp = macro.read_ports[index]
        addr_uids = [n.uid for n in rp.addr]
        enable_uid = rp.enable.uid if rp.enable is not None else None
        model = self.memories[macro.name]
        values = self.values

        def run() -> List[int]:
            enabled = enable_uid is None or values[enable_uid] == L.L1
            return model.read(_word(values, addr_uids), enabled=enabled,
                              cycle=self.cycles)

        return run

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _settle_all(self) -> None:
        """Mark every unit and every flop, and settle."""
        n = len(self._dirty)
        self._dirty[:] = b"\x01" * n
        self._pending[:] = range(n)  # sorted: a heap
        self._settle()

    def _schedule(self, positions: Sequence[int]) -> None:
        """Push every position of *positions* not pending yet."""
        dirty, pending = self._dirty, self._pending
        for pos in positions:
            if not dirty[pos]:
                dirty[pos] = 1
                heapq.heappush(pending, pos)

    def _memory_changed(self, read_units: List[int]) -> None:
        """A memory's storage changed: schedule its read ports and,
        outside a clock edge, settle."""
        self._schedule(read_units)
        if not self._in_edge:
            self._settle()

    def _settle(self) -> None:
        """Evaluate the pending units in position order until only
        flops are left pending; a unit whose output changes pushes its
        fan-out, which sits at a higher position, so every unit runs
        once per settle."""
        pending, dirty = self._pending, self._dirty
        values, fanout = self.values, self._fanout
        tables, takes, outs = self._tables, self._takes, self._outs
        first_flop = self._first_flop
        pop, push = heapq.heappop, heapq.heappush
        while pending and pending[0] < first_flop:
            pos = pop(pending)
            dirty[pos] = 0
            table = tables[pos]
            if table is None:
                fans = self._read_port(pos)
            else:
                uid = outs[pos]
                v = table[takes[pos](values)]
                if values[uid] == v:
                    continue
                values[uid] = v
                fans = fanout[uid]
            for fan in fans:
                if not dirty[fan]:
                    dirty[fan] = 1
                    push(pending, fan)

    def _read_port(self, pos: int) -> List[int]:
        """Run the memory read port at *pos*: store the data bits that
        change and return the positions they feed."""
        values, fans = self.values, []
        for uid, v in zip(self._outs[pos], self._takes[pos]()):
            if values[uid] != v:
                values[uid] = v
                fans += self._fanout[uid]
        return fans

    # ------------------------------------------------------------------
    # public API (mirrors RtlSimulator)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        value &= mask(len(nets))
        values = self.values
        for i, net in enumerate(nets):
            v = (value >> i) & 1
            if values[net.uid] != v:
                values[net.uid] = v
                self._schedule(self._fanout[net.uid])
        self._settle()

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X and Z allowed) on
        *name*; a code outside L0..LZ raises :class:`GateSimError`."""
        nets = logic_drive(self.netlist, name, values)
        for net, v in zip(nets, values):
            if self.values[net.uid] != v:
                self.values[net.uid] = v
                self._schedule(self._fanout[net.uid])
        self._settle()

    def get(self, name: str) -> int:
        """Read an output or input port as an integer (X/Z raise)."""
        out = 0
        for i, net in enumerate(self._port_nets(name)):
            v = self.values[net.uid]
            if v == L.L1:
                out |= 1 << i
            elif v != L.L0:
                raise GateSimError(
                    f"port {name!r} bit {i} is {L.to_char(v)}"
                )
        return out

    def get_logic(self, name: str) -> List[int]:
        """Read a port as raw logic values (LSB first; X/Z allowed)."""
        return [self.values[n.uid] for n in self._port_nets(name)]

    def _port_nets(self, name: str) -> List[Net]:
        nets = self.netlist.outputs.get(name) or self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no port named {name!r}")
        return nets

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """Pattern 0 of every bit of *names*, one gather per read (see
        :class:`~repro.engines.PortSampler`)."""
        ports = {name: self._port_nets(name) for name in names}
        take = gather([n.uid for nets in ports.values() for n in nets])
        values = self.values
        return PortSampler(
            lambda: int.from_bytes(bytes(take(values)), "little"),
            {name: len(nets) for name, nets in ports.items()})

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[int]:
        """Run *waveform*, sampling *ports* after every tick: the
        reference loop of :func:`repro.engines.replay_loop`."""
        return replay_loop(self, waveform, self.port_sampler(ports).read)

    def set_input_patterns(self, name: str, values: Sequence[int]) -> None:
        """Drive the one pattern's value on *name*."""
        if len(values) != 1:
            raise GateSimError(f"expected 1 pattern value, got {len(values)}")
        self.set_input(name, values[0])

    def get_port_planes(self, name: str) -> Tuple[List[int], List[int]]:
        """Per bit of port *name*, the one pattern's (ones, unknowns)."""
        bits = self.get_logic(name)
        return ([int(v == L.L1) for v in bits],
                [int(v not in (L.L0, L.L1)) for v in bits])

    def privatize_memory(self, name: str, pattern: int) -> MemoryModel:
        """The one pattern's memory, private already."""
        return self.memory_model(name, pattern)

    def memory_model(self, name: str, pattern: int = 0) -> MemoryModel:
        """The behavioural model backing memory macro *name*.

        *pattern* exists for API parity with the compiled backend; the
        interpreted simulator holds a single state copy (pattern 0).
        """
        if pattern != 0:
            raise GateSimError(
                "interpreted backend simulates a single pattern; "
                f"pattern {pattern} does not exist"
            )
        model = self.memories.get(name)
        if model is None:
            raise GateSimError(f"no memory named {name!r}")
        return model

    def step(self, cycles: int = 1) -> None:
        """Advance one or more clock edges.  An edge samples only the
        flops pending after its settle -- those whose D, SE or SI moved
        since they last sampled -- and every write port."""
        values, fanout = self.values, self._fanout
        pending, dirty = self._pending, self._dirty
        flops, first_flop = self._flops, self._first_flop
        for _ in range(cycles):
            self._settle()
            # only flop positions are left pending: sample those
            due = pending[:]
            pending.clear()
            updates = []
            for pos in due:
                dirty[pos] = 0
                q, se, si, d = flops[pos - first_flop]
                if se is None:
                    updates.append((q, values[d]))
                else:
                    s = values[se]
                    updates.append((q, values[si] if s == L.L1 else
                                    values[d] if s == L.L0 else L.LX))
            writes = []
            for model, en, addr, data in self._write_rows:
                e = values[en]
                if e != L.L0:  # X enable: the write may or may not happen
                    writes.append((model, _word(values, addr),
                                   _word(values, data) if e == L.L1
                                   else None))
            # commit: each write schedules its memory's read ports
            self._in_edge = True
            try:  # a checking model's reporter may raise
                for model, addr, data in writes:
                    model.write(addr, data if data is not None else 0,
                                cycle=self.cycles)
            except BaseException:
                self._schedule(due)  # no edge: its flops stay due
                raise
            finally:
                self._in_edge = False
            for q, v in updates:
                if values[q] != v:
                    values[q] = v
                    self._schedule(fanout[q])
            self.cycles += 1
            self._settle()

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        for q, init in self._flop_inits:
            self.values[q] = init
        for model in self.memories.values():
            model.reset()
        self.cycles = 0
        self._settle_all()
