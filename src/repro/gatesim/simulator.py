"""Event-driven gate-level simulation with 4-valued logic.

The simulator levelises the netlist once, then uses selective-trace
evaluation: a net that changes pushes the position of every unit it
feeds onto one pending min-heap, and a settle pops that heap until it
is empty.  Only cells whose inputs changed are re-evaluated, each once
and in level order (a fan-out unit always sits at a higher level) --
the classic compiled event-driven algorithm of gate-level simulators --
so a settle costs what changed, not the netlist's size.  A cell is a
truth-table lookup: its input codes index a table drawn once per cell
type from the library's ``EVAL`` functions, the one definition of cell
semantics (Z passes through as they return it).  Flops commit on an
explicit :meth:`GateSimulator.step` (clock edge), from edge rows built
once; memory macros are bound to behavioural models from
:mod:`repro.gatesim.memory` (checking or plain).
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
def _truth_table(cell_type: str, n_inputs: int,
                 outputs: Tuple[str, ...]) -> Dict[object, Tuple[int, ...]]:
    """The output codes of *cell_type*'s *outputs* for every
    combination of input codes, drawn from the library's ``EVAL``; one
    table per ``EVAL`` cell, shared read-only by every simulator.

    Keyed as ``operator.itemgetter`` over the input nets returns the
    codes: by their tuple, or by the one code of a one-input cell."""
    fns = [EVAL[(cell_type, pin)] for pin in outputs]
    return {codes if n_inputs > 1 else codes[0]:
            tuple(fn(*codes) for fn in fns)
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


class _Unit:
    """One evaluation unit: a combinational cell or a memory read port,
    at position *pos* of the levelised unit list."""

    __slots__ = ("pos", "eval", "out_uids", "dirty")

    def __init__(self, pos: int, eval_fn, out_uids: Sequence[int]):
        self.pos = pos
        self.eval = eval_fn
        self.out_uids = tuple(out_uids)
        self.dirty = False


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

        # flops, and the rows an edge samples: (q, d) per DFF,
        # (q, se, si, d) per SDFF, (model, en, addr, data) per write port
        self._flop_inits: List[Tuple[int, int]] = []
        self._dffs: List[Tuple[int, int]] = []
        self._sdffs: List[Tuple[int, int, int, int]] = []
        for flop in netlist.flops():
            q = flop.outputs["Q"].uid
            self._flop_inits.append((q, flop.init & 1))
            self.values[q] = flop.init & 1
            if flop.cell_type == "SDFF":
                self._sdffs.append((q, flop.pins["SE"].uid,
                                    flop.pins["SI"].uid, flop.pins["D"].uid))
            else:
                self._dffs.append((q, flop.pins["D"].uid))
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
        from .levelize import levelize

        #: the units in levelised order; a unit's ``pos`` indexes it
        self._units: List[_Unit] = []
        #: net uid -> the units it feeds (data deps only)
        self._fanout: List[List[_Unit]] = [
            [] for _ in range(len(self.netlist.nets))]
        #: memory name -> the units of its read ports
        self._read_units: Dict[str, List[_Unit]] = {}
        #: positions of the units to evaluate, a min-heap
        self._pending: List[int] = []
        for pos, lu in enumerate(levelize(self.netlist, error=GateSimError)):
            if isinstance(lu.key, CellInstance):
                unit = _Unit(pos, self._make_cell_eval(lu.key), lu.outs)
            else:
                unit = _Unit(pos, self._make_mem_read_eval(*lu.key),
                             lu.outs)
                self._read_units.setdefault(lu.key[0].name,
                                            []).append(unit)
            self._units.append(unit)
            for uid in lu.deps:
                self._fanout[uid].append(unit)

    def _make_cell_eval(self, cell: CellInstance) -> Callable[[], tuple]:
        spec = self.netlist.library[cell.cell_type]
        table = _truth_table(cell.cell_type, len(spec.inputs),
                             spec.outputs)
        take = operator.itemgetter(*(cell.pins[pin].uid
                                     for pin in spec.inputs))
        values = self.values
        return lambda: table[take(values)]

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
        for unit in self._units:
            unit.dirty = True
        self._pending[:] = range(len(self._units))  # sorted: a heap
        self._settle()

    def _schedule(self, units: Sequence[_Unit]) -> None:
        """Push every unit of *units* not pending yet."""
        for unit in units:
            if not unit.dirty:
                unit.dirty = True
                heapq.heappush(self._pending, unit.pos)

    def _memory_changed(self, read_units: List[_Unit]) -> None:
        """A memory's storage changed: schedule its read ports and,
        outside a clock edge, settle."""
        self._schedule(read_units)
        if not self._in_edge:
            self._settle()

    def _settle(self) -> None:
        """Evaluate the pending units in position order until none is
        left; a unit whose output changes pushes its fan-out, which
        sits at a higher level, so every unit runs once per settle."""
        pending = self._pending
        values, units, fanout = self.values, self._units, self._fanout
        pop, push = heapq.heappop, heapq.heappush
        while pending:
            unit = units[pop(pending)]
            unit.dirty = False
            for uid, v in zip(unit.out_uids, unit.eval()):
                if values[uid] != v:
                    values[uid] = v
                    for fan in fanout[uid]:
                        if not fan.dirty:
                            fan.dirty = True
                            push(pending, fan.pos)

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
        """Advance one or more clock edges."""
        values, fanout = self.values, self._fanout
        for _ in range(cycles):
            self._settle()
            # sample flop inputs and memory writes
            updates = [(q, values[d]) for q, d in self._dffs]
            for q, se, si, d in self._sdffs:
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
