"""Event-driven gate-level simulation with 4-valued logic.

The simulator levelises the netlist once, then uses selective-trace
evaluation: only cells whose inputs changed are re-evaluated, in level
order -- the classic compiled event-driven algorithm of gate-level
simulators.  Flops commit on an explicit :meth:`GateSimulator.step`
(clock edge); memory macros are bound to behavioural models from
:mod:`repro.gatesim.memory` (checking or plain).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..engines import ENGINES, PortSampler, engine_class, gather
from ..synth.library import EVAL
from ..synth.netlist import CellInstance, MemoryMacro, Net, Netlist
from .memory import CheckingMemoryModel, MemoryModel


class GateSimError(RuntimeError):
    """Raised for X-valued observations and structural problems."""


def check_pattern(pattern: int, n_patterns: int) -> None:
    """Reject a pattern index a multi-pattern engine does not hold."""
    if not 0 <= pattern < n_patterns:
        raise GateSimError(f"pattern {pattern} outside 0..{n_patterns - 1}")


#: valid values for the ``backend=`` argument of :class:`GateSimulator`
BACKENDS = tuple(ENGINES)


class _Unit:
    """One evaluation unit: a combinational cell or a memory read port."""

    __slots__ = ("level", "eval", "out_uids", "dirty")

    def __init__(self, level: int, eval_fn, out_uids: Sequence[int]):
        self.level = level
        self.eval = eval_fn
        self.out_uids = list(out_uids)
        self.dirty = True


class GateSimulator:
    """Cycle-oriented 4-valued simulator for a :class:`Netlist`.

    ``backend`` selects the engine (see :mod:`repro.engines`):
    ``"interpreted"`` (this class, selective trace, the default),
    ``"compiled"`` -- a
    :class:`~repro.gatesim.compiled.CompiledGateSimulator`, same public
    API, one generated whole-edge kernel plus parallel-pattern
    evaluation -- or ``"native"``, the same kernel over C ``uint64_t``
    bitplanes.  ``checking_memories`` (the address-checking model) is
    this engine's alone; the generated engines reject it.
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
                 reporter=None, backend: str = "interpreted", **kwargs):
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

        # flops
        lib = netlist.library
        self._flops: List[CellInstance] = netlist.flops()
        for flop in self._flops:
            self.values[flop.outputs["Q"].uid] = flop.init & 1

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

        self._units: List[_Unit] = []
        self._fanout: Dict[int, List[_Unit]] = {}
        #: memory name -> the units of its read ports
        self._read_units: Dict[str, List[_Unit]] = {}
        for lu in levelize(self.netlist, error=GateSimError):
            if isinstance(lu.key, CellInstance):
                unit = _Unit(lu.level, self._make_cell_eval(lu.key),
                             lu.outs)
            else:
                unit = _Unit(lu.level, self._make_mem_read_eval(*lu.key),
                             lu.outs)
                self._read_units.setdefault(lu.key[0].name,
                                            []).append(unit)
            self._units.append(unit)
            # fanout: net uid -> units to mark dirty (data deps only)
            for uid in lu.deps:
                self._fanout.setdefault(uid, []).append(unit)
        self._max_level = max((u.level for u in self._units), default=0)

        # level buckets for selective trace
        self._buckets: List[List[_Unit]] = [
            [] for _ in range(self._max_level + 1)
        ]
        for unit in self._units:
            self._buckets[unit.level].append(unit)

    def _make_cell_eval(self, cell: CellInstance) -> Callable[[], List[int]]:
        spec = self.netlist.library[cell.cell_type]
        fns = [EVAL[(cell.cell_type, pin)] for pin in spec.outputs]
        in_uids = [cell.pins[pin].uid for pin in spec.inputs]
        values = self.values

        def run() -> List[int]:
            args = [values[uid] for uid in in_uids]
            return [fn(*args) for fn in fns]

        return run

    def _make_mem_read_eval(self, macro: MemoryMacro,
                            index: int) -> Callable[[], List[int]]:
        rp = macro.read_ports[index]
        addr_uids = [n.uid for n in rp.addr]
        enable_uid = rp.enable.uid if rp.enable is not None else None
        model = self.memories[macro.name]
        values = self.values

        def run() -> List[int]:
            addr: Optional[int] = 0
            for i, uid in enumerate(addr_uids):
                v = values[uid]
                if v == L.L1:
                    addr |= 1 << i  # type: ignore[operator]
                elif v != L.L0:
                    addr = None
                    break
            enabled = True
            if enable_uid is not None:
                enabled = values[enable_uid] == L.L1
            return model.read(addr, enabled=enabled, cycle=self.cycles)

        return run

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _settle_all(self) -> None:
        for unit in self._units:
            unit.dirty = True
        self._settle()

    def _mark_net_changed(self, uid: int) -> None:
        for unit in self._fanout.get(uid, ()):
            unit.dirty = True

    def _memory_changed(self, read_units: List[_Unit]) -> None:
        """A memory's storage changed: schedule its read ports and,
        outside a clock edge, settle."""
        for unit in read_units:
            unit.dirty = True
        if not self._in_edge:
            self._settle()

    def _settle(self) -> None:
        values = self.values
        for bucket in self._buckets:
            for unit in bucket:
                if not unit.dirty:
                    continue
                unit.dirty = False
                outs = unit.eval()
                for uid, v in zip(unit.out_uids, outs):
                    if values[uid] != v:
                        values[uid] = v
                        self._mark_net_changed(uid)

    # ------------------------------------------------------------------
    # public API (mirrors RtlSimulator)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        value &= mask(len(nets))
        for i, net in enumerate(nets):
            v = (value >> i) & 1
            if self.values[net.uid] != v:
                self.values[net.uid] = v
                self._mark_net_changed(net.uid)
        self._settle()

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X allowed) on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != len(nets):
            raise GateSimError(
                f"input {name!r} is {len(nets)} bits, got {len(values)}"
            )
        for net, v in zip(nets, values):
            if self.values[net.uid] != v:
                self.values[net.uid] = v
                self._mark_net_changed(net.uid)
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
        values = self.values
        for _ in range(cycles):
            self._settle()
            # sample flop inputs
            updates: List[Tuple[int, int]] = []
            for flop in self._flops:
                if flop.cell_type == "SDFF":
                    se = values[flop.pins["SE"].uid]
                    if se == L.L1:
                        d = values[flop.pins["SI"].uid]
                    elif se == L.L0:
                        d = values[flop.pins["D"].uid]
                    else:
                        d = L.LX
                else:
                    d = values[flop.pins["D"].uid]
                updates.append((flop.outputs["Q"].uid, d))
            # sample memory writes
            writes: List[Tuple[MemoryModel, Optional[int], Optional[int]]] = []
            for macro in self.netlist.memories:
                model = self.memories[macro.name]
                for wp in macro.write_ports:
                    en = values[wp.enable.uid]
                    if en == L.L0:
                        continue
                    addr: Optional[int] = 0
                    for i, net in enumerate(wp.addr):
                        v = values[net.uid]
                        if v == L.L1:
                            addr |= 1 << i  # type: ignore[operator]
                        elif v != L.L0:
                            addr = None
                            break
                    data: Optional[int] = 0
                    for i, net in enumerate(wp.data):
                        v = values[net.uid]
                        if v == L.L1:
                            data |= 1 << i  # type: ignore[operator]
                        elif v != L.L0:
                            data = None
                            break
                    if en == L.L1:
                        writes.append((model, addr, data))
                    else:  # X enable: the write may or may not happen
                        writes.append((model, addr, None))
            # commit: each write schedules its memory's read ports
            self._in_edge = True
            try:  # a checking model's reporter may raise
                for model, addr, data in writes:
                    model.write(addr, data if data is not None else 0,
                                cycle=self.cycles)
            finally:
                self._in_edge = False
            for uid, v in updates:
                if values[uid] != v:
                    values[uid] = v
                    self._mark_net_changed(uid)
            self.cycles += 1
            self._settle()

    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        for flop in self._flops:
            uid = flop.outputs["Q"].uid
            v = flop.init & 1
            if self.values[uid] != v:
                self.values[uid] = v
                self._mark_net_changed(uid)
        for model in self.memories.values():
            model.reset()
        self.cycles = 0
        self._settle_all()
