"""Gate-level netlists.

A :class:`Netlist` is a flat sea of library-cell instances connected by
:class:`Net` objects, plus memory macros (kept as black boxes, excluded
from the area report, and replaced by behavioural models in simulation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .library import DEFAULT_LIBRARY, Library


class NetlistError(ValueError):
    """Raised for malformed netlists."""


class Net:
    """A single-bit wire.  ``driver`` is the (cell, output pin) pair, a
    primary input, a constant, or a memory data pin."""

    __slots__ = ("uid", "name", "driver", "kind")

    def __init__(self, uid: int, name: Optional[str] = None):
        self.uid = uid
        self.name = name or f"n{uid}"
        #: one of 'cell', 'input', 'const0', 'const1', 'mem', None
        self.kind: Optional[str] = None
        self.driver: Optional[Tuple["CellInstance", str]] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Net({self.name})"


class CellInstance:
    """An instance of a library cell."""

    __slots__ = ("name", "cell_type", "pins", "outputs", "init", "keep")

    def __init__(self, name: str, cell_type: str,
                 pins: Dict[str, Net], outputs: Dict[str, Net],
                 init: int = 0, keep: bool = False):
        self.name = name
        self.cell_type = cell_type
        self.pins = pins          # input pin -> net
        self.outputs = outputs    # output pin -> net
        self.init = init          # power-up value for flops
        self.keep = keep          # dont-touch: exempt from merging

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.cell_type}:{self.name}"


@dataclass
class MemReadMacroPort:
    addr: List[Net]
    data: List[Net]
    enable: Optional[Net]


@dataclass
class MemWriteMacroPort:
    enable: Net
    addr: List[Net]
    data: List[Net]


@dataclass(eq=False)
class MemoryMacro:
    """A memory block box (RAM or ROM).  Identity-hashed (``eq=False``)
    so macros can key dictionaries in the gate simulator."""

    name: str
    depth: int
    width: int
    contents: Optional[List[int]]
    read_ports: List[MemReadMacroPort] = field(default_factory=list)
    write_ports: List[MemWriteMacroPort] = field(default_factory=list)

    @property
    def writable(self) -> bool:
        return self.contents is None


class Netlist:
    """A flat gate-level design."""

    def __init__(self, name: str, library: Library = DEFAULT_LIBRARY):
        self.name = name
        self.library = library
        self.nets: List[Net] = []
        self.cells: List[CellInstance] = []
        self.memories: List[MemoryMacro] = []
        self.inputs: Dict[str, List[Net]] = {}
        self.outputs: Dict[str, List[Net]] = {}
        self._uid = itertools.count()
        self._cell_uid = itertools.count()
        self.const0 = self.new_net("const0")
        self.const0.kind = "const0"
        self.const1 = self.new_net("const1")
        self.const1.kind = "const1"
        #: scan-chain order (flop instances), set by scan insertion
        self.scan_chain: List[CellInstance] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name: Optional[str] = None) -> Net:
        net = Net(next(self._uid), name)
        self.nets.append(net)
        return net

    def new_nets(self, count: int, prefix: str = "n") -> List[Net]:
        return [self.new_net(f"{prefix}.{i}") for i in range(count)]

    def add_input(self, name: str, width: int) -> List[Net]:
        if name in self.inputs:
            raise NetlistError(f"input {name!r} already exists")
        nets = self.new_nets(width, name)
        for net in nets:
            net.kind = "input"
        self.inputs[name] = nets
        return nets

    def set_output(self, name: str, nets: Sequence[Net]) -> None:
        if name in self.outputs:
            raise NetlistError(f"output {name!r} already exists")
        self.outputs[name] = list(nets)

    def add_cell(self, cell_type: str, pins: Dict[str, Net],
                 init: int = 0) -> CellInstance:
        """Instantiate *cell_type*; returns the instance with fresh output
        nets wired (single-output cells expose ``.out``)."""
        cell = self.library[cell_type]
        missing = set(cell.inputs) - set(pins)
        if missing:
            raise NetlistError(
                f"{cell_type} instance missing pins {sorted(missing)}"
            )
        outputs = {}
        for pin in cell.outputs:
            net = self.new_net()
            outputs[pin] = net
        inst = CellInstance(
            f"u{next(self._cell_uid)}", cell_type, dict(pins), outputs, init
        )
        for pin, net in outputs.items():
            net.kind = "cell"
            net.driver = (inst, pin)
        self.cells.append(inst)
        return inst

    def add_memory(self, name: str, depth: int, width: int,
                   contents: Optional[Sequence[int]] = None) -> MemoryMacro:
        if any(m.name == name for m in self.memories):
            raise NetlistError(f"memory {name!r} already exists")
        macro = MemoryMacro(
            name, depth, width,
            list(contents) if contents is not None else None,
        )
        self.memories.append(macro)
        return macro

    def add_mem_read_port(self, macro: MemoryMacro, addr: Sequence[Net],
                          enable: Optional[Net] = None) -> List[Net]:
        data = self.new_nets(macro.width, f"{macro.name}.rd")
        for net in data:
            net.kind = "mem"
        macro.read_ports.append(
            MemReadMacroPort(list(addr), data, enable)
        )
        return data

    def add_mem_write_port(self, macro: MemoryMacro, enable: Net,
                           addr: Sequence[Net],
                           data: Sequence[Net]) -> None:
        if not macro.writable:
            raise NetlistError(f"memory {macro.name!r} is a ROM")
        macro.write_ports.append(
            MemWriteMacroPort(enable, list(addr), list(data))
        )

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """A deep structural copy, preserving net uids and cell names.

        With *name* unset the clone hashes identically to the original
        (see :func:`repro.gatesim.emit.structural_hash`); pass a new
        name to key overlay variants -- e.g. fault-injection saboteur
        netlists -- distinctly in the compile cache.  Mutating the clone
        (rewiring pins, swapping cell types, inserting cells) never
        touches the original.
        """
        dup = Netlist.__new__(Netlist)
        dup.name = name if name is not None else self.name
        dup.library = self.library
        dup.nets = []
        net_map: Dict[Net, Net] = {}
        max_uid = -1
        for net in self.nets:
            copy = Net(net.uid, net.name)
            copy.kind = net.kind
            dup.nets.append(copy)
            net_map[net] = copy
            max_uid = max(max_uid, net.uid)
        dup.const0 = net_map[self.const0]
        dup.const1 = net_map[self.const1]
        cell_map: Dict[CellInstance, CellInstance] = {}
        dup.cells = []
        for cell in self.cells:
            copy_cell = CellInstance(
                cell.name, cell.cell_type,
                {pin: net_map[n] for pin, n in cell.pins.items()},
                {pin: net_map[n] for pin, n in cell.outputs.items()},
                cell.init, keep=cell.keep,
            )
            for pin, net in copy_cell.outputs.items():
                net.driver = (copy_cell, pin)
            dup.cells.append(copy_cell)
            cell_map[cell] = copy_cell
        dup.memories = []
        for macro in self.memories:
            copy_macro = MemoryMacro(
                macro.name, macro.depth, macro.width,
                list(macro.contents) if macro.contents is not None
                else None,
                [MemReadMacroPort([net_map[n] for n in rp.addr],
                                  [net_map[n] for n in rp.data],
                                  net_map[rp.enable]
                                  if rp.enable is not None else None)
                 for rp in macro.read_ports],
                [MemWriteMacroPort(net_map[wp.enable],
                                   [net_map[n] for n in wp.addr],
                                   [net_map[n] for n in wp.data])
                 for wp in macro.write_ports],
            )
            dup.memories.append(copy_macro)
        dup.inputs = {port: [net_map[n] for n in nets]
                      for port, nets in self.inputs.items()}
        dup.outputs = {port: [net_map[n] for n in nets]
                       for port, nets in self.outputs.items()}
        dup.scan_chain = [cell_map[c] for c in self.scan_chain]
        dup._uid = itertools.count(max_uid + 1)
        max_cell = -1
        for cell in self.cells:
            if cell.name.startswith("u") and cell.name[1:].isdigit():
                max_cell = max(max_cell, int(cell.name[1:]))
        dup._cell_uid = itertools.count(max_cell + 1)
        return dup

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def flops(self) -> List[CellInstance]:
        return [c for c in self.cells
                if self.library[c.cell_type].sequential]

    def cell_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for cell in self.cells:
            hist[cell.cell_type] = hist.get(cell.cell_type, 0) + 1
        return hist

    def fanout_index(self) -> Dict[Net, List[Tuple[CellInstance, str]]]:
        """Map each net to the (cell, input pin) loads it drives."""
        index: Dict[Net, List[Tuple[CellInstance, str]]] = {}
        for cell in self.cells:
            for pin, net in cell.pins.items():
                index.setdefault(net, []).append((cell, pin))
        return index

    def validate(self) -> None:
        """Every cell input must be driven; outputs must exist."""
        driven = {self.const0, self.const1}
        for nets in self.inputs.values():
            driven.update(nets)
        for cell in self.cells:
            driven.update(cell.outputs.values())
        for macro in self.memories:
            for rp in macro.read_ports:
                driven.update(rp.data)
        for cell in self.cells:
            for pin, net in cell.pins.items():
                if net not in driven:
                    raise NetlistError(
                        f"undriven net {net.name!r} at {cell.name}.{pin}"
                    )
        for name, nets in self.outputs.items():
            for net in nets:
                if net not in driven:
                    raise NetlistError(
                        f"output {name!r} contains undriven net {net.name!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Netlist({self.name!r}: {len(self.cells)} cells, "
            f"{len(self.nets)} nets, {len(self.memories)} memories)"
        )
