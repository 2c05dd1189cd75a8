"""Waveform tracing for gate-level simulations.

Dumps selected ports (or all ports) of a :class:`GateSimulator` to VCD,
including X/Z states -- the gate-level debugging workflow the paper's
bug hunt relied on (watching the buffer address bus around the invalid
access).
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, TextIO, Tuple

from ..datatypes import logic as L
from ..kernel.tracing import _identifier
from .simulator import GateSimulator

#: VCD spelling of each 4-valued logic code
_VCD_CHAR = {L.L0: "0", L.L1: "1", L.LX: "x", L.LZ: "z"}


class GateVcdTracer:
    """Samples port values each cycle and writes a VCD file."""

    def __init__(self, sim: GateSimulator,
                 ports: Optional[List[str]] = None,
                 timescale_ns: float = 40.0):
        self.sim = sim
        self.timescale_ns = timescale_ns
        nl = sim.netlist
        if ports is None:
            ports = list(nl.inputs) + list(nl.outputs)
        self._ports: List[Tuple[str, int, str]] = []
        for index, name in enumerate(ports):
            nets = nl.inputs.get(name) or nl.outputs.get(name)
            if nets is None:
                raise KeyError(f"no port named {name!r}")
            self._ports.append((name, len(nets), _identifier(index)))
        self._changes: List[Tuple[int, str, str]] = []
        self._last: Dict[str, str] = {}
        self.sample()  # initial values at cycle 0

    # ------------------------------------------------------------------
    def _render(self, name: str, width: int) -> str:
        values = self.sim.get_logic(name)
        return "".join(_VCD_CHAR[v] for v in reversed(values))  # MSB first

    def sample(self) -> None:
        """Record the current cycle's port values (call once per cycle)."""
        cycle = self.sim.cycles
        for name, width, ident in self._ports:
            rendered = self._render(name, width)
            if self._last.get(ident) != rendered:
                self._last[ident] = rendered
                self._changes.append((cycle, ident, rendered))

    # ------------------------------------------------------------------
    def dumps(self) -> str:
        out = io.StringIO()
        self._write(out)
        return out.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            self._write(fh)

    def _write(self, fh: TextIO) -> None:
        fh.write("$date repro gate-level trace $end\n")
        fh.write(f"$timescale {int(self.timescale_ns)}ns $end\n")
        fh.write(f"$scope module {self.sim.netlist.name} $end\n")
        for name, width, ident in self._ports:
            fh.write(f"$var wire {width} {ident} {name} $end\n")
        fh.write("$upscope $end\n$enddefinitions $end\n")
        last_cycle: Optional[int] = None
        for cycle, ident, rendered in self._changes:
            if cycle != last_cycle:
                fh.write(f"#{cycle}\n")
                last_cycle = cycle
            if len(rendered) == 1:
                fh.write(f"{rendered}{ident}\n")
            else:
                fh.write(f"b{rendered} {ident}\n")
