"""Behavioural memory simulation models for gate-level simulation.

Two flavours, mirroring the paper's Section 4.7:

* :class:`MemoryModel` -- a plain array model: out-of-range reads return
  0 silently (the stale-cell behaviour the C++ golden model exhibits);
* :class:`CheckingMemoryModel` -- "an automatically generated simulation
  model that includes a check for valid addresses": every enabled access
  is validated and violations are reported.  This is the model that made
  the golden-model bug "become obvious" during gate-level simulation.

Both derive from :class:`PokeableMemory`, the surface every gate
engine's memory offers to changes made outside its clock edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..kernel.report import Reporter, Severity


@dataclass
class AccessViolation:
    """One recorded invalid memory access."""

    memory: str
    kind: str      # 'read' | 'write'
    address: int   # -1 when the address contained X/Z bits
    cycle: int


class PokeableMemory:
    """One pattern's memory as a gate engine hands it out through
    ``memory_model()``: changed from outside the clock edge by a
    memory-cell SEU (:meth:`flip_bit`) or a ``write``.

    Every such change calls :attr:`on_change`, which the owning engine
    sets so that its next read sees the new contents: the interpreted
    engine re-reads its memory ports, the code-generating engines
    re-settle.  ``reset`` belongs to the engine's own reset, which
    re-settles anyway, so it does not notify.  Subclasses provide
    ``name``, ``depth``, ``width`` and :meth:`_flip` over their storage.
    """

    name: str
    depth: int
    width: int
    #: the owning engine's listener, called after every change
    on_change: Optional[Callable[[], None]] = None

    def flip_bit(self, address: int, bit: int) -> None:
        """Flip one stored bit in place -- a memory-cell SEU.

        Works on ROMs too (a configuration upset): bypasses the
        ROM-write guard on purpose.  ``reset`` restores the original
        contents either way.
        """
        if not 0 <= address < self.depth:
            raise ValueError(
                f"{self.name}: SEU address {address} outside depth "
                f"{self.depth}"
            )
        if not 0 <= bit < self.width:
            raise ValueError(
                f"{self.name}: SEU bit {bit} outside width {self.width}"
            )
        self._flip(address, 1 << bit)
        self._changed()

    def _flip(self, address: int, bits: int) -> None:
        raise NotImplementedError

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()


class MemoryModel(PokeableMemory):
    """Plain behavioural RAM/ROM: silent on invalid addresses."""

    def __init__(self, name: str, depth: int, width: int,
                 contents: Optional[Sequence[int]] = None):
        self.name = name
        self.depth = depth
        self.width = width
        self.writable = contents is None
        if contents is not None:
            if len(contents) != depth:
                raise ValueError(
                    f"{name}: {len(contents)} init values for depth {depth}"
                )
            self._data: List[int] = [v & mask(width) for v in contents]
            self._init = list(self._data)
        else:
            self._data = [0] * depth
            self._init = None

    # ------------------------------------------------------------------
    def read(self, address: Optional[int], enabled: bool = True,
             cycle: int = 0) -> List[int]:
        """Read as a list of logic values (LSB first).

        *address* is ``None`` when the address bus carries X/Z bits.
        """
        if address is None:
            return [L.LX] * self.width
        if not 0 <= address < self.depth:
            self._on_invalid("read", address, enabled, cycle)
            return [L.L0] * self.width
        value = self._data[address]
        return [(value >> i) & 1 for i in range(self.width)]

    def write(self, address: Optional[int], value: int,
              cycle: int = 0) -> None:
        if not self.writable:
            raise ValueError(f"{self.name} is a ROM")
        if address is None:
            self._on_invalid("write", -1, True, cycle)
            return
        if not 0 <= address < self.depth:
            self._on_invalid("write", address, True, cycle)
            return
        self._data[address] = value & mask(self.width)
        self._changed()

    def _flip(self, address: int, bits: int) -> None:
        self._data[address] ^= bits

    def reset(self) -> None:
        if self._init is not None:
            self._data[:] = self._init
        else:
            self._data[:] = [0] * self.depth

    def peek(self) -> List[int]:
        return list(self._data)

    # hook for the checking subclass
    def _on_invalid(self, kind: str, address: int, enabled: bool,
                    cycle: int) -> None:
        """Plain model: invalid accesses pass silently (C++ semantics)."""


class CheckingMemoryModel(MemoryModel):
    """Address-checking memory model (paper Section 4.7).

    Validates every *enabled* access; violations are recorded and
    reported through the :class:`~repro.kernel.report.Reporter` at ERROR
    severity.  Data behaviour is identical to :class:`MemoryModel`, so
    swapping models never changes simulation outputs -- only visibility.
    """

    def __init__(self, name: str, depth: int, width: int,
                 contents: Optional[Sequence[int]] = None,
                 reporter: Optional[Reporter] = None):
        super().__init__(name, depth, width, contents)
        self.reporter = reporter or Reporter(raise_at=Severity.FATAL)
        self.violations: List[AccessViolation] = []

    def _on_invalid(self, kind: str, address: int, enabled: bool,
                    cycle: int) -> None:
        if kind == "read" and not enabled:
            return  # chip-select inactive: address is a don't-care
        self.violations.append(
            AccessViolation(self.name, kind, address, cycle)
        )
        self.reporter.error(
            "MEM-ADDR",
            f"{self.name}: invalid {kind} address {address} "
            f"(valid 0..{self.depth - 1}) at cycle {cycle}",
        )
