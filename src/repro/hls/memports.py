"""Behavioural memory-port semantics, as the interpreter runs them.

The cycle interpreter (:mod:`repro.hls.interpreter`) calls these
helpers; the generated-code engines print the same rules into their
kernel (:mod:`repro.hls.emit`), and the equivalence suites hold the
two to bit-exact agreement, or the differential harness would chase
phantom refinement bugs.  The rules, matching the generated RTL and
the plain array model of :mod:`repro.gatesim.memory`:

* reads are **asynchronous** and total: an out-of-range address reads 0
  (never traps);
* writes commit **at the end of the cycle**: a read and a write of the
  same address in one cycle observe the *old* data (read-during-write
  returns old data, like the gate-level :class:`MemoryModel`);
* out-of-range writes are **silently dropped** -- at gate level the
  write-enable decoder simply selects no word;
* external write ports (the input interface filling the sample
  buffers) follow the same drop rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..datatypes.bits import mask


def read_mem(storage: Sequence[int], addr: int, depth: int) -> int:
    """Asynchronous read; out-of-range addresses read 0."""
    return storage[addr] if 0 <= addr < depth else 0


def write_mem(storage: List[int], addr: int, depth: int, value: int,
              width_mask: int) -> None:
    """End-of-cycle write commit; out-of-range writes are dropped."""
    if 0 <= addr < depth:
        storage[addr] = value & width_mask


def init_storage(depth: int, width: int,
                 contents: Optional[Sequence[int]] = None) -> List[int]:
    """Fresh backing storage: ROM contents masked to width, else zeros."""
    if contents is not None:
        m = mask(width)
        return [v & m for v in contents]
    return [0] * depth


def reset_storage(storage: List[int], depth: int, width: int,
                  contents: Optional[Sequence[int]] = None) -> None:
    """Reset *storage* in place to its power-on value."""
    storage[:] = init_storage(depth, width, contents)
