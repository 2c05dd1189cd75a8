"""Modules -- the structural building block (SystemC ``sc_module``).

A module owns processes, child modules, signals and ports.  Assigning a
kernel object to a module attribute automatically registers it in the
hierarchy and derives its hierarchical name, mirroring SystemC's
constructor-time hierarchy building.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, List, Optional

from .event import Event
from .process import MethodProcess, ThreadProcess


class Module:
    """Base class for hardware modules and hierarchical channels.

    .. note::
       ``name`` and ``parent`` are reserved attributes of the hierarchy;
       subclasses must not reuse them for processes or fields.
    """

    def __init__(self, name: str):
        # Use object.__setattr__ to dodge the registration hook below.
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parent", None)
        object.__setattr__(self, "_children", [])
        object.__setattr__(self, "_processes", [])
        object.__setattr__(self, "_signals", [])
        object.__setattr__(self, "_ports", [])
        object.__setattr__(self, "_elaborated", False)

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if not key.startswith("_"):
            from .signal import Signal
            from .ports import Port

            if isinstance(value, Module) and value.parent is None and value is not self:
                object.__setattr__(value, "parent", self)
                self._children.append(value)
            elif isinstance(value, Signal):
                if value.name == "signal":
                    value.name = f"{self.full_name}.{key}"
                self._signals.append(value)
            elif isinstance(value, Port):
                if value.owner is None:
                    value.owner = self
                    value.name = f"{self.full_name}.{key}"
                self._ports.append(value)
        object.__setattr__(self, key, value)

    @property
    def full_name(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name}.{self.name}"

    def iter_modules(self) -> Iterable["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for child in self._children:
            yield from child.iter_modules()

    # ------------------------------------------------------------------
    # process registration
    # ------------------------------------------------------------------
    def add_thread(
        self,
        factory: Callable[[], Generator],
        name: Optional[str] = None,
        dont_initialize: bool = False,
    ) -> ThreadProcess:
        """Register a thread process from a generator *factory* (no args)."""
        proc = ThreadProcess(name or self._proc_name(factory), factory)
        proc._dont_initialize = dont_initialize
        self._processes.append(proc)
        return proc

    def add_method(
        self,
        fn: Callable[[], None],
        sensitivity: Iterable = (),
        name: Optional[str] = None,
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register a method process, statically sensitive to *sensitivity*.

        Sensitivity entries may be :class:`Event` objects or anything with a
        ``default_event()`` (signals, ports bound to signals).
        """
        proc = MethodProcess(name or self._proc_name(fn), fn)
        proc._dont_initialize = dont_initialize
        for item in sensitivity:
            proc.add_static_sensitivity(_as_event(item))
        self._processes.append(proc)
        return proc

    def _proc_name(self, fn) -> str:
        return f"{self.full_name}.{getattr(fn, '__name__', 'proc')}"

    def spawn(self, factory: Callable[[], Generator],
              name: Optional[str] = None) -> ThreadProcess:
        """Spawn a thread *during simulation* (SystemC ``sc_spawn``).

        Unlike :meth:`add_thread`, which registers processes for the
        elaboration phase, ``spawn`` may be called from a running
        process; the new thread becomes runnable in the next delta
        cycle.
        """
        from .context import current_simulation

        sim = current_simulation()
        proc = ThreadProcess(name or self._proc_name(factory), factory)
        proc.sim = sim
        self._processes.append(proc)
        sim._processes.append(proc)
        proc._runnable = True
        sim._schedule(proc)
        return proc

    # ------------------------------------------------------------------
    # elaboration hooks
    # ------------------------------------------------------------------
    def _elaborate(self, sim) -> None:
        if self._elaborated:
            return
        object.__setattr__(self, "_elaborated", True)
        for port in self._ports:
            port._check_bound()
        self.on_elaborate(sim)

    def on_elaborate(self, sim) -> None:
        """Hook for subclasses (e.g. clocks starting their toggle process)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.full_name!r})"


def _as_event(item) -> Event:
    if isinstance(item, Event):
        return item
    default = getattr(item, "default_event", None)
    if callable(default):
        return default()
    raise TypeError(f"cannot derive an event from {item!r}")
