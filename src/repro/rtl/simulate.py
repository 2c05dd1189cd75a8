"""Cycle-based RTL simulation.

Compiles every combinational assign and register next-expression into a
Python closure once, then evaluates them per clock cycle in dependency
order -- the "compiled simulation" style of commercial HDL simulators.

Memory macros are modelled behaviourally as plain arrays with a silent
stale read for out-of-range addresses (matching the C++ golden model);
an optional monitor hook observes every access for the checking-memory
experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datatypes.bits import mask
from ..engines import PortSampler, engine_class, gather, lookup
from .ir import RtlError, RtlModule

#: monitor signature: (memory name, address, depth, "read"/"write")
MemMonitor = Callable[[str, int, int, str], None]


class RtlSimulator:
    """Compiled cycle-based simulator for one :class:`RtlModule`.

    ``backend`` selects the engine (see :mod:`repro.engines`):
    ``"interpreted"`` (default) evaluates per-expression Python
    closures; ``"compiled"`` emits the whole module -- settle, register
    updates, memory writes and the cycle loop -- as one generated
    function (:class:`~repro.rtl.compiled.CompiledRtlSimulator`);
    ``"vectorized"`` runs the same generated statements over numpy
    uint64 lanes, one stimulus pattern per lane (see
    :class:`~repro.rtl.vectorized.VectorizedRtlSimulator`);
    ``"native"`` emits the same generated structure as C, compiled by
    the host toolchain (see
    :class:`~repro.rtl.native.NativeRtlSimulator`), degrading to
    ``"compiled"`` when no C compiler is present.  A memory monitor
    needs per-access callbacks, so it forces the interpreted engine.
    """

    backend = "interpreted"

    def __new__(cls, module: RtlModule = None,
                mem_monitor: Optional[MemMonitor] = None,
                backend: str = "interpreted", **kwargs):
        if cls is not RtlSimulator:
            return object.__new__(cls)
        if mem_monitor is not None:
            lookup(backend, RtlError)
            return object.__new__(cls)
        impl = engine_class(backend, "rtl", RtlError)
        if issubclass(impl, RtlSimulator):
            return object.__new__(impl)
        return impl(module, **kwargs)

    def __init__(self, module: RtlModule,
                 mem_monitor: Optional[MemMonitor] = None,
                 backend: str = "interpreted", **kwargs):
        if kwargs:
            raise RtlError(
                f"unsupported options for the {self.backend!r} backend: "
                f"{sorted(kwargs)}"
            )
        module.validate()
        self.module = module
        self.mem_monitor = mem_monitor
        self.cycles = 0

        # memories
        self._memories: Dict[str, List[int]] = {}
        for mem in module.memories:
            if mem.contents is not None:
                data = [v & mask(mem.width) for v in mem.contents]
            else:
                data = [0] * mem.depth
            self._memories[mem.name] = data

        # environment: inputs + registers + assigns (+ memory arrays)
        self.env: Dict[str, object] = {}
        for port in module.ports:
            if port.direction == "in":
                self.env[port.name] = 0
        for reg in module.registers:
            self.env[reg.name] = reg.init & mask(reg.width)
        for name, data in self._memories.items():
            self.env[f"$mem:{name}"] = data

        # compile
        self._comb: List[Tuple[str, Callable]] = [
            (assign.name, assign.expr.compile())
            for assign in module.topo_assign_order()
        ]
        self._reg_next: List[Tuple[str, Callable, int]] = [
            (reg.name, reg.next.compile(), mask(reg.width))
            for reg in module.registers
        ]
        self._mem_writes = []
        for mem in module.memories:
            for port in mem.write_ports:
                self._mem_writes.append((
                    mem.name,
                    mem.depth,
                    mask(mem.width),
                    port.enable.compile(),
                    port.addr.compile(),
                    port.data.compile(),
                ))
        # monitored read ports (monitor only; data flows via MemRead)
        self._mem_reads = []
        if mem_monitor is not None:
            for mem in module.memories:
                for rport in mem.read_ports:
                    enable_fn = (rport.enable.compile()
                                 if rport.enable is not None else None)
                    self._mem_reads.append(
                        (mem.name, mem.depth, rport.addr.compile(), enable_fn)
                    )
        self._run = self._compile(module)
        self._in_names = set(module.input_names())
        self.settle()

    def _compile(self, module: RtlModule):
        """The generated cycle function; None evaluates the closures."""
        return None

    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        if name not in self._in_names:
            raise RtlError(f"{name!r} is not an input of {self.module.name!r}")
        self.env[name] = value & mask(self.module.net_width(name))

    def get(self, name: str) -> int:
        """Read any net (input, register, assign, output port)."""
        target = self.module.outputs.get(name, name)
        return self.env[target]  # type: ignore[return-value]

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """The values of *names*, one gather per read (see
        :class:`~repro.engines.PortSampler`)."""
        module = self.module
        widths = {name: module.net_width(name) for name in names}
        take = gather([module.outputs.get(name, name) for name in widths])
        env = self.env
        return PortSampler(lambda: take(env), widths)

    def peek_memory(self, name: str) -> List[int]:
        return list(self._memories[name])

    def load_memory(self, name: str, contents: Sequence[int]) -> None:
        data = self._memories[name]
        if len(contents) != len(data):
            raise RtlError(
                f"memory {name!r}: {len(contents)} values for depth "
                f"{len(data)}"
            )
        width = next(m.width for m in self.module.memories if m.name == name)
        data[:] = [v & mask(width) for v in contents]

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Re-evaluate combinational logic for the current inputs/state."""
        if self._run is not None:
            self._run(self.env, self._memories, 0)
            return
        env = self.env
        for name, fn in self._comb:
            env[name] = fn(env)

    def step(self, cycles: int = 1) -> None:
        """Advance by *cycles* clock edges (inputs held constant)."""
        if self._run is not None:
            self._run(self.env, self._memories, cycles)
            self.cycles += cycles
            return
        env = self.env
        for _ in range(cycles):
            for name, fn in self._comb:
                env[name] = fn(env)
            if self.mem_monitor is not None:
                for mem_name, depth, addr_fn, enable_fn in self._mem_reads:
                    if enable_fn is None or enable_fn(env):
                        self.mem_monitor(mem_name, addr_fn(env), depth,
                                         "read")
            updates = [
                (name, fn(env) & m) for name, fn, m in self._reg_next
            ]
            for mem_name, depth, m, en_fn, addr_fn, data_fn in \
                    self._mem_writes:
                if en_fn(env):
                    addr = addr_fn(env)
                    if self.mem_monitor is not None:
                        self.mem_monitor(mem_name, addr, depth, "write")
                    if 0 <= addr < depth:
                        self._memories[mem_name][addr] = data_fn(env) & m
            for name, value in updates:
                env[name] = value
            self.cycles += 1
        # final combinational settle so outputs reflect the new state
        for name, fn in self._comb:
            env[name] = fn(env)

    def reset(self) -> None:
        """Restore registers (and RAM contents) to their initial state."""
        for reg in self.module.registers:
            self.env[reg.name] = reg.init & mask(reg.width)
        for mem in self.module.memories:
            if mem.contents is None:
                self._memories[mem.name][:] = [0] * mem.depth
        self.cycles = 0
        self.settle()
