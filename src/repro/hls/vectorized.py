"""Vectorized behavioural simulation: lane-parallel scheduled FSMs.

Third engine tier of the behavioural backend family
(:mod:`repro.hls.interpreter` / :mod:`repro.hls.compiled` /
this module).  The scheduled FSM is emitted once as flat numpy code:
every variable, port and memory-read wire becomes a ``uint64`` ndarray
of shape ``(n_patterns,)``, and the current control state becomes a
lane vector too.  One generated call advances *all* lanes one cycle via
state predication: for each FSM state ``k`` the mask ``mk = state == k``
selects the lanes currently in that state, the state's operations are
evaluated lane-parallel over the full arrays, and the commits
(registers, ports, pulse auto-clears, memory scatters, next-state) are
merged back under ``mk`` with ``np.where``.  States holding no lanes
are skipped entirely.

Lanes are fully independent simulations -- each owns its environment
row, control state and pattern-major memory storage -- so the
fault-injection campaign can flip bits in individual lanes while lane 0
runs fault-free as the in-flight golden cross-check.

Semantics are bit-identical to the interpreter and the compiled
backend (the cross-backend equivalence tests pin this): evaluation
against the pre-edge environment, asynchronous memory reads
(out-of-range reads 0), end-of-cycle commits, pulse auto-clears.  The
state bodies come from the behavioural level's one code-generation
walk (:mod:`repro.hls.emit`); :class:`_FsmVectorPrinter` adds the
predicated FSM statement forms to the RTL level's
:class:`~repro.rtl.vectorized.VectorPrinter`.  Every body evaluates
over the full lane arrays -- lanes outside the state compute garbage
that every commit discards under ``mk`` -- which keeps the numpy ops
branch-free.

Programs are cached in :data:`~repro.hls.compiled.HLS_COMPILE_CACHE`
under the ``"vectorized"`` backend tag.  A memory monitor needs
per-access callbacks, which have no lane-parallel form -- monitored
simulations must use the interpreted or compiled engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..rtl.vectorized import VectorPrinter, make_runtime
from .compiled import HLS_COMPILE_CACHE
from .emit import fsm_names, state_bodies
from .ir import HlsProgram
from .schedule import Fsm

__all__ = [
    "HlsVectorizedProgram", "VectorizedFsm", "VectorizedFsmBatch",
    "compile_fsm_vectorized", "generate_vectorized_source",
]


@dataclass
class HlsVectorizedProgram:
    """A compiled lane-parallel FSM stepper."""

    source: str
    #: ``fn(env, mems, states, cycles) -> states``: *env* maps
    #: variables/ports/wires to (n,) uint64 arrays, *mems* maps
    #: memories to (n, depth) uint64 arrays, *states* is the (n,)
    #: uint64 control-state vector (a fresh vector is returned)
    fn: Callable
    structural_key: str


class _FsmVectorPrinter(VectorPrinter):
    """Lane-parallel FSM statement forms, predicated on the lanes ``mk``
    currently in the state."""

    def commit(self, local: str, value: str) -> str:
        return f"{local} = _wc(mk, {value}, {local})"

    def write_data(self, data: str, m: str) -> str:
        return data  # _mwr masks

    def mem_write(self, mem: str, addr: str, data: str, depth: int,
                  m: str) -> List[str]:
        return [f"_mwr({mem}, mk, {addr}, {data}, {depth}, {m})"]

    def next_state(self, guards: Sequence[Tuple[str, int]],
                   default: int) -> List[str]:
        target = str(default)
        for cond, guard_target in reversed(guards):
            target = f"_wc(_nz({cond}), {guard_target}, {target})"
        return [f"st = _wc(mk, {target}, st)"]

    def monitor(self, mem: str, addr: str, depth: int,
                kind: str) -> List[str]:
        return []


def generate_vectorized_source(fsm: Fsm) -> str:
    """Emit the FSM as lane-parallel numpy source."""
    name_of = fsm_names(fsm)
    mem_of = {name: f"mem{i}" for i, name in enumerate(fsm.program.memories)}
    bodies = state_bodies(_FsmVectorPrinter(), fsm, name_of, mem_of)

    lines: List[str] = ["def _run(env, mems, states, cycles):"]
    for name, local in name_of.items():
        lines.append(f"    {local} = env[{name!r}]")
    for name, local in mem_of.items():
        lines.append(f"    {local} = mems[{name!r}]")
    lines.append("    st = states")
    lines.append("    for _ in range(cycles):")
    lines.append("        st0 = st")
    for index, body in bodies:
        lines.append(f"        mk = st0 == {index}")
        lines.append("        if mk.any():")
        lines += ["            " + line for line in body] or \
            ["            pass"]
    for name, local in name_of.items():
        lines.append(f"    env[{name!r}] = _bc({local})")
    lines.append("    return _bc(st)")
    return "\n".join(lines) + "\n"


def compile_fsm_vectorized(fsm: Fsm, n_patterns: int,
                           cache: Optional[CompileCache] = None
                           ) -> HlsVectorizedProgram:
    """Compile *fsm* into a lane-parallel stepper (cached).

    The generated source is pattern-count independent; the runtime
    namespace binds ``n_patterns``, so the cache key carries both the
    source digest and the lane count.
    """
    if cache is None:
        cache = HLS_COMPILE_CACHE
    source = generate_vectorized_source(fsm)
    digest = hashlib.sha256(source.encode()).hexdigest()
    key = f"hls:{digest}:n{n_patterns}"

    def factory() -> HlsVectorizedProgram:
        code = compile(source, f"<hls-vectorized:{fsm.name}>", "exec")
        namespace: Dict[str, object] = make_runtime(n_patterns)
        exec(code, namespace)
        return HlsVectorizedProgram(
            source=source,
            fn=namespace["_run"],  # type: ignore[arg-type]
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend="vectorized")


class VectorizedFsmBatch:
    """N private FSM instances advanced by one lane-parallel call.

    The surface mirrors :class:`~repro.hls.compiled.CompiledFsmBatch`
    -- ``set_input`` (broadcast) / ``set_input_patterns`` /
    ``get_output_patterns`` / ``write_memory`` / ``step`` / ``reset``
    -- but state lives in numpy arrays: ``env`` maps names to ``(n,)``
    uint64 arrays, ``memories`` maps names to ``(n, depth)`` arrays,
    and ``states`` is the control-state lane vector.  Faults are poked
    into individual lanes with :meth:`flip_bit`.
    """

    backend = "vectorized"

    def __init__(self, fsm: Fsm, n_patterns: int, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        if n_patterns < 1:
            raise ValueError(f"n_patterns must be >= 1, got {n_patterns}")
        if mem_monitor is not None:
            raise ValueError(
                "the vectorized behavioural backend has no memory-monitor "
                "support (use 'interpreted' or 'compiled')")
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.n_patterns = n_patterns
        self.mem_monitor = None
        self.compiled = compile_fsm_vectorized(fsm, n_patterns, cache=cache)
        self.cycles = 0
        n = n_patterns
        self.states = np.full(n, np.uint64(fsm.entry), dtype=np.uint64)
        self.env: Dict[str, np.ndarray] = {}
        for var in self.program.variables:
            self.env[var] = np.zeros(n, dtype=np.uint64)
        for port in self.program.ports.values():
            self.env[port.name] = np.zeros(n, dtype=np.uint64)
        for st in fsm.states:
            for op in st.mem_reads:
                self.env.setdefault(op.wire, np.zeros(n, dtype=np.uint64))
        self.memories: Dict[str, np.ndarray] = {}
        for mem in self.program.memories.values():
            if mem.contents is not None:
                row = np.array([v & mask(mem.width) for v in mem.contents],
                               dtype=np.uint64)
                self.memories[mem.name] = np.tile(row, (n, 1))
            else:
                self.memories[mem.name] = np.zeros((n, mem.depth),
                                                   dtype=np.uint64)

    # -- the CompiledFsmBatch-compatible surface -----------------------
    def _in_port(self, name: str):
        port = self.program.ports.get(name)
        if port is None or port.direction != "in":
            raise KeyError(f"{name!r} is not an input port")
        return port

    def set_input(self, name: str, value: int) -> None:
        """Broadcast one value to every lane."""
        port = self._in_port(name)
        self.env[name] = np.full(
            self.n_patterns, np.uint64(value & mask(port.width)),
            dtype=np.uint64)

    def set_input_patterns(self, name: str, values) -> None:
        port = self._in_port(name)
        if len(values) != self.n_patterns:
            raise ValueError(
                f"expected {self.n_patterns} values, got {len(values)}")
        vals = np.asarray(values, dtype=np.uint64)
        self.env[name] = vals & np.uint64(mask(port.width))

    def output_array(self, name: str) -> np.ndarray:
        """The raw (n,) lane array of output port *name*."""
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return self.env[name]

    def get_output_patterns(self, name: str) -> List[int]:
        return [int(v) for v in self.output_array(name)]

    def write_memory(self, pattern: int, mem: str, address: int,
                     value: int) -> None:
        """External write into one lane's private storage."""
        spec = self.program.memories[mem]
        if 0 <= address < spec.depth:
            self.memories[mem][pattern, address] = \
                np.uint64(value & mask(spec.width))

    def write_memory_all(self, mem: str, address: int,
                         value: int) -> None:
        """External write broadcast to every lane's storage."""
        spec = self.program.memories[mem]
        if 0 <= address < spec.depth:
            self.memories[mem][:, address] = \
                np.uint64(value & mask(spec.width))

    def flip_bit(self, pattern: int, name: str, bit: int) -> None:
        """XOR one bit of one lane's environment entry (fault pokes)."""
        self.env[name][pattern] ^= np.uint64(1 << bit)

    def step(self, cycles: int = 1) -> None:
        self.states = self.compiled.fn(self.env, self.memories,
                                       self.states, cycles)
        self.cycles += cycles

    def reset(self) -> None:
        self.states = np.full(self.n_patterns, np.uint64(self.fsm.entry),
                              dtype=np.uint64)
        for name in self.env:
            self.env[name] = np.zeros(self.n_patterns, dtype=np.uint64)
        for mem in self.program.memories.values():
            storage = self.memories[mem.name]
            if mem.contents is not None:
                row = np.array([v & mask(mem.width) for v in mem.contents],
                               dtype=np.uint64)
                storage[:] = row
            else:
                storage[:] = np.uint64(0)
        self.cycles = 0


class VectorizedFsm:
    """Single-lane vectorized FSM with the scalar interpreter surface.

    Drop-in for :class:`~repro.hls.compiled.CompiledFsm` /
    :class:`~repro.hls.interpreter.FsmInterpreter` where no memory
    monitor is needed: ``env`` maps names to ``(1,)`` uint64 arrays
    (XOR pokes work element-wise), ``set_input`` / ``get_output`` /
    ``write_memory`` / ``step`` / ``reset`` behave identically.
    """

    backend = "vectorized"

    def __init__(self, fsm: Fsm, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        self._batch = VectorizedFsmBatch(fsm, 1, mem_monitor=mem_monitor,
                                         cache=cache)
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = None
        self.env = self._batch.env
        self.memories = self._batch.memories

    @property
    def state(self) -> int:
        return int(self._batch.states[0])

    @property
    def cycles(self) -> int:
        return self._batch.cycles

    def set_input(self, name: str, value: int) -> None:
        port = self.program.ports.get(name)
        if port is None or port.direction != "in":
            raise KeyError(f"{name!r} is not an input port")
        self.env[name][0] = np.uint64(value & mask(port.width))

    def get_output(self, name: str) -> int:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return int(self.env[name][0])

    def write_memory(self, mem: str, address: int, value: int) -> None:
        self._batch.write_memory(0, mem, address, value)

    def step(self, cycles: int = 1) -> None:
        self._batch.step(cycles)

    def reset(self) -> None:
        self._batch.reset()
        self.env = self._batch.env
        self.memories = self._batch.memories
