"""Compiled behavioural simulation: scheduled-FSM source emission.

The cycle interpreter (:mod:`repro.hls.interpreter`) pays one Python
closure call per micro-operation per cycle, plus dict traffic for every
variable access.  This backend specialises one scheduled FSM into flat
Python source -- an ``if state == k`` chain whose branches carry the
state's operations unrolled as straight-line statements over local
variables, with constant-folded bindings (memory depths, width masks
and pulse-port auto-clears are burned in as literals) -- compiled once
with ``compile()``/``exec`` and cached in a process-wide
:class:`~repro.compile_cache.CompileCache` keyed by a structural digest
of the FSM.

Semantics are bit-identical to the interpreter (the cross-backend
equivalence tests pin this):

* every expression is evaluated against the pre-edge environment;
* memory reads are asynchronous and feed wires visible to the rest of
  the cycle; register/port/memory commits land at the end of the cycle
  (read-during-write returns old data);
* pulse output ports auto-clear in states that do not write them;
* out-of-range memory accesses follow :mod:`repro.hls.memports` -- the
  one module both backends share for memory-port semantics.

The state bodies come from the behavioural level's one code-generation
walk (:mod:`repro.hls.emit`: naming, temp hoisting, evaluation and
commit order); :class:`_FsmPythonPrinter` adds the FSM statement forms
to the RTL level's :class:`~repro.rtl.compiled.PythonPrinter`.

Four entry points per compiled program:

* ``_step(env, mems, state, cycles, monitor)`` -- one FSM instance;
* ``_step_batch(envs, memss, states, cycles, monitor)`` -- N private
  instances advanced in one call (multi-pattern batching in the style
  of :mod:`repro.gatesim.compiled`): the per-call marshalling of the
  environment into locals is amortised over ``patterns x cycles``,
  which is where the >= 10x batch-throughput headline comes from;
* ``_step1`` / ``_step_batch1`` -- single-cycle fast paths.  Loading
  every variable into a local and storing it back costs ~2 dict
  operations per variable per call, but one state touches only a
  fraction of the environment -- so the single-cycle variants skip the
  marshalling and address ``env[...]`` directly, paying only for the
  names the dispatched state actually reads and writes.  Cycle-at-a-
  time callers (the behavioural DUT adapters, the verify harness, the
  fault-injection campaign) go through these.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..rtl.compiled import PythonPrinter
from . import memports
from .emit import front_end_cycle, fsm_names, state_bodies
from .interpreter import MemMonitor
from .ir import HlsProgram
from .schedule import Fsm

#: process-wide cache of compiled FSM programs
HLS_COMPILE_CACHE = CompileCache()


@dataclass
class HlsCompiledProgram:
    """A compiled FSM stepper (scalar and batch entry points)."""

    source: str
    #: ``fn_step(env, mems, state, cycles, monitor) -> state``
    fn_step: Callable
    #: ``fn_batch(envs, memss, states, cycles, monitor)`` (in-place)
    fn_batch: Callable
    #: ``fn_step1(env, mems, state, monitor) -> state`` (one cycle,
    #: direct env addressing -- no locals marshalling)
    fn_step1: Callable
    #: ``fn_batch1(envs, memss, states, monitor)`` (in-place)
    fn_batch1: Callable
    structural_key: str


class _FsmPythonPrinter(PythonPrinter):
    """Python FSM statement forms; *monitored* adds the memory-access
    callbacks a :data:`~repro.hls.interpreter.MemMonitor` receives."""

    def __init__(self, monitored: bool):
        self.monitored = monitored

    def mem_read(self, mem: str, addr: str, depth: int) -> str:
        return memports.READ_EXPR.format(storage=mem, addr=addr,
                                         depth=depth)

    def mem_write(self, mem: str, addr: str, data: str, depth: int,
                  m: str) -> List[str]:
        guard = memports.WRITE_GUARD.format(addr=addr, depth=depth)
        return [f"if {guard}:", f"    {mem}[{addr}] = {data}"]

    def next_state(self, guards: Sequence[Tuple[str, int]],
                   default: int) -> List[str]:
        if not guards:
            return [f"state = {default}"]
        lines = []
        for i, (cond, target) in enumerate(guards):
            lines += [f"{'if' if i == 0 else 'elif'} {cond}:",
                      f"    state = {target}"]
        return lines + ["else:", f"    state = {default}"]

    def monitor(self, mem: str, addr: str, depth: int,
                kind: str) -> List[str]:
        if not self.monitored:
            return []
        return [f"monitor({mem!r}, {addr}, {depth}, {kind!r})"]


def _cycle(printer: _FsmPythonPrinter, fsm: Fsm, name_of: Dict[str, str],
           mem_of: Dict[str, str]) -> List[str]:
    """One cycle: the ``if state == k`` chain over every state's body,
    inside the front end's two parts."""
    before, after = front_end_cycle(printer, fsm, name_of, mem_of)
    lines: List[str] = list(before)
    for i, (index, body) in enumerate(
            state_bodies(printer, fsm, name_of, mem_of)):
        lines.append(f"{'if' if i == 0 else 'elif'} state == {index}:")
        lines += ["    " + line for line in body] or ["    pass"]
    return lines + after


def generate_source(fsm: Fsm, monitored: bool) -> str:
    """Emit the FSM as Python source (a pure function of its structure)."""
    printer = _FsmPythonPrinter(monitored)
    name_of = fsm_names(fsm)
    mem_of = {name: f"mem{i}" for i, name in enumerate(fsm.program.memories)}

    load = [f"{local} = env[{name!r}]" for name, local in name_of.items()]
    load += [f"{local} = mems[{name!r}]"
             for name, local in mem_of.items()]
    store = [f"env[{name!r}] = {local}"
             for name, local in name_of.items()]
    body = _cycle(printer, fsm, name_of, mem_of)
    # single-cycle fast path: no load/store marshalling -- the state
    # body addresses the environment dict directly, so a call touches
    # only the names the dispatched state uses
    body1 = _cycle(printer, fsm,
                   {name: f"env[{name!r}]" for name in name_of},
                   {name: f"mems[{name!r}]" for name in mem_of})

    lines: List[str] = ["def _step(env, mems, state, cycles, monitor):"]
    lines += ["    " + line for line in load]
    lines.append("    for _ in range(cycles):")
    lines += ["        " + line for line in body]
    lines += ["    " + line for line in store]
    lines.append("    return state")
    lines.append("")
    lines.append("def _step_batch(envs, memss, states, cycles, monitor):")
    lines.append("    for p in range(len(envs)):")
    lines.append("        env = envs[p]")
    lines.append("        mems = memss[p]")
    lines.append("        state = states[p]")
    lines += ["        " + line for line in load]
    lines.append("        for _ in range(cycles):")
    lines += ["            " + line for line in body]
    lines += ["        " + line for line in store]
    lines.append("        states[p] = state")
    lines.append("")
    lines.append("def _step1(env, mems, state, monitor):")
    lines += ["    " + line for line in body1]
    lines.append("    return state")
    lines.append("")
    lines.append("def _step_batch1(envs, memss, states, monitor):")
    lines.append("    for p in range(len(envs)):")
    lines.append("        env = envs[p]")
    lines.append("        mems = memss[p]")
    lines.append("        state = states[p]")
    lines += ["        " + line for line in body1]
    lines.append("        states[p] = state")
    return "\n".join(lines) + "\n"


def fsm_digest(fsm: Fsm, monitored: bool = False) -> str:
    """Structural digest of the scheduled FSM (the cache key).

    The emitted source is a deterministic pure function of the FSM's
    states, bindings, memory ports and the monitor flag, so its hash
    is a faithful structural fingerprint: two FSMs scheduled to the
    same structure share one compiled artifact.
    """
    source = generate_source(fsm, monitored)
    return "hls:" + hashlib.sha256(source.encode()).hexdigest()


def compile_fsm(fsm: Fsm, monitored: bool = False,
                cache: Optional[CompileCache] = None) -> HlsCompiledProgram:
    """Compile *fsm* into scalar + batch steppers (cached)."""
    if cache is None:
        cache = HLS_COMPILE_CACHE
    source = generate_source(fsm, monitored)
    key = "hls:" + hashlib.sha256(source.encode()).hexdigest()

    def factory() -> HlsCompiledProgram:
        code = compile(source, f"<hls-compiled:{fsm.name}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        return HlsCompiledProgram(
            source=source,
            fn_step=namespace["_step"],  # type: ignore[arg-type]
            fn_batch=namespace["_step_batch"],  # type: ignore[arg-type]
            fn_step1=namespace["_step1"],  # type: ignore[arg-type]
            fn_batch1=namespace["_step_batch1"],  # type: ignore[arg-type]
            structural_key=key,
        )

    return cache.get_or_compile(key, factory)


def _fresh_memories(program: HlsProgram) -> Dict[str, List[int]]:
    return {
        mem.name: memports.init_storage(mem.depth, mem.width, mem.contents)
        for mem in program.memories.values()
    }


class CompiledFsm:
    """Drop-in compiled replacement for :class:`FsmInterpreter`.

    Exposes the interpreter's public surface -- ``set_input`` /
    ``get_output`` / ``write_memory`` / ``step`` / ``reset`` plus the
    ``env`` / ``memories`` / ``state`` / ``cycles`` attributes the
    fault-injection campaign pokes -- over the compiled stepper.
    """

    def __init__(self, fsm: Fsm, mem_monitor: Optional[MemMonitor] = None,
                 cache: Optional[CompileCache] = None):
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = mem_monitor
        self.compiled = compile_fsm(fsm, monitored=mem_monitor is not None,
                                    cache=cache)
        self.state = fsm.entry
        self.cycles = 0
        self.env = fsm.initial_env()
        self.memories = _fresh_memories(self.program)
        self._inputs = fsm.input_masks()

    # -- the FsmInterpreter-compatible surface -------------------------
    def set_input(self, name: str, value: int) -> None:
        self.env[name] = value & self._inputs[name]

    def get_output(self, name: str) -> int:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return self.env[name]

    def write_memory(self, mem: str, address: int, value: int) -> None:
        """External write access (for memories owned by another block)."""
        spec = self.program.memories[mem]
        memports.write_mem(self.memories[mem], address, spec.depth,
                           value, mask(spec.width))

    def step(self, cycles: int = 1) -> None:
        if cycles == 1:
            self.state = self.compiled.fn_step1(
                self.env, self.memories, self.state, self.mem_monitor)
        else:
            self.state = self.compiled.fn_step(
                self.env, self.memories, self.state, cycles,
                self.mem_monitor)
        self.cycles += cycles

    def reset(self) -> None:
        self.state = self.fsm.entry
        self.env.update(self.fsm.initial_env())
        for mem in self.program.memories.values():
            memports.reset_storage(self.memories[mem.name], mem.depth,
                                   mem.width, mem.contents)
        self.cycles = 0


class CompiledFsmBatch:
    """N private FSM instances advanced by one compiled call.

    Every pattern owns its environment, state and memory storage, so
    patterns are fully independent simulations (the fault-injection
    campaign pokes individual patterns); only the compiled code object
    is shared.  ``step(cycles)`` advances all patterns in one generated
    function call, amortising the locals marshalling over
    ``patterns x cycles``.
    """

    def __init__(self, fsm: Fsm, n_patterns: int,
                 mem_monitor: Optional[MemMonitor] = None,
                 cache: Optional[CompileCache] = None):
        if n_patterns < 1:
            raise ValueError(f"n_patterns must be >= 1, got {n_patterns}")
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.n_patterns = n_patterns
        self.mem_monitor = mem_monitor
        self.compiled = compile_fsm(fsm, monitored=mem_monitor is not None,
                                    cache=cache)
        self.states = [fsm.entry] * n_patterns
        self.cycles = 0
        self.envs = [fsm.initial_env() for _ in range(n_patterns)]
        self.memories = [_fresh_memories(self.program)
                         for _ in range(n_patterns)]
        self._inputs = fsm.input_masks()

    def set_input(self, name: str, value: int) -> None:
        """Broadcast one value to every pattern."""
        value &= self._inputs[name]
        for env in self.envs:
            env[name] = value

    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        m = self._inputs[name]
        if len(values) != self.n_patterns:
            raise ValueError(
                f"expected {self.n_patterns} values, got {len(values)}")
        for env, value in zip(self.envs, values):
            env[name] = value & m

    def get_output_patterns(self, name: str) -> List[int]:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return [env[name] for env in self.envs]

    def write_memory(self, pattern: int, mem: str, address: int,
                     value: int) -> None:
        """External write into one pattern's private storage."""
        spec = self.program.memories[mem]
        memports.write_mem(self.memories[pattern][mem], address,
                           spec.depth, value, mask(spec.width))

    def flip_bit(self, pattern: int, name: str, bit: int) -> None:
        """XOR one bit of one pattern's environment entry (fault pokes)."""
        env = self.envs[pattern]
        env[name] = env[name] ^ (1 << bit)

    def step(self, cycles: int = 1) -> None:
        if cycles == 1:
            self.compiled.fn_batch1(self.envs, self.memories, self.states,
                                    self.mem_monitor)
        else:
            self.compiled.fn_batch(self.envs, self.memories, self.states,
                                   cycles, self.mem_monitor)
        self.cycles += cycles
