"""Native C-source behavioural simulation: scheduled FSMs as C.

Third engine tier of the behavioural backend family
(:mod:`repro.hls.interpreter` / :mod:`repro.hls.compiled` / this
module).  The scheduled FSM is emitted once as a C dispatch chain --
``if (state == k)`` branches carrying each state's operations as
straight-line ``uint64_t`` statements -- compiled to a shared object
by the host toolchain (see :mod:`repro.native`) and advanced entirely
outside the Python interpreter, one pattern or a batch of patterns per
call.

The one exported kernel is a pattern-major batch stepper: pattern
``p``'s environment lives at ``ENVS[p * n_names + slot]``, its memory
image at ``MEMS[p * mem_words + base + addr]``, its control state at
``STATES[p]``.  :class:`NativeFsm` is a single-pattern batch wearing
the scalar interpreter surface.

Semantics are bit-identical to the interpreter and the compiled
backend (the cross-backend equivalence tests pin this): evaluation
against the pre-edge environment, asynchronous memory reads
(out-of-range reads 0, matching :mod:`repro.hls.memports`),
end-of-cycle commits, pulse auto-clears.  The state bodies come from
the behavioural level's one code-generation walk
(:mod:`repro.hls.emit`); :class:`_FsmCPrinter` adds the FSM statement
forms to the RTL level's :class:`~repro.rtl.native.CPrinter`.

Programs are cached in :data:`~repro.hls.compiled.HLS_COMPILE_CACHE`
under the ``"native"`` backend tag, keyed by the C source digest; a
memory monitor needs per-access Python callbacks, which have no native
form -- monitored simulations must use the interpreted or compiled
engine.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..native import NativeModule, compile_and_load
from ..rtl.native import (_PRELUDE, CPrinter, _NativeEnv, for_design,
                          memory_layout)
from .compiled import HLS_COMPILE_CACHE
from .emit import front_end_cycle, fsm_names, state_bodies
from .ir import HlsProgram
from .schedule import Fsm

__all__ = [
    "HlsNativeProgram", "NativeFsm", "NativeFsmBatch",
    "compile_fsm_native", "generate_native_source",
]

_CDEF = ("void nat_step_batch(uint64_t* ENVS, uint64_t* MEMS, "
         "uint64_t* STATES, long cycles, int NP);")


@dataclass
class HlsNativeProgram:
    """A compiled pattern-major FSM batch stepper."""

    source: str
    module: NativeModule
    #: ``run(ENVS, MEMS, STATES, cycles, NP)`` (in-place)
    run: object
    name_index: Dict[str, int]
    n_names: int
    #: ``(name, base, depth, width)`` rows of the flat image
    mem_layout: list
    mem_words: int
    structural_key: str


class _FsmCPrinter(CPrinter):
    """C FSM statement forms over one pattern's ``MEM`` image."""

    def mem_write(self, mem: Tuple[int, int], addr: str, data: str,
                  depth: int, m: str) -> List[str]:
        base, _ = mem
        return [f"if (({addr}) < {depth}ULL) "
                f"{{ MEM[{base}ULL + ({addr})] = {data}; }}"]

    def next_state(self, guards: Sequence[Tuple[str, int]],
                   default: int) -> List[str]:
        if not guards:
            return [f"state = {default}ULL;"]
        lines = [f"{'if' if i == 0 else 'else if'} ({cond}) "
                 f"{{ state = {target}ULL; }}"
                 for i, (cond, target) in enumerate(guards)]
        return lines + [f"else {{ state = {default}ULL; }}"]

    def monitor(self, mem: str, addr: str, depth: int,
                kind: str) -> List[str]:
        return []


def generate_native_source(fsm: Fsm):
    """Emit the FSM as C; returns ``(source, name_index, mem_layout)``."""
    name_of = fsm_names(fsm)
    name_index = {name: i for i, name in enumerate(name_of)}
    mem_of, mem_layout = memory_layout(fsm.program.memories.values())
    mem_words = sum(depth for _, _, depth, _ in mem_layout)
    printer = _FsmCPrinter()
    bodies = state_bodies(printer, fsm, name_of, mem_of)
    before, after = front_end_cycle(printer, fsm, name_of, mem_of)

    n_names = len(name_of)
    lines = [_PRELUDE,
             "void nat_step_batch(uint64_t* ENVS, uint64_t* MEMS, "
             "uint64_t* STATES, long cycles, int NP)", "{",
             "    for (int p = 0; p < NP; p++) {",
             f"        uint64_t* E = ENVS + (long)p * {n_names}L;",
             f"        uint64_t* MEM = MEMS + (long)p * {mem_words}L;",
             "        (void)MEM;",
             "        uint64_t state = STATES[p];"]
    for name, idx in name_index.items():
        lines.append(f"        uint64_t {name_of[name]} = E[{idx}];")
    lines.append("        for (long c = 0; c < cycles; c++) {")
    lines += ["            " + line for line in before]
    for i, (index, body) in enumerate(bodies):
        kw = "if" if i == 0 else "else if"
        lines.append(f"            {kw} (state == {index}ULL) {{")
        lines += ["                " + line for line in body]
        lines.append("            }")
    lines += ["            " + line for line in after]
    lines.append("        }")
    for name, idx in name_index.items():
        lines.append(f"        E[{idx}] = {name_of[name]};")
    lines.append("        STATES[p] = state;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", name_index, mem_layout


def compile_fsm_native(fsm: Fsm,
                       cache: Optional[CompileCache] = None
                       ) -> HlsNativeProgram:
    """Compile *fsm* into a native batch stepper (cached).

    Keyed by the digest of the generated C source in the shared HLS
    compile cache under the ``"native"`` backend tag; the shared object
    additionally persists in the on-disk cache so recompiles survive
    process restarts.
    """
    if cache is None:
        cache = HLS_COMPILE_CACHE
    source, name_index, mem_layout = generate_native_source(fsm)
    key = "hls-c:" + hashlib.sha256(source.encode()).hexdigest()

    def factory() -> HlsNativeProgram:
        mod = compile_and_load(source, _CDEF, tag="hls")
        return HlsNativeProgram(
            source=source,
            module=mod,
            run=mod.fn("nat_step_batch"),
            name_index=dict(name_index),
            n_names=len(name_index),
            mem_layout=list(mem_layout),
            mem_words=sum(d for _, _, d, _ in mem_layout),
            structural_key=key,
        )

    return for_design(cache.get_or_compile(key, factory, backend="native"),
                      name_index, mem_layout)


class NativeFsmBatch:
    """N private FSM instances advanced by one native call.

    The surface mirrors :class:`~repro.hls.compiled.CompiledFsmBatch`
    -- ``set_input`` (broadcast) / ``set_input_patterns`` /
    ``get_output_patterns`` / ``write_memory`` / ``step`` / ``reset``
    -- with ``envs[p]`` dict-like views over the pattern-major state
    array; faults are poked into individual patterns with plain
    ``envs[p][name] ^= 1 << bit`` or :meth:`flip_bit`.

    A name's N lanes are the strided slice ``envs_v[idx::n_names]`` of
    that array, so a port is written with one slice assignment and
    read with one ``tolist()``.
    """

    backend = "native"

    def __init__(self, fsm: Fsm, n_patterns: int, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        if n_patterns < 1:
            raise ValueError(f"n_patterns must be >= 1, got {n_patterns}")
        if mem_monitor is not None:
            raise ValueError(
                "the native behavioural backend has no memory-monitor "
                "support (use 'interpreted' or 'compiled')")
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.n_patterns = n_patterns
        self.mem_monitor = None
        self.compiled = compile_fsm_native(fsm, cache=cache)
        self.cycles = 0
        prog = self.compiled
        mod = prog.module
        self._envs = mod.u64_buffer(prog.n_names * n_patterns)
        self._mems = mod.u64_buffer(max(prog.mem_words * n_patterns, 1))
        self._states = mod.u64_buffer(n_patterns)
        # Python-side reads/pokes go through flat memoryviews -- raw
        # FFI array indexing is ~4x slower (see NativeModule.u64_view)
        self._envs_v = mod.u64_view(self._envs)
        self._mems_v = mod.u64_view(self._mems)[
            :prog.mem_words * n_patterns]
        self._states_v = mod.u64_view(self._states)
        lanes = {name: self._envs_v[idx::prog.n_names]
                 for name, idx in prog.name_index.items()}
        #: input -> (its lanes, its width mask); output port -> lanes
        self._inputs = {name: (lanes[name], m)
                        for name, m in fsm.input_masks().items()}
        self._outputs = {p.name: lanes[p.name]
                         for p in self.program.ports.values()
                         if p.direction == "out"}
        # one pattern's power-on environment (front-end register inits)
        self._env_image = array("Q", fsm.initial_env().values())
        # one pattern's power-on memory image: ROM contents (from *fsm*,
        # see memory_layout), RAM zeros
        image = [0] * prog.mem_words
        for name, base, depth, width in prog.mem_layout:
            contents = self.program.memories[name].contents
            if contents is not None:
                image[base:base + depth] = [v & mask(width)
                                            for v in contents]
        self._mem_image = array("Q", image)
        self._run = prog.run
        self.envs = [
            _NativeEnv(self._envs_v, prog.name_index, p * prog.n_names)
            for p in range(n_patterns)
        ]
        self.reset()

    # -- the CompiledFsmBatch-compatible surface -----------------------
    def _in_port(self, name: str):
        entry = self._inputs.get(name)
        if entry is None:
            raise KeyError(f"{name!r} is not an input port")
        return entry

    def set_input(self, name: str, value: int) -> None:
        """Broadcast one value to every pattern."""
        lanes, m = self._in_port(name)
        lanes[:] = array("Q", [value & m]) * self.n_patterns

    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        lanes, m = self._in_port(name)
        if len(values) != self.n_patterns:
            raise ValueError(
                f"expected {self.n_patterns} values, got {len(values)}")
        try:
            if max(values) <= m:
                lanes[:] = array("Q", values)
                return
        except OverflowError:  # a negative value
            pass
        lanes[:] = array("Q", [v & m for v in values])

    def get_output_patterns(self, name: str) -> List[int]:
        lanes = self._outputs.get(name)
        if lanes is None:
            raise KeyError(f"{name!r} is not an output port")
        return lanes.tolist()

    def write_memory(self, pattern: int, mem: str, address: int,
                     value: int) -> None:
        """External write into one pattern's private storage."""
        spec = self.program.memories[mem]
        if 0 <= address < spec.depth:
            base = next(b for n, b, _, _ in self.compiled.mem_layout
                        if n == mem)
            off = pattern * self.compiled.mem_words
            self._mems_v[off + base + address] = value & mask(spec.width)

    def peek_memory(self, pattern: int, mem: str) -> List[int]:
        """One pattern's private storage as a list."""
        for name, base, depth, _ in self.compiled.mem_layout:
            if name == mem:
                off = pattern * self.compiled.mem_words + base
                return self._mems_v[off:off + depth].tolist()
        raise KeyError(f"no memory named {mem!r}")

    def flip_bit(self, pattern: int, name: str, bit: int) -> None:
        """XOR one bit of one pattern's environment entry (fault pokes)."""
        env = self.envs[pattern]
        env[name] = env[name] ^ (1 << bit)

    @property
    def states(self) -> List[int]:
        return self._states_v.tolist()

    def step(self, cycles: int = 1) -> None:
        self._run(self._envs, self._mems, self._states, cycles,
                  self.n_patterns)
        self.cycles += cycles

    def reset(self) -> None:
        n = self.n_patterns
        self._states_v[:] = array("Q", [self.fsm.entry]) * n
        self._envs_v[:] = self._env_image * n
        self._mems_v[:] = self._mem_image * n
        self.cycles = 0


class NativeFsm:
    """Single-pattern native FSM with the scalar interpreter surface.

    Drop-in for :class:`~repro.hls.compiled.CompiledFsm` /
    :class:`~repro.hls.interpreter.FsmInterpreter` where no memory
    monitor is needed: ``env`` is the dict-like pattern-0 view (XOR
    pokes work), ``set_input`` / ``get_output`` / ``write_memory`` /
    ``step`` / ``reset`` behave identically.
    """

    backend = "native"

    def __init__(self, fsm: Fsm, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        self._batch = NativeFsmBatch(fsm, 1, mem_monitor=mem_monitor,
                                     cache=cache)
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = None
        self.env = self._batch.envs[0]

    @property
    def state(self) -> int:
        return self._batch._states_v[0]

    @property
    def cycles(self) -> int:
        return self._batch.cycles

    def set_input(self, name: str, value: int) -> None:
        lanes, m = self._batch._in_port(name)
        lanes[0] = value & m

    def get_output(self, name: str) -> int:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return self.env[name]

    def write_memory(self, mem: str, address: int, value: int) -> None:
        self._batch.write_memory(0, mem, address, value)

    def peek_memory(self, mem: str) -> List[int]:
        return self._batch.peek_memory(0, mem)

    def step(self, cycles: int = 1) -> None:
        b = self._batch
        b._run(b._envs, b._mems, b._states, cycles, 1)
        b.cycles += cycles

    def reset(self) -> None:
        self._batch.reset()
