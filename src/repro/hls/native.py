"""Native C-source behavioural simulation, and the host of both
generated-code FSM engines.

The behavioural level's one code-generation walk (:mod:`repro.hls.emit`)
emits a scheduled FSM as one pattern-major batch kernel,
``nat_step_batch(ENVS, MEMS, STATES, cycles, NP)``, and beside it
``nat_replay``, which runs a whole port waveform on pattern 0.
:class:`_FsmCPrinter` adds the FSM statement forms to the RTL level's
:class:`~repro.rtl.native.CPrinter` and spells the kernel as a C
dispatch chain -- ``if (state == k)`` branches carrying each state's
operations as straight-line ``uint64_t`` statements -- compiled to a
shared object by the host toolchain (see :mod:`repro.native`) and
advanced entirely outside the Python interpreter, one pattern or a
batch of patterns per call.

:class:`NativeFsmBatch` is the one FSM host: N private FSM instances
over the kernel's buffers, and :class:`NativeFsm` a single-pattern
batch wearing the scalar interpreter surface.  The compiled engine
(:mod:`repro.hls.compiled`) is these classes over the same kernel
printed as Python, with lists for buffers.

Semantics are bit-identical to the interpreter (the cross-backend
equivalence tests pin this): evaluation against the pre-edge
environment, asynchronous memory reads (out-of-range reads 0, matching
:mod:`repro.hls.memports`), end-of-cycle commits, pulse auto-clears.

Programs are cached in :data:`~repro.hls.emit.HLS_COMPILE_CACHE` under
the ``"native"`` backend tag, keyed by the C source digest.  A memory
monitor needs per-access Python callbacks, which no kernel makes:
monitored simulations run on the interpreted engine.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..native import compile_and_load
from ..rtl.emit import KernelProgram, load_program
from ..rtl.native import _PRELUDE, CPrinter, _KernelEnv, kernel_replay
from .emit import HLS_COMPILE_CACHE, emit_fsm
from .ir import HlsProgram
from .schedule import Fsm

__all__ = ["NativeFsm", "NativeFsmBatch", "compile_fsm_native"]

_CDEF = ("void nat_step_batch(uint64_t* ENVS, uint64_t* MEMS, "
         "uint64_t* STATES, long cycles, int NP);\n"
         "long nat_replay(uint64_t* ENVS, uint64_t* MEMS, uint64_t* STATES, "
         "uint64_t* S, uint64_t* W, long NW, long ticks, uint64_t* SRC, "
         "int NB, uint64_t* OUT);")


class _FsmCPrinter(CPrinter):
    """C FSM statement forms over one pattern's ``MEM`` image."""

    @staticmethod
    def env_entry(slot: int) -> str:
        return f"v{slot}"

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

    def nat_step_batch(self, entries: List[str], mem_words: int,
                       before: List[str],
                       bodies: List[Tuple[int, List[str]]],
                       after: List[str]) -> str:
        """Per pattern, every environment entry a local loaded from
        and stored back to its slots; then ``nat_replay`` over pattern
        0, whose step reads its environment, memory and state."""
        n_names = len(entries)
        lines = [_PRELUDE,
                 "void nat_step_batch(uint64_t* ENVS, uint64_t* MEMS, "
                 "uint64_t* STATES, long cycles, int NP)", "{",
                 "    for (int p = 0; p < NP; p++) {",
                 f"        uint64_t* E = ENVS + (long)p * {n_names}L;",
                 f"        uint64_t* MEM = MEMS + (long)p * {mem_words}L;",
                 "        (void)MEM;",
                 "        uint64_t state = STATES[p];"]
        lines += [f"        uint64_t {local} = E[{idx}];"
                  for idx, local in enumerate(entries)]
        lines.append("        for (long c = 0; c < cycles; c++) {")
        lines += ["            " + line for line in before]
        for i, (index, body) in enumerate(bodies):
            kw = "if" if i == 0 else "else if"
            lines.append(f"            {kw} (state == {index}ULL) {{")
            lines += ["                " + line for line in body]
            lines.append("            }")
        lines += ["            " + line for line in after]
        lines.append("        }")
        lines += [f"        E[{idx}] = {local};"
                  for idx, local in enumerate(entries)]
        lines += ["        STATES[p] = state;", "    }", "}"]
        return "\n".join(lines) + "\n\n" + self.nat_replay(
            "uint64_t* ENVS, uint64_t* MEMS, uint64_t* STATES", "ENVS",
            "nat_step_batch(ENVS, MEMS, STATES, 1, 1)",
            (("ENVS", n_names), ("MEMS", mem_words), ("STATES", 1)))


def compile_fsm_native(fsm: Fsm,
                       cache: Optional[CompileCache] = None
                       ) -> KernelProgram:
    """Compile *fsm* into a native batch stepper (cached).

    Keyed by the digest of the generated C source in the shared HLS
    compile cache under the ``"native"`` backend tag; the shared object
    additionally persists in the on-disk cache so recompiles survive
    process restarts.
    """
    if cache is None:
        cache = HLS_COMPILE_CACHE
    program = emit_fsm(fsm, _FsmCPrinter())
    key = "hls-c:" + hashlib.sha256(program.source.encode()).hexdigest()
    return load_program(
        program, key, lambda source: compile_and_load(source, _CDEF,
                                                      tag="hls"),
        cache, backend="native")


class NativeFsmBatch:
    """N private FSM instances advanced by one kernel call.

    ``set_input`` (broadcast) / ``set_input_patterns`` /
    ``get_output_patterns`` / ``write_memory`` / ``peek_memory`` /
    ``step`` / ``reset``, with ``envs[p]`` dict-like views over the
    pattern-major state array; faults are poked into individual
    patterns with plain ``envs[p][name] ^= 1 << bit`` or
    :meth:`flip_bit`.  Every pattern owns its environment, state and
    memory storage, so patterns are fully independent simulations.

    A name's N lanes are every ``n_slots``-th slot of that array
    (the kernel module's ``u64_lanes``), so a port is written with one
    slice assignment and read with one ``tolist()``.  Subclasses change
    only the kernel build (:meth:`_compile`).
    """

    backend = "native"

    def __init__(self, fsm: Fsm, n_patterns: int, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        if n_patterns < 1:
            raise ValueError(f"n_patterns must be >= 1, got {n_patterns}")
        if mem_monitor is not None:
            raise ValueError(
                f"the {self.backend} behavioural backend has no "
                "memory-monitor support (use 'interpreted')")
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.n_patterns = n_patterns
        self.mem_monitor = None
        self.compiled = self._compile(fsm, cache)
        self.cycles = 0
        prog = self.compiled
        mod = prog.module
        self._words = mod.u64_words
        self._envs = mod.u64_buffer(prog.n_slots * n_patterns)
        self._mems = mod.u64_buffer(max(prog.mem_words * n_patterns, 1))
        self._states = mod.u64_buffer(n_patterns)
        # Python-side reads/pokes go through flat views -- raw FFI
        # array indexing is ~4x slower (see NativeModule.u64_view)
        self._envs_v = mod.u64_view(self._envs)
        self._mems_v = mod.u64_view(self._mems)
        self._states_v = mod.u64_view(self._states)
        lanes = {name: mod.u64_lanes(self._envs_v, idx, prog.n_slots)
                 for name, idx in prog.name_index.items()}
        #: input -> (its lanes, its width mask); output port -> lanes
        self._inputs = {name: (lanes[name], m)
                        for name, m in fsm.input_masks().items()}
        self._outputs = {p.name: lanes[p.name]
                         for p in self.program.ports.values()
                         if p.direction == "out"}
        # one pattern's power-on environment (front-end register inits)
        self._env_image = self._words(fsm.initial_env().values())
        # one pattern's power-on memory image: ROM contents (from *fsm*,
        # see memory_layout), RAM zeros
        image = [0] * prog.mem_words
        for name, base, depth, width in prog.mem_layout:
            contents = self.program.memories[name].contents
            if contents is not None:
                image[base:base + depth] = [v & mask(width)
                                            for v in contents]
        self._mem_image = self._words(image)
        self._run = mod.fn("nat_step_batch")
        self.envs = [
            _KernelEnv(self._envs_v, prog.name_index, p * prog.n_slots,
                       mod.u64_mask)
            for p in range(n_patterns)
        ]
        self.reset()

    @staticmethod
    def _compile(fsm: Fsm, cache: Optional[CompileCache]) -> KernelProgram:
        """The loaded kernel of *fsm*: C."""
        return compile_fsm_native(fsm, cache=cache)

    # -- the batch surface ---------------------------------------------
    def _in_port(self, name: str):
        entry = self._inputs.get(name)
        if entry is None:
            raise KeyError(f"{name!r} is not an input port")
        return entry

    def set_input(self, name: str, value: int) -> None:
        """Broadcast one value to every pattern."""
        lanes, m = self._in_port(name)
        lanes[:] = self._words([value & m]) * self.n_patterns

    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        lanes, m = self._in_port(name)
        if len(values) != self.n_patterns:
            raise ValueError(
                f"expected {self.n_patterns} values, got {len(values)}")
        try:
            if max(values) <= m:
                lanes[:] = self._words(values)
                return
        except OverflowError:  # a negative value
            pass
        lanes[:] = self._words([v & m for v in values])

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
                return list(self._mems_v[off:off + depth])
        raise KeyError(f"no memory named {mem!r}")

    @property
    def memories(self) -> List[Dict[str, List[int]]]:
        """Every pattern's memories, as lists (a copy)."""
        return [{mem: self.peek_memory(p, mem)
                 for mem in self.program.memories}
                for p in range(self.n_patterns)]

    def flip_bit(self, pattern: int, name: str, bit: int) -> None:
        """XOR one bit of one pattern's environment entry (fault pokes)."""
        env = self.envs[pattern]
        env[name] = env[name] ^ (1 << bit)

    @property
    def states(self) -> List[int]:
        return list(self._states_v)

    def step(self, cycles: int = 1) -> None:
        self._run(self._envs, self._mems, self._states, cycles,
                  self.n_patterns)
        self.cycles += cycles

    def reset(self) -> None:
        n = self.n_patterns
        self._states_v[:] = self._words([self.fsm.entry]) * n
        self._envs_v[:] = self._env_image * n
        self._mems_v[:len(self._mem_image) * n] = self._mem_image * n
        self.cycles = 0


class NativeFsm:
    """Single-pattern FSM with the scalar interpreter surface.

    Drop-in for :class:`~repro.hls.interpreter.FsmInterpreter` where no
    memory monitor is needed: ``env`` is the dict-like pattern-0 view
    (XOR pokes work), ``set_input`` / ``get_output`` / ``write_memory``
    / ``step`` / ``reset`` behave identically.  It is a one-pattern
    :attr:`batch_class`, so a subclass changes only that class.
    """

    backend = "native"
    #: the host of the one pattern
    batch_class = NativeFsmBatch

    def __init__(self, fsm: Fsm, mem_monitor=None,
                 cache: Optional[CompileCache] = None):
        self._batch = self.batch_class(fsm, 1, mem_monitor=mem_monitor,
                                       cache=cache)
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = None
        self.env = self._batch.envs[0]
        # pattern 0's slots, read and written through the batch's view
        self._v = self._batch._envs_v
        index = self._batch.compiled.name_index
        #: input -> (its slot, its width mask); output port -> its slot
        self._inputs = {name: (index[name], m)
                        for name, (_, m) in self._batch._inputs.items()}
        self._outputs = {name: index[name] for name in self._batch._outputs}
        #: each input's one field for nat_replay's write rows
        self._fields = {name: [(slot, 0, m)]
                        for name, (slot, m) in self._inputs.items()}
        self._replay = self._batch.compiled.module.fn("nat_replay")
        #: nat_replay's snapshot of a tick's start state
        self._snapshot = self._batch.compiled.module.u64_buffer(
            self._batch.compiled.state_words)

    @property
    def state(self) -> int:
        return self._batch._states_v[0]

    @property
    def cycles(self) -> int:
        return self._batch.cycles

    def set_input(self, name: str, value: int) -> None:
        entry = self._inputs.get(name)
        if entry is None:
            raise KeyError(f"{name!r} is not an input port")
        self._v[entry[0]] = value & entry[1]

    def get_output(self, name: str) -> int:
        slot = self._outputs.get(name)
        if slot is None:
            raise KeyError(f"{name!r} is not an output port")
        return self._v[slot]

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[tuple]:
        """Run *waveform* and read the output *ports* after every tick,
        in one ``nat_replay`` call (see :mod:`repro.engines`): per
        tick, the tuple of their ``get_output`` values."""
        srcs = []
        for name in ports:
            slot = self._outputs.get(name)
            if slot is None:
                raise KeyError(f"{name!r} is not an output port")
            srcs.append(slot)
        b = self._batch
        samples = kernel_replay(
            b.compiled.module, self._replay,
            (b._envs, b._mems, b._states, self._snapshot), "beh",
            waveform, self._fields, self.set_input, srcs)
        b.cycles += len(waveform)
        return samples

    def write_memory(self, mem: str, address: int, value: int) -> None:
        self._batch.write_memory(0, mem, address, value)

    def peek_memory(self, mem: str) -> List[int]:
        return self._batch.peek_memory(0, mem)

    @property
    def memories(self) -> Dict[str, List[int]]:
        """Every memory, as lists (a copy)."""
        return self._batch.memories[0]

    def step(self, cycles: int = 1) -> None:
        b = self._batch
        b._run(b._envs, b._mems, b._states, cycles, 1)
        b.cycles += cycles

    def reset(self) -> None:
        self._batch.reset()
