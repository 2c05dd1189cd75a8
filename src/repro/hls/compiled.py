"""Compiled behavioural simulation: the FSM kernel printed as Python.

The cycle interpreter (:mod:`repro.hls.interpreter`) pays one Python
closure call per micro-operation per cycle, plus dict traffic for every
variable access.  This engine runs the behavioural level's one kernel
(:mod:`repro.hls.emit`: ``nat_step_batch(ENVS, MEMS, STATES, cycles,
NP)`` -- an ``if state == k`` chain whose branches carry the state's
operations unrolled as straight-line statements, with constant-folded
bindings: memory depths, width masks and pulse-port auto-clears are
burned in as literals -- and the waveform replay ``nat_replay``)
printed as Python by :class:`_FsmPythonPrinter` and loaded with
``compile()``/``exec``.

The kernel reads and writes every environment entry and memory word
in place, at the pattern's offset of ``ENVS`` and ``MEMS``, so a call
touches only the entries the dispatched states use and copies
nothing.  Python ints have no word, so every width runs, where the
native print holds 64 bits.

:class:`CompiledFsmBatch` and :class:`CompiledFsm` are the native
engine's hosts (:mod:`repro.hls.native`) over a
:class:`~repro.native.PythonKernel`, with lists for buffers.  Kernels
are cached in :data:`~repro.hls.emit.HLS_COMPILE_CACHE` keyed by a
structural digest of the FSM (:func:`fsm_digest`).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..native import PythonKernel
from ..rtl.compiled import PythonPrinter
from ..rtl.emit import KernelProgram, load_program
from .emit import HLS_COMPILE_CACHE, emit_fsm
from .native import NativeFsm, NativeFsmBatch
from .schedule import Fsm

__all__ = ["CompiledFsm", "CompiledFsmBatch", "HLS_COMPILE_CACHE",
           "compile_fsm", "fsm_digest"]


class _FsmPythonPrinter(PythonPrinter):
    """Python FSM statement forms over pattern ``p``'s slots: its
    environment starts at ``ENVS[o]`` and its memory at ``MEMS[mo]``."""

    @staticmethod
    def env_entry(slot: int) -> str:
        return f"ENVS[o + {slot}]" if slot else "ENVS[o]"

    def word_at(self, base: int, addr: str) -> str:
        return (f"MEMS[mo + {base} + {addr}]" if base
                else f"MEMS[mo + {addr}]")

    def mem_write(self, mem: Tuple[int, int], addr: str, data: str,
                  depth: int, m: str) -> List[str]:
        return [f"if 0 <= {addr} < {depth}:",
                f"    {self.word_at(mem[0], addr)} = {data}"]

    def next_state(self, guards: Sequence[Tuple[str, int]],
                   default: int) -> List[str]:
        if not guards:
            return [f"state = {default}"]
        lines = []
        for i, (cond, target) in enumerate(guards):
            lines += [f"{'if' if i == 0 else 'elif'} {cond}:",
                      f"    state = {target}"]
        return lines + ["else:", f"    state = {default}"]

    def nat_step_batch(self, entries: List[str], mem_words: int,
                       before: List[str],
                       bodies: List[Tuple[int, List[str]]],
                       after: List[str]) -> str:
        """Every pattern each cycle (the patterns are independent, so
        the loops may nest either way; this way round a one-cycle call
        starts no loop per pattern); then ``nat_replay`` over pattern
        0."""
        lines = ["def nat_step_batch(ENVS, MEMS, STATES, cycles, NP):",
                 "    for c in range(cycles):",
                 "        for p in range(NP):",
                 f"            o = p * {len(entries)}",
                 f"            mo = p * {mem_words}",
                 "            state = STATES[p]"]
        lines += ["            " + line for line in before]
        for i, (index, body) in enumerate(bodies):
            lines.append(f"            {'if' if i == 0 else 'elif'} "
                         f"state == {index}:")
            lines += ["                " + line for line in body] or \
                ["                pass"]
        lines += ["            " + line for line in after]
        lines.append("            STATES[p] = state")
        return "\n".join(lines) + "\n\n" + self.nat_replay(
            "ENVS, MEMS, STATES", "ENVS",
            "nat_step_batch(ENVS, MEMS, STATES, 1, 1)",
            (("ENVS", len(entries)), ("MEMS", mem_words), ("STATES", 1)))


def fsm_digest(fsm: Fsm) -> str:
    """Structural digest of the scheduled FSM (the cache key).

    The emitted source is a deterministic pure function of the FSM's
    states, bindings and memory ports and names no entry, so its hash
    is a faithful structural fingerprint: two FSMs scheduled to the
    same structure share one compiled artifact.
    """
    source = emit_fsm(fsm, _FsmPythonPrinter()).source
    return "hls:" + hashlib.sha256(source.encode()).hexdigest()


def compile_fsm(fsm: Fsm,
                cache: Optional[CompileCache] = None) -> KernelProgram:
    """Compile *fsm* into a loaded Python kernel (cached)."""
    if cache is None:
        cache = HLS_COMPILE_CACHE
    program = emit_fsm(fsm, _FsmPythonPrinter())
    key = "hls:" + hashlib.sha256(program.source.encode()).hexdigest()
    return load_program(
        program, key,
        lambda source: PythonKernel(source, f"<hls-compiled:{fsm.name}>"),
        cache)


class CompiledFsmBatch(NativeFsmBatch):
    """The FSM batch host (:class:`~repro.hls.native.NativeFsmBatch`,
    whose docstring describes the surface) over the kernel printed as
    Python: no pattern cap and no width limit."""

    backend = "compiled"

    @staticmethod
    def _compile(fsm: Fsm, cache: Optional[CompileCache]) -> KernelProgram:
        return compile_fsm(fsm, cache=cache)


class CompiledFsm(NativeFsm):
    """:class:`~repro.hls.native.NativeFsm` over a one-pattern
    :class:`CompiledFsmBatch`."""

    backend = "compiled"
    batch_class = CompiledFsmBatch
