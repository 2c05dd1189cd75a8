"""Compiled parallel-pattern gate-level simulation.

The interpreted :class:`~repro.gatesim.simulator.GateSimulator` pays one
Python call per cell evaluation per cycle.  This engine runs the gate
level's one kernel (:mod:`repro.gatesim.emit`: the whole clock edge in
``nat_run``, the input transposition in ``nat_set_patterns``, a
waveform replay in ``nat_replay``) printed as Python by
:class:`PythonPrinter` and loaded with ``compile()`` / ``exec`` -- the
classic compiled-code simulation technique, with bit-parallel pattern
packing on top:

* every net is held as **two bitplanes** ``(ones, unk)``; bit *p* of a
  plane belongs to stimulus pattern *p*.  ``ones`` marks bits known 1,
  ``unk`` marks unknown bits (X; Z collapses to X, which is exactly how
  gate inputs treat it).  The planes are disjoint and confined to the
  pattern mask ``M = (1 << n_patterns) - 1``;
* the planes are Python ints, so one pass evaluates any number of
  stimulus vectors: the engine has no pattern cap, where the native
  one packs 64 into a machine word;
* the settle values stay locals of ``nat_run``, memory ports read and
  write one flat pattern-major word image, and one call steps any
  number of cycles.

:class:`CompiledGateSimulator` is the native engine's host
(:class:`~repro.gatesim.native.NativeGateSimulator`) over a
:class:`~repro.native.PythonKernel`, with lists for buffers.  Kernels
are cached in-process in the shared ``COMPILE_CACHE`` keyed by a
structural hash of the netlist, so rebuilding the same design (e.g.
across benchmark repetitions) compiles exactly once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..compile_cache import CompileCache
from ..native import PythonKernel
from ..synth.netlist import Netlist
from .emit import (COMPILE_CACHE, GateProgram, Planes, emit_program,
                   indent, structural_hash)
from .native import NativeGateSimulator

__all__ = ["CompiledGateSimulator", "PythonPrinter", "compile_netlist"]


def _lane(planes: Sequence[Planes]) -> str:
    """Pattern ``p``'s bits of the ones *planes*, packed LSB first."""
    bits = [f"({ones} >> p & 1) << {i}" if i else f"{ones} >> p & 1"
            for i, (ones, _) in enumerate(planes)]
    return " | ".join(bits) or "0"


def _any(planes: Sequence[str]) -> str:
    return " | ".join(planes) or "0"


#: the C printer's ``nat_replay`` (:mod:`repro.gatesim.native`) in Python
_REPLAY_PY = """\
def nat_replay(S1, SX, R1, RX, MEM, M, NP, W, NW, ticks, SRC, NB,
               settle_after, OUT):
    w = 0
    for t in range(ticks):
        while w < NW and W[3 * w] == t:
            S1[W[3 * w + 1]] = M if W[3 * w + 2] else 0
            SX[W[3 * w + 1]] = 0
            w += 1
        nat_run(S1, SX, R1, RX, MEM, M, 1, NP, settle_after)
        o = t * NB
        for k in range(NB):
            i = SRC[k] >> 1
            if SRC[k] & 1:
                OUT[o + k] = R1[i] & 1 | (RX[i] & 1) << 1
            else:
                OUT[o + k] = S1[i] & 1 | (SX[i] & 1) << 1
"""


class PythonPrinter:
    """Python spelling of the gate walk: int plane locals, the whole
    settle in ``nat_run`` itself so the edge reads its locals, and R1/RX
    written as one tuple only on the settle a read observes
    (*settle_after*)."""

    word = None
    chunk_lines = None
    results_in_locals = True
    sep = "; "

    def let(self, stmt: str) -> str:
        return stmt

    assign = let

    def lets(self, *stmts: str) -> str:
        return self.sep.join(stmts)

    def mem_read(self, data: Sequence[Planes], addr: Sequence[Planes],
                 depth: int, off: int, words: int) -> List[str]:
        # an X address bit makes every data bit of its pattern X
        lines = [f"xa = {_any([x for _, x in addr])}"]
        if data:
            lines += [" = ".join([x for _, x in data] + ["xa"]),
                      " = ".join([a for a, _ in data] + ["0"])]
        lines += ["for p in range(NP):",
                  "    if not xa >> p & 1:",
                  f"        addr = {_lane(addr)}",
                  f"        if addr < {depth}:",
                  f"            w = MEM[p * {words} + {off} + addr]"]
        lines += [f"            {a} |= (w >> {i} & 1) << p"
                  for i, (a, _) in enumerate(data)]
        return lines

    def port_write(self, en: Planes, addr: Sequence[Planes],
                   data: Sequence[Planes], depth: int, off: int,
                   words: int) -> List[str]:
        # active on a 1 or X enable; an X address drops the write, X
        # data or an X enable writes 0
        return [f"act = ({en[0]} | {en[1]}) & M",
                "if act:",
                f"    wex = {en[1]}",
                f"    live = act & ~({_any([x for _, x in addr])})",
                f"    dx = {_any([x for _, x in data] + ['wex'])}",
                "    for p in range(NP):",
                "        if live >> p & 1:",
                f"            addr = {_lane(addr)}",
                f"            if addr < {depth}:",
                f"                MEM[p * {words} + {off} + addr] = "
                f"0 if dx >> p & 1 else {_lane(data)}"]

    def program(self, chunks: List[List[str]], edge: List[str],
                results: List[Planes]) -> str:
        (settle,) = chunks
        ones = "".join(f"{a}, " for a, _ in results)
        unks = "".join(f"{x}, " for _, x in results)
        lines = ["def nat_run(S1, SX, R1, RX, MEM, M, cycles, NP, "
                 "settle_after):",
                 "    for c in range(cycles + settle_after):"]
        lines += indent(settle, 8)
        lines += ["        if c == cycles:",
                  f"            R1[:] = ({ones})",
                  f"            RX[:] = ({unks})",
                  "            return"]
        lines += indent(edge, 8)
        return "\n".join(lines) + "\n\n" + _REPLAY_PY


def nat_set_patterns(S1, SX, slots, width, vals, NP) -> None:
    """Transpose NP per-pattern values into ``width`` input bitplanes:
    bit i of vals[p] lands in bit p of plane S1[slots[i]]."""
    planes = [0] * width
    w_mask = (1 << width) - 1
    for p in range(NP):
        value = vals[p] & w_mask
        bit = 1 << p
        i = 0
        while value:
            if value & 1:
                planes[i] |= bit
            value >>= 1
            i += 1
    for i in range(width):
        S1[slots[i]] = planes[i]
        SX[slots[i]] = 0


def compile_netlist(netlist: Netlist,
                    cache: Optional[CompileCache] = None) -> GateProgram:
    """Compile *netlist* into a loaded Python kernel.

    Consults (and fills) *cache* -- the module-level :data:`COMPILE_CACHE`
    by default -- keyed by :func:`structural_hash` tagged with the
    ``"compiled"`` backend, so the native engine, which shares the
    structural digest, keeps its own cache slots and stats.
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> GateProgram:
        program = emit_program(netlist, PythonPrinter())
        kernel = PythonKernel(program.source,
                              f"<gatesim-compiled:{netlist.name}>",
                              {"nat_set_patterns": nat_set_patterns})
        return replace(program, module=kernel, structural_key=key)

    return cache.get_or_compile(key, factory)


class CompiledGateSimulator(NativeGateSimulator):
    """The gate host (:class:`~repro.gatesim.native.NativeGateSimulator`,
    whose docstring describes the surface) over the kernel printed as
    Python: no pattern cap, and *run_cycles* is accepted for the native
    engine's sake (it falls back to this one) and unused -- generated
    Python has no build flags."""

    backend = "compiled"

    def _compile(self, netlist: Netlist, cache: Optional[CompileCache],
                 run_cycles: Optional[int]) -> GateProgram:
        return compile_netlist(netlist, cache=cache)

    #: nothing builds out of process: :func:`compile_netlist` runs
    #: in-process (so FI campaigns keep one overlay per batch, see
    #: :func:`repro.fi.campaign.shared_program`)
    start_build = None
