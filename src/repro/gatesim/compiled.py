"""Compiled parallel-pattern gate-level simulation.

The interpreted :class:`~repro.gatesim.simulator.GateSimulator` pays one
Python call per cell evaluation per cycle.  This engine prints the gate
level's one program, the op table of :mod:`repro.gatesim.emit`, as a
straight-line Python kernel (:class:`PythonPrinter`: the whole clock
edge in ``nat_run``, a waveform replay in ``nat_replay``; the input
transposition is :func:`nat_set_patterns`) and loads it with
``compile()`` / ``exec`` -- the classic compiled-code simulation
technique, with bit-parallel pattern packing on top:

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

The native engine's C kernel walks the same table, so the two engines
read one program.  :class:`CompiledGateSimulator` is the native
engine's host (:class:`~repro.gatesim.native.NativeGateSimulator`) over
a :class:`~repro.native.PythonKernel`, with lists for buffers.  Kernels
are cached in-process in the shared ``COMPILE_CACHE`` keyed by a
structural hash of the netlist, so rebuilding the same design (e.g.
across benchmark repetitions) compiles exactly once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Set, Tuple

from ..compile_cache import CompileCache
from ..native import PythonKernel
from ..synth.library import CODEGEN
from ..synth.netlist import Netlist
from .emit import (CELL_OPS, COMPILE_CACHE, HEADER, OP_READ, OP_SDFF,
                   OP_WRITE, GateProgram, emit_program, structural_hash,
                   table_ops)
from .native import NativeGateSimulator

__all__ = ["CompiledGateSimulator", "PythonPrinter", "compile_netlist"]

#: a value's two plane operands, (ones, unknowns)
Planes = Tuple[str, str]


def _indent(lines: Sequence[str], depth: int) -> List[str]:
    """*lines* shifted right by *depth* spaces, joined into one block
    (no per-line copies of a large kernel)."""
    if not lines:
        return []
    pad = " " * depth
    return [pad + ("\n" + pad).join(lines)]


def _lane(planes: Sequence[Planes]) -> str:
    """Pattern ``p``'s bits of the ones *planes*, packed LSB first."""
    bits = [f"({ones} >> p & 1) << {i}" if i else f"{ones} >> p & 1"
            for i, (ones, _) in enumerate(planes)]
    return " | ".join(bits) or "0"


def _any(planes: Sequence[str]) -> str:
    return " | ".join(planes) or "0"


#: the C kernel's ``nat_replay`` (:mod:`repro.gatesim.native`) in Python
_REPLAY_PY = """\
def nat_replay(T, V1, VX, MEM, M, NP, NS, S, W, NW, ticks, SRC, NB,
               settle_after, OUT):
    w = stepped = 0
    for t in range(ticks):
        while w < NW and W[3 * w] == t:
            V1[W[3 * w + 1]] = M if W[3 * w + 2] else 0
            VX[W[3 * w + 1]] = 0
            w += 1
        state = V1[:NS] + VX[:NS] + MEM
        if t == 0 or state != S:
            S[:] = state
            nat_run(T, V1, VX, MEM, M, 1, NP, settle_after)
            stepped += 1
        o = t * NB
        for k in range(NB):
            i = SRC[k]
            OUT[o + k] = V1[i] & 1 | (VX[i] & 1) << 1
    return stepped
"""


class PythonPrinter:
    """A gate program's table spelled as Python: int plane locals, the
    whole settle in ``nat_run`` itself so the edge reads its locals, the
    results written to V1/VX as one tuple only on the settle a read
    observes (*settle_after*), and the scan mux's select computed once
    per scan-enable net.  The settle loads a state slot into locals
    where it first reads it; the edge reads the other slots in place,
    and only its commits store to them."""

    def program(self, program: GateProgram) -> str:
        table = program.table
        n_state = len(program.state_uids)
        words = table[0]
        loaded: Set[int] = set()
        body: List[str] = []

        def ref(i: int, load: bool = True) -> Planes:
            """A value's planes to read: its locals, into which an
            unloaded state slot is loaded first if *load*, else read in
            place."""
            a, x = f"a{i}", f"x{i}"
            if i < n_state and i not in loaded:
                if not load:
                    return f"V1[{i}]", f"VX[{i}]"
                loaded.add(i)
                body.append(f"{a} = V1[{i}]; {x} = VX[{i}]")
            return a, x

        def target(i: int) -> Planes:
            if i < n_state:  # a commit
                return f"V1[{i}]", f"VX[{i}]"
            return f"a{i}", f"x{i}"

        def walk(lo: int, hi: int, load: bool) -> List[str]:
            """The ops of ``table[lo:hi]``; *load*: state slots the
            statements read are loaded into locals (the settle, where
            cells share them), else read in place (the edge, where each
            is read once)."""
            nonlocal body
            body = []

            def refs(ids: Sequence[int]) -> List[Planes]:
                return [ref(i, load) for i in ids]

            selects: Set[int] = set()
            for op, rows in table_ops(table, lo, hi):
                for row in rows:
                    if op == OP_READ:
                        depth, off, na = row[:3]
                        body += self.mem_read(
                            [target(i) for i in row[4 + na:]],
                            refs(row[4:4 + na]), depth, off, words)
                    elif op == OP_WRITE:
                        depth, off, na = row[:3]
                        body += self.port_write(
                            ref(row[4], load), refs(row[5:5 + na]),
                            refs(row[5 + na:]), depth, off, words)
                    elif op == OP_SDFF:
                        # the scan enable's planes and e0 once per net
                        nxt, d, si, se = row
                        e1, ex = ref(se)
                        if se not in selects:
                            selects.add(se)
                            body.append(f"e0_{se} = M & ~({e1} | {ex})")
                        (d1, dx), (s1, sx) = refs((d, si))
                        n1, nx = target(nxt)
                        body += [
                            f"{n1} = ({e1} & {s1}) | (e0_{se} & {d1})",
                            f"{nx} = ({e1} & {sx}) | (e0_{se} & {dx}) | {ex}"]
                    else:
                        out, *ins = row
                        body += CODEGEN[CELL_OPS[op]](
                            target(out), refs(ins), f"t{out}_")
            return body

        settle = walk(HEADER, table[1], True)
        edge = walk(table[1], table[2], False)
        lo, hi = n_state, n_state + len(program.result_uids)
        ones = "".join(f"a{i}, " for i in range(lo, hi))
        unks = "".join(f"x{i}, " for i in range(lo, hi))
        lines = ["def nat_run(T, V1, VX, MEM, M, cycles, NP, settle_after):",
                 "    for c in range(cycles + settle_after):"]
        lines += _indent(settle, 8)
        lines += ["        if c == cycles:",
                  f"            V1[{lo}:{hi}] = ({ones})",
                  f"            VX[{lo}:{hi}] = ({unks})",
                  "            return"]
        lines += _indent(edge, 8)
        return "\n".join(lines) + "\n\n" + _REPLAY_PY

    @staticmethod
    def mem_read(data: Sequence[Planes], addr: Sequence[Planes],
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

    @staticmethod
    def port_write(en: Planes, addr: Sequence[Planes],
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


def nat_set_patterns(V1, VX, slots, width, vals, NP) -> None:
    """Transpose NP per-pattern values into ``width`` input bitplanes:
    bit i of vals[p] lands in bit p of plane V1[slots[i]]."""
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
        V1[slots[i]] = planes[i]
        VX[slots[i]] = 0


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
        program = emit_program(netlist)
        source = PythonPrinter().program(program)
        kernel = PythonKernel(source, f"<gatesim-compiled:{netlist.name}>",
                              {"nat_set_patterns": nat_set_patterns})
        return replace(program, module=kernel, structural_key=key,
                       source=source)

    return cache.get_or_compile(key, factory)


class CompiledGateSimulator(NativeGateSimulator):
    """The gate host (:class:`~repro.gatesim.native.NativeGateSimulator`,
    whose docstring describes the surface) over the table printed as
    Python: no pattern cap."""

    backend = "compiled"
    #: an FI campaign builds each batch's own overlay: printing and
    #: ``compile()`` of a batch's overlay cost less than the union's
    #: bigger kernel adds to every step of every batch (EXPERIMENTS
    #: PERF10: 1.45x slower on the union)
    union_program = False

    @staticmethod
    def start_kernel_build() -> None:
        """A kernel printed as Python is no ``.so``: nothing to build."""
        return None

    def _compile(self, netlist: Netlist,
                 cache: Optional[CompileCache]) -> GateProgram:
        return compile_netlist(netlist, cache=cache)
