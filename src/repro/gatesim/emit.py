"""The one code-generation walk of the gate level: a netlist into an
op table.

Both generated-code gate engines run one program, an ``int32`` op table
(:attr:`GateProgram.table`) walked from the levelised netlist by
:func:`emit_program`.  The native engine's one fixed C kernel
(:mod:`repro.gatesim.native`), built once for every netlist, walks the
table; the compiled engine prints it as a straight-line Python kernel
(:class:`repro.gatesim.compiled.PythonPrinter`).  Both kernels have
three entry points:

* ``nat_run(T, V1, VX, MEM, M, cycles, NP, settle_after)`` runs
  *cycles* clock edges of all *NP* patterns of table *T* -- settle the
  combinational cone, sample every flop input (the SDFF scan mux
  included), perform the memory writes, commit the flops -- and with
  *settle_after* settles the cone once more, so the values hold what a
  read observes;
* ``nat_set_patterns(V1, VX, slots, width, vals, NP)`` transposes one
  value per pattern into the *width* input bitplanes at *slots*;
* ``nat_replay(T, V1, VX, MEM, M, NP, NS, S, W, NW, ticks, SRC, NB,
  settle_after, OUT)`` runs a port waveform: per tick, the write rows
  ``W = (tick, slot, bit)`` due then (broadcast to every pattern), one
  ``nat_run`` edge, and pattern 0's 4-valued code (``ones | unk << 1``)
  of every sampled value ``SRC[k]`` into the byte ``OUT[tick * NB +
  k]`` (a sampled net of the cone needs *settle_after*).  The edge runs
  only where the tick's start state moved: one pass compares the *NS*
  state slots of both planes and the ``MEM`` image with the snapshot
  ``S`` of the last stepped tick's start state and saves them there,
  and an equal state skips the edge, which is a pure function of it.
  The first tick of a call always steps.  It returns the ticks stepped.

Every net is two bitplanes ``(ones, unknowns)``: bit *p* of a plane
belongs to pattern *p*, and both lie inside the pattern mask ``M``.
The kernel's storage, laid out by the walk:

* ``V1``/``VX`` -- the value planes, one array each, indexed alike: the
  state slots (the constants, the input bits, the flop Qs and the
  memory-port nets nothing drives, :func:`state_layout`), then the
  results (every net a unit of the cone produces, in unit order), then
  one next-state slot per flop;
* ``MEM`` -- one flat pattern-major image of every memory: word *addr*
  of a memory at offset *off* for pattern *p* is
  ``MEM[p * mem_words + off + addr]``.

The table is a header -- ``T[0]`` the words per pattern of ``MEM``,
``T[1]`` where the edge's ops start, ``T[2]`` the table's length --
then the settle's ops from ``T[HEADER]``, then the edge's.  An op is
``opcode, count`` and *count* rows; every operand is a value index:

* a cell template (opcodes ``0 .. len(CELL_OPS) - 1``, the ``CODEGEN``
  templates in their order): the output, then one operand per cell
  input;
* :data:`OP_READ`, a memory read port: ``depth, offset, n_addr,
  n_data``, the address bits, then the data bits;
* :data:`OP_SDFF`, a scan flop's sample: ``next, D, SI, SE``;
* :data:`OP_WRITE`, a memory write port: ``depth, offset, n_addr,
  n_data, enable``, the address bits, then the data bits.

The settle holds each level's units grouped by opcode (units of one
level never read each other), so a run of one cell type is one
dispatch.  The edge samples the flops into their next-state slots (a
DFF's sample is a ``BUF``), performs the write ports in declaration
order, then commits every next-state slot to its Q (``BUF`` rows).
The memory rules: an X address bit turns a read all-X and drops a
write; an out-of-range read returns 0 and an out-of-range write is
dropped; X data or an X enable writes 0.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, Iterator, List, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..synth.library import CODEGEN, DEFAULT_LIBRARY
from ..synth.netlist import CellInstance, Netlist
from .levelize import levelize
from .simulator import GateSimError

__all__ = ["CELL_OPS", "COMPILE_CACHE", "GateProgram", "HEADER", "OP_READ",
           "OP_SDFF", "OP_WRITE", "emit_program", "state_layout",
           "structural_hash", "table_ops"]

#: one memory's span of a pattern's image: (name, offset, depth, width,
#: writable, initial contents)
MemSpan = Tuple[str, int, int, int, bool, Tuple[int, ...]]

#: the cell ops: one opcode per ``CODEGEN`` template, in its order
CELL_OPS: List[Tuple[str, str]] = list(CODEGEN)
#: operands per cell op row: the output, then the cell's inputs
CELL_ROW = [1 + len(DEFAULT_LIBRARY[cell].inputs) for cell, _ in CELL_OPS]
#: the ops past the cell templates
OP_READ, OP_SDFF, OP_WRITE = range(len(CELL_OPS), len(CELL_OPS) + 3)
N_OPS = OP_WRITE + 1
_BUF = CELL_OPS.index(("BUF", "Y"))
#: header words before the settle's first op
HEADER = 3


def structural_hash(netlist: Netlist) -> str:
    """A stable digest of the netlist *structure* (not its state).

    Two netlists with equal hashes generate identical simulation code:
    the digest covers cell types, pin connectivity (by net uid), flop
    init values, memory geometry/contents and the port maps.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("ascii", "backslashreplace"))
        h.update(b"\x00")

    feed(netlist.name)
    feed(netlist.library.name)
    feed(f"c0={netlist.const0.uid},c1={netlist.const1.uid}")
    for cell in netlist.cells:
        feed(cell.cell_type)
        feed(str(cell.init))
        for pin in sorted(cell.pins):
            feed(f"{pin}={cell.pins[pin].uid}")
        for pin in sorted(cell.outputs):
            feed(f">{pin}={cell.outputs[pin].uid}")
    for macro in netlist.memories:
        feed(f"mem {macro.name} {macro.depth}x{macro.width}")
        feed(str(macro.contents))
        for rp in macro.read_ports:
            feed("r" + ",".join(str(n.uid) for n in rp.addr))
            feed("d" + ",".join(str(n.uid) for n in rp.data))
            feed(f"e{rp.enable.uid if rp.enable is not None else -1}")
        for wp in macro.write_ports:
            feed(f"w{wp.enable.uid}|"
                 + ",".join(str(n.uid) for n in wp.addr) + "|"
                 + ",".join(str(n.uid) for n in wp.data))
    for name in sorted(netlist.inputs):
        feed(f"in {name}:"
             + ",".join(str(n.uid) for n in netlist.inputs[name]))
    for name in sorted(netlist.outputs):
        feed(f"out {name}:"
             + ",".join(str(n.uid) for n in netlist.outputs[name]))
    return h.hexdigest()


#: process-wide cache of gate kernels, one slot per backend tag (also
#: exposed via :mod:`repro.flow.artifacts`)
COMPILE_CACHE = CompileCache()


def state_layout(netlist: Netlist, units) -> Tuple[List[int], List[int]]:
    """The state arrays' slots: ``(state_uids, x_state_uids)``.

    The slots hold the constant nets, the input nets, the flop Q nets,
    then the nets of memory ports that nothing drives (*units* is the
    levelised cone): ``validate()`` only checks cell pins and outputs,
    so those are pinned at X, matching the interpreted simulator's
    LX-initialised value array.
    """
    lib = netlist.library
    state_uids: List[int] = [netlist.const0.uid, netlist.const1.uid]
    for nets in netlist.inputs.values():
        state_uids.extend(n.uid for n in nets)
    for cell in netlist.cells:
        if lib[cell.cell_type].sequential:
            state_uids.append(cell.outputs["Q"].uid)

    driven = set(state_uids)
    for unit in units:
        driven.update(unit.outs)
    x_state_uids: List[int] = []

    def require(net) -> None:
        if net is not None and net.uid not in driven:
            driven.add(net.uid)
            state_uids.append(net.uid)
            x_state_uids.append(net.uid)

    for macro in netlist.memories:
        for rp in macro.read_ports:
            for n in rp.addr:
                require(n)
            require(rp.enable)
        for wp in macro.write_ports:
            require(wp.enable)
            for n in wp.addr + wp.data:
                require(n)
    return state_uids, x_state_uids


@dataclass
class GateProgram:
    """A gate program: its op table and the layout of its storage.

    :attr:`module` is the loaded kernel once an engine has loaded it,
    and :attr:`source` the kernel's text when the program has one of
    its own (the compiled engine's Python; the native kernel is shared).
    """

    #: the op table (see the module docstring)
    table: array
    #: net uids of the state slots, in slot order
    state_uids: List[int]
    #: state uids nothing drives: held permanently at X (interpreted
    #: leaves such nets LX in its value array)
    x_state_uids: List[int]
    #: net uids of the results, in unit order (value index
    #: ``len(state_uids) + i``)
    result_uids: List[int]
    #: one span per memory macro, within one pattern's image
    mem_layout: List[MemSpan]
    #: words per pattern across all memories
    mem_words: int
    #: entries of each value array: state slots, results, next states
    n_values: int
    #: the loaded kernel: ``fn(name)`` and the buffer surface of
    #: :class:`repro.native.NativeModule`
    module: object = None
    structural_key: str = ""
    source: str = field(default="", repr=False)


def _row_words(op: int, table: Sequence[int], at: int, end: int) -> int:
    """The words of the row of *op* at *at*; -1 when the row does not
    fit before *end*."""
    if op < len(CELL_OPS):
        return CELL_ROW[op]
    if op == OP_SDFF:
        return 4
    if at + 4 > end or table[at + 2] < 0 or table[at + 3] < 0:
        return -1
    return 4 + (op == OP_WRITE) + table[at + 2] + table[at + 3]


def table_ops(table: Sequence[int], lo: int, hi: int
              ) -> Iterator[Tuple[int, List[Sequence[int]]]]:
    """The ops of ``table[lo:hi]``, each as ``(opcode, rows)``.

    Raises :class:`GateSimError` where the ops do not tile the span
    exactly: an opcode that is no kernel case, a negative count, or a
    row that runs past *hi*.
    """
    at = lo
    while at < hi:
        if at + 2 > hi:
            raise GateSimError(f"table word {at}: op header past {hi}")
        op, count = table[at], table[at + 1]
        if not 0 <= op < N_OPS:
            raise GateSimError(f"table word {at}: opcode {op} is no "
                               f"kernel case")
        if count < 0:
            raise GateSimError(f"table word {at + 1}: count {count}")
        at += 2
        rows = []
        for _ in range(count):
            words = _row_words(op, table, at, hi)
            if words < 0 or at + words > hi:
                raise GateSimError(f"table word {at}: a row of op {op} "
                                   f"runs past {hi}")
            rows.append(table[at:at + words])
            at += words
        yield op, rows


def emit_program(netlist: Netlist) -> GateProgram:
    """Walk *netlist* into its op table (``module`` unset)."""
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library
    state_uids, x_state_uids = state_layout(netlist, units)
    index = {uid: i for i, uid in enumerate(state_uids)}

    mem_layout: List[MemSpan] = []
    off = 0
    for macro in netlist.memories:
        contents = tuple(v & mask(macro.width)
                         for v in (macro.contents or ()))
        mem_layout.append((macro.name, off, macro.depth, macro.width,
                           macro.writable, contents))
        off += macro.depth
    mem_words = off
    mem_off = {span[0]: span[1] for span in mem_layout}

    result_uids: List[int] = []

    def produce(uid: int) -> int:
        """Give a net of the cone its value index, in unit order."""
        i = index[uid] = len(state_uids) + len(result_uids)
        result_uids.append(uid)
        return i

    def at(nets) -> List[int]:
        return [index[n.uid] for n in nets]

    table = array("i", [mem_words, 0, 0])

    def emit(op: int, rows: Sequence[List[int]]) -> None:
        if rows:
            table.extend([op, len(rows)])
            for row in rows:
                table.extend(row)

    # -- the settle: each level's units, one run per opcode -------------
    for _, level in groupby(units, key=lambda unit: unit.level):
        runs: Dict[int, List[List[int]]] = {}
        for unit in level:
            if isinstance(unit.key, CellInstance):
                cell = unit.key
                spec = lib[cell.cell_type]
                ins = at(cell.pins[pin] for pin in spec.inputs)
                for pin in spec.outputs:
                    key = (cell.cell_type, pin)
                    if key not in CODEGEN:
                        raise GateSimError(
                            f"no codegen template for cell "
                            f"{cell.cell_type!r} output {pin!r}")
                    op = CELL_OPS.index(key)
                    if CELL_ROW[op] != 1 + len(ins):
                        raise GateSimError(
                            f"cell {cell.cell_type!r} has {len(ins)} "
                            f"inputs; its template takes {CELL_ROW[op] - 1}")
                    runs.setdefault(op, []).append(
                        [produce(cell.outputs[pin].uid)] + ins)
            else:
                macro, port_index = unit.key
                rp = macro.read_ports[port_index]
                # the enable is ignored for data, like MemoryModel.read
                addr = at(rp.addr)
                data = [produce(n.uid) for n in rp.data]
                runs.setdefault(OP_READ, []).append(
                    [macro.depth, mem_off[macro.name], len(addr), len(data)]
                    + addr + data)
        for op in sorted(runs):
            emit(op, runs[op])
    table[1] = len(table)

    # -- the edge: samples, write ports, commits -------------------------
    flops = netlist.flops()
    first_next = len(state_uids) + len(result_uids)
    samples: Dict[int, List[List[int]]] = {_BUF: [], OP_SDFF: []}
    for k, flop in enumerate(flops):
        if flop.cell_type == "SDFF":
            samples[OP_SDFF].append([first_next + k] + at(
                flop.pins[pin] for pin in ("D", "SI", "SE")))
        else:
            samples[_BUF].append([first_next + k, index[flop.pins["D"].uid]])
    for op in sorted(samples):
        emit(op, samples[op])
    emit(OP_WRITE, [
        [macro.depth, mem_off[macro.name], len(wp.addr), len(wp.data),
         index[wp.enable.uid]] + at(wp.addr) + at(wp.data)
        for macro in netlist.memories for wp in macro.write_ports])
    emit(_BUF, [[index[flop.outputs["Q"].uid], first_next + k]
                for k, flop in enumerate(flops)])
    table[2] = len(table)
    return GateProgram(table, state_uids, x_state_uids, result_uids,
                       mem_layout, mem_words, first_next + len(flops))
