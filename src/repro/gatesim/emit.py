"""The one code-generation walk of the gate level.

The compiled and native gate engines run one kernel, generated from the
levelised netlist by this walk and spelled by a *printer*: Python
(:class:`repro.gatesim.compiled.PythonPrinter`) or C
(:class:`repro.gatesim.native.CPrinter`).  The kernel has two entry
points:

* ``nat_run(S1, SX, R1, RX, MEM, M, cycles, NP, settle_after)`` runs
  *cycles* clock edges of all *NP* patterns -- settle the combinational
  cone, sample every flop input (the SDFF scan mux included), perform
  the memory writes, commit the flops -- and with *settle_after*
  settles the cone once more, so R1/RX hold the post-edge values a read
  observes;
* ``nat_set_patterns(S1, SX, slots, width, vals, NP)`` transposes one
  value per pattern into the *width* input bitplanes at *slots*.

Every net is two bitplanes ``(ones, unknowns)``: bit *p* of a plane
belongs to pattern *p*, and both lie inside the pattern mask ``M``.
The kernel's storage, laid out by the walk (:class:`GateProgram`):

* ``S1``/``SX`` -- the state planes: the constants, the input bits, the
  flop Qs and the memory-port nets nothing drives (:func:`state_layout`);
* ``R1``/``RX`` -- the result planes: every net a unit of the cone
  produces, in unit order;
* ``MEM`` -- one flat pattern-major image of every memory: word *addr*
  of a memory at offset *off* for pattern *p* is
  ``MEM[p * mem_words + off + addr]``.

The walk owns what the two kernels share: the unit order, the net and
temp names (``a{uid}``/``x{uid}``, ``t{unit}_``, ``nd_{k}``/``nx_{k}``
per flop), the cells' ``CODEGEN`` templates, the storage layout, the
memory rules (an X address bit turns a read all-X and drops a write; an
out-of-range read returns 0 and an out-of-range write is dropped; X
data or an X enable writes 0), the order of the clock edge (samples,
then write ports in declaration order, then commits) and the 64-bit
memory-word check.  What it asks of a printer:

* ``word`` -- None, or the container a memory wider than 64 bits does
  not fit (named by the error); ``chunk_lines`` -- None, or the settle
  statements per generated function before the walk opens the next
  one (a net crossing functions is loaded from R1/RX again);
* ``results_in_locals`` -- whether results stay locals until the
  settle ends (Python) or are stored to R1/RX as produced (C);
* the statement forms, each over ``target = expr`` strings (the form
  the cells' ``CODEGEN`` templates emit): ``let`` (one new local),
  ``lets`` (several in one statement), ``assign`` (an existing
  location) and ``sep`` (what joins two statements on one line);
* the blocks ``mem_read`` and ``port_write`` (one memory port over the
  per-pattern ``MEM`` words), and ``program``, which lays the settle
  chunks, the edge statements and the results out as the kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..synth.library import CODEGEN
from ..synth.netlist import CellInstance, Netlist
from .levelize import levelize
from .simulator import GateSimError

__all__ = ["COMPILE_CACHE", "GateProgram", "emit_program", "indent",
           "state_layout", "structural_hash"]

#: a net's two plane operands, (ones, unknowns)
Planes = Tuple[str, str]

#: one memory's span of a pattern's image: (name, offset, depth, width,
#: writable, initial contents)
MemSpan = Tuple[str, int, int, int, bool, Tuple[int, ...]]


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
    """A gate kernel's source and the layout tables of its storage;
    :attr:`module` is the loaded kernel once an engine has built it."""

    source: str
    #: net uids of the S1/SX slots, in slot order
    state_uids: List[int]
    #: state uids nothing drives: held permanently at X (interpreted
    #: leaves such nets LX in its value array)
    x_state_uids: List[int]
    #: net uids of the R1/RX slots, in unit order
    result_uids: List[int]
    #: one span per memory macro, within one pattern's image
    mem_layout: List[MemSpan]
    #: words per pattern across all memories
    mem_words: int
    #: the loaded kernel: ``fn(name)`` and the buffer surface of
    #: :class:`repro.native.NativeModule`
    module: object = None
    structural_key: str = ""


def indent(lines: Sequence[str], depth: int) -> List[str]:
    """*lines* shifted right by *depth* spaces, joined into one block
    (a printer's layout; no per-line copies of a large kernel)."""
    if not lines:
        return []
    pad = " " * depth
    return [pad + ("\n" + pad).join(lines)]


def emit_program(netlist: Netlist, printer) -> GateProgram:
    """Walk *netlist* into *printer*'s kernel (``module`` unset)."""
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library
    p = printer
    if p.word is not None:
        for macro in netlist.memories:
            if macro.width > 64:
                raise GateSimError(
                    f"memory {macro.name!r} width {macro.width} exceeds "
                    f"the 64-bit {p.word}")
    state_uids, x_state_uids = state_layout(netlist, units)
    slot = {uid: i for i, uid in enumerate(state_uids)}

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

    def names(uid: int) -> Planes:
        return f"a{uid}", f"x{uid}"

    let, assign, sep = p.let, p.assign, p.sep
    in_locals = p.results_in_locals
    result_uids: List[int] = []
    ridx: Dict[int, int] = {}

    def stored(uid: int) -> Planes:
        """A net's S1/SX or R1/RX slot: where it lives between calls."""
        s = slot.get(uid)
        if s is not None:
            return f"S1[{s}]", f"SX[{s}]"
        return f"R1[{ridx[uid]}]", f"RX[{ridx[uid]}]"

    # -- the settle: one chunk of statements per generated function ------
    chunks: List[List[str]] = []
    body: List[str] = []
    declared: set = set()

    def ref(uid: int) -> Planes:
        """A net's plane locals, loaded on their first use in a chunk."""
        a, x = f"a{uid}", f"x{uid}"
        if uid not in declared:
            declared.add(uid)
            ones, unks = stored(uid)
            body.append(let(f"{a} = {ones}") + sep + let(f"{x} = {unks}"))
        return a, x

    def produce(uid: int) -> List[str]:
        """Give a net of the cone its R1/RX slot, in unit order; a
        printer that keeps results in locals stores it there later."""
        i = ridx[uid] = len(result_uids)
        result_uids.append(uid)
        declared.add(uid)
        if in_locals:
            return []
        return [assign(f"R1[{i}] = a{uid}") + sep
                + assign(f"RX[{i}] = x{uid}")]

    for index, unit in enumerate(units):
        if p.chunk_lines is not None and len(body) >= p.chunk_lines:
            chunks.append(body)
            body = []
            declared.clear()
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            spec = lib[cell.cell_type]
            ins = [ref(cell.pins[pin].uid) for pin in spec.inputs]
            for pin in spec.outputs:
                uid = cell.outputs[pin].uid
                template = CODEGEN.get((cell.cell_type, pin))
                if template is None:
                    raise GateSimError(
                        f"no codegen template for cell "
                        f"{cell.cell_type!r} output {pin!r}")
                # the templates emit SSA `name = expr` lines over
                # & | ^ ~ ( ) and M -- valid in both targets
                body += map(let, template(names(uid), ins, f"t{index}_"))
                body += produce(uid)
        else:
            macro, port_index = unit.key
            rp = macro.read_ports[port_index]
            addr = [ref(n.uid) for n in rp.addr]
            # the enable is ignored for data, like MemoryModel.read
            body += p.mem_read([names(n.uid) for n in rp.data], addr,
                               macro.depth, mem_off[macro.name], mem_words)
            for n in rp.data:
                body += produce(n.uid)
    chunks.append(body)

    # -- the edge: samples, write ports, commits -------------------------
    def plane(uid: int) -> Planes:
        """A net's planes after the settle, read by the edge."""
        if in_locals and uid in ridx:
            return names(uid)
        return stored(uid)

    edge: List[str] = []
    flops = netlist.flops()
    for k, flop in enumerate(flops):
        d1, dx = plane(flop.pins["D"].uid)
        if flop.cell_type == "SDFF":
            e1, ex = plane(flop.pins["SE"].uid)
            s1, sx = plane(flop.pins["SI"].uid)
            edge += [
                p.lets(f"e1_{k} = {e1}", f"ex_{k} = {ex}"),
                let(f"e0_{k} = M & ~(e1_{k} | ex_{k})"),
                let(f"nd_{k} = (e1_{k} & {s1}) | (e0_{k} & {d1})"),
                let(f"nx_{k} = (e1_{k} & {sx}) | (e0_{k} & {dx}) | ex_{k}")]
        else:
            edge += [let(f"nd_{k} = {d1}"), let(f"nx_{k} = {dx}")]
    for macro in netlist.memories:
        for wp in macro.write_ports:
            edge += p.port_write(plane(wp.enable.uid),
                                 [plane(n.uid) for n in wp.addr],
                                 [plane(n.uid) for n in wp.data],
                                 macro.depth, mem_off[macro.name],
                                 mem_words)
    for k, flop in enumerate(flops):
        q = slot[flop.outputs["Q"].uid]
        edge.append(assign(f"S1[{q}] = nd_{k}") + sep
                    + assign(f"SX[{q}] = nx_{k}"))

    source = p.program(chunks, edge, [names(uid) for uid in result_uids])
    return GateProgram(source, state_uids, x_state_uids, result_uids,
                       mem_layout, mem_words)
