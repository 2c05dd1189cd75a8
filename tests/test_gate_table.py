"""The gate program's op table and the check between it and the C kernel.

Both generated-code gate engines run one ``int32`` op table per
netlist; the native engine's fixed C kernel walks it and trusts it, so
:func:`repro.gatesim.native.check_table` refuses, before the kernel is
even loaded, any table whose header, opcodes, counts, operands or
memory rows would take the kernel outside its buffers.  Each case
below corrupts one field of a small netlist's table.
"""

from array import array
from dataclasses import replace

import pytest

from repro.compile_cache import CompileCache
from repro.gatesim import GateSimError
from repro.gatesim import native as gate_native
from repro.gatesim.emit import (CELL_OPS, HEADER, OP_READ, OP_SDFF,
                                OP_WRITE, emit_program, table_ops)
from repro.gatesim.native import NativeGateSimulator, check_table
from repro.rtl import Add, RtlModule
from repro.synth import synthesize

BUF = CELL_OPS.index(("BUF", "Y"))


def _netlist():
    """A RAM with a write port and a read port, an adder and a scan
    register: cell, read, scan-flop, write and commit ops."""
    m = RtlModule("table")
    ram = m.memory("ram", 4, 4)
    we, a, din = m.input("we", 1), m.input("a", 2), m.input("din", 4)
    m.mem_write(ram, we, a, din)
    r = m.register("r", 4)
    m.set_next(r, Add(m.mem_read(ram, a), din))
    m.output("q", r)
    return synthesize(m)


def _layout(table):
    """``(opcode, header position, row positions)`` of every op."""
    ops = []
    for lo, hi in ((HEADER, table[1]), (table[1], table[2])):
        at = lo
        for op, rows in table_ops(table, lo, hi):
            starts, pos = [], at + 2
            for row in rows:
                starts.append(pos)
                pos += len(row)
            ops.append((op, at, starts))
            at = pos
    return ops


def _corruptions(program):
    """``(what, table position, bad value)`` for each field."""
    table, n, words = program.table, program.n_values, program.mem_words
    ops = _layout(table)

    def row(op):
        return next(starts[0] for code, _, starts in ops if code == op)

    first_op, cell = ops[0][1], next(
        starts[0] for code, _, starts in ops if code < len(CELL_OPS))
    last_op, last_count = ops[-1][1], table[ops[-1][1] + 1]
    read, write, sdff = row(OP_READ), row(OP_WRITE), row(OP_SDFF)
    commit = ops[-1][2][0]
    assert ops[-1][0] == BUF
    read_na, read_nd = table[read + 2], table[read + 3]
    return [
        ("memory words", 0, words + 1),
        ("edge past the end", 1, len(table) + 1),
        ("edge in the header", 1, HEADER - 1),
        ("length", 2, len(table) - 1),
        ("opcode past the kernel's cases", first_op, OP_WRITE + 1),
        ("negative opcode", first_op, -1),
        ("negative count", first_op + 1, -1),
        ("count past the table", last_op + 1, last_count + 1),
        ("cell output", cell, n),
        ("cell input", cell + 1, -1),
        ("read depth", read, words + 1),
        ("read offset", read + 1, -1),
        ("read address bits", read + 2, 65),
        ("read data bit", read + 3 + read_na + read_nd, n),
        ("write offset", write + 1, words),
        ("write enable", write + 4, n),
        ("scan enable", sdff + 3, n),
        ("commit target", commit, -1),
    ]


def test_the_walk_tiles_its_table():
    program = emit_program(_netlist())
    check_table(program)
    ops = {op for op, _, _ in _layout(program.table)}
    assert {OP_READ, OP_WRITE, OP_SDFF, BUF} <= ops
    assert any(op < len(CELL_OPS) and op != BUF for op in ops)


@pytest.mark.parametrize("case", range(18))
def test_a_corrupt_table_never_reaches_the_kernel(case, monkeypatch):
    """One corrupted field raises GateSimError while the simulator is
    built, before the kernel is loaded: no kernel call can happen."""
    netlist = _netlist()
    program = emit_program(netlist)
    cases = _corruptions(program)
    assert len(cases) == 18
    what, at, value = cases[case]
    table = array("i", program.table)
    table[at] = value
    loads = []
    monkeypatch.setattr(gate_native, "emit_program",
                        lambda nl: replace(program, table=table))
    monkeypatch.setattr(gate_native, "compile_and_load",
                        lambda *args, **kwargs: loads.append(args))
    with pytest.raises(GateSimError):
        NativeGateSimulator(netlist, cache=CompileCache())
    assert loads == [], what


def test_a_memory_wider_than_the_kernel_word_is_refused():
    """A 65-bit memory, and a read port of 65 address bits: the
    kernel's port loops hold 64."""
    program = emit_program(_netlist())
    (name, off, depth, _, writable, contents), = program.mem_layout
    wide = replace(program,
                   mem_layout=[(name, off, depth, 65, writable, contents)])
    with pytest.raises(GateSimError, match="64-bit"):
        check_table(wide)
    table = array("i", [program.mem_words, 0, 0, OP_READ, 1,
                        program.mem_words, 0, 65, 0] + [0] * 65)
    table[1] = table[2] = len(table)
    with pytest.raises(GateSimError, match="64 bits"):
        check_table(replace(program, table=table))
