"""Seeded multi-design corpus for matrix-testing the whole flow.

Every benchmark and campaign so far exercised exactly one design -- the
paper's sample-rate converter.  This module generates a *population* of
designs from a seed: parameterized SRC variants (rate ratios, filter
orders, coefficient widths) plus three non-DSP members built directly on
the HLS layer -- a carry-chained counter ladder, a small ALU and a
register-file/MAC datapath.  Each member knows how to emit itself at
behavioural, RTL and gate level through the existing refinement and
synthesis flow, produce a pure-Python golden output stream, and replay a
recorded input waveform (the handle the fault-injection engine needs to
drive diverging fault lanes identically).

Determinism contract: the same ``(seed, index)`` always produces the same
:class:`DesignSpec`, the same design digest and the same synthesized
netlist structural hash -- property-tested in tests/test_corpus_designs.py.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engines import engine_class
from ..flow import Level, build_module, run_level as run_flow_level
from ..gatesim import GateSimulator
from ..hls.codegen import generate_rtl
from ..hls.ir import (Assign, HlsProgram, If, MemReadStmt, MemWriteStmt,
                      PortWrite, WaitUntil)
from ..hls.schedule import Scheduler, SchedulingConstraints
from ..kernel.simtime import period_ps
from ..rtl.expr import (Add, BitAnd, BitNot, BitXor, Case, Cat, Cmp, Const,
                        Expr, Mul, Ref, Slice, Sub)
from ..rtl.ir import RtlModule
from ..rtl.simulate import RtlSimulator
from ..src_design.params import SrcMode, SrcParams
from ..src_design.schedule import (IDLE, CycleStimulus, clocked_stimulus,
                                   make_schedule)
from ..src_design.testbench import src_port_waveform
from ..synth import synthesize
from ..verify import generate_cases, golden_outputs

DESIGN_KINDS = ("src", "counter", "alu", "regfile")

#: refinement levels every corpus member is emitted at
CORPUS_LEVELS = ("beh", "rtl", "gate")

_SRC_LEVEL = {"beh": Level.BEH_OPT, "rtl": Level.RTL_OPT,
              "gate": Level.GATE_RTL}


class CorpusError(Exception):
    pass


# ----------------------------------------------------------------------
# deterministic serialization (expression reprs are not stable)
# ----------------------------------------------------------------------

def serialize_expr(expr: Expr) -> str:
    """A deterministic, structure-complete rendering of an expression."""
    if isinstance(expr, Const):
        return f"C{expr.width}:{expr.value}"
    if isinstance(expr, Ref):
        return f"R{expr.width}:{expr.name}"
    head = type(expr).__name__ + str(expr.width)
    scalars = []
    for attr in ("op", "amount", "msb", "lsb", "signed", "mem_name",
                 "depth"):
        if hasattr(expr, attr):
            scalars.append(f"{attr}={getattr(expr, attr)}")
    if isinstance(expr, Case):
        scalars.append("keys=" + ",".join(str(k)
                                          for k in expr.branches.keys()))
    kids = ",".join(serialize_expr(k) for k in expr.children())
    return f"{head}[{';'.join(scalars)}]({kids})"


def module_digest(module: RtlModule) -> str:
    """sha256 over a deterministic rendering of an RTL module."""
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\n")

    feed(f"module {module.name}")
    if module.keep_registers:
        feed("keep " + ",".join(sorted(module.keep_registers)))
    for port in module.ports:
        feed(f"port {port.name} {port.width} {port.direction}")
    for reg in module.registers:
        nxt = serialize_expr(reg.next) if reg.next is not None else "-"
        feed(f"reg {reg.name} {reg.width} {reg.init} {nxt}")
    for assign in module.assigns:
        feed(f"assign {assign.name} {assign.width} "
             f"{serialize_expr(assign.expr)}")
    for mem in module.memories:
        contents = ",".join(str(v) for v in mem.contents) \
            if mem.contents is not None else "-"
        feed(f"mem {mem.name} {mem.depth} {mem.width} {contents}")
        for rp in mem.read_ports:
            en = serialize_expr(rp.enable) if rp.enable is not None else "-"
            feed(f"  rd {rp.data_name} {serialize_expr(rp.addr)} {en}")
        for wp in mem.write_ports:
            feed(f"  wr {serialize_expr(wp.enable)} "
                 f"{serialize_expr(wp.addr)} {serialize_expr(wp.data)}")
    for name in sorted(module.outputs):
        feed(f"out {name} -> {module.outputs[name]}")
    return h.hexdigest()


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DesignSpec:
    """Fully determines one corpus member (hashable, serializable)."""

    kind: str
    name: str
    seed: int
    config: Tuple[Tuple[str, object], ...]

    def config_dict(self) -> Dict[str, object]:
        return dict(self.config)

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "seed": self.seed,
                "config": self.config_dict()}


# ----------------------------------------------------------------------
# shared transaction protocol for the HLS (non-DSP) members
# ----------------------------------------------------------------------

def _run_transactions(design: "HlsCorpusDesign", set_in, get_out, tick):
    """Drive start/operands until ``done`` pulses; sample frame ports.

    Returns ``(frames, waveform)`` where *waveform* is one dict of input
    values per executed cycle -- a complete record, so a fault campaign
    can replay the exact same stimulus open-loop on every fault lane.
    """
    idle = {name: 0 for name in design.input_ports()}
    frames: List[Tuple[int, ...]] = []
    wave: List[Dict[str, int]] = []

    def cycle(drive: Dict[str, int]) -> None:
        for k, v in drive.items():
            set_in(k, v)
        wave.append(dict(drive))
        tick()

    cycle(idle)
    for tx in design.transactions():
        drive = dict(idle)
        drive.update(tx)
        drive["start"] = 1
        for _ in range(design.MAX_TX_CYCLES):
            cycle(drive)
            if get_out("done") == 1:
                frames.append(tuple(get_out(p)
                                    for p in design.frame_ports))
                break
        else:
            raise CorpusError(
                f"{design.spec.name}: no done pulse within "
                f"{design.MAX_TX_CYCLES} cycles")
        cycle(idle)
        cycle(idle)
    cycle(idle)
    return frames, wave


class HlsCorpusDesign:
    """Base for corpus members described as an HLS program."""

    kind = ""
    valid_port = "done"
    frame_ports: Tuple[str, ...] = ()
    #: per-transaction cycle cap (the corpus FSMs finish in far fewer)
    MAX_TX_CYCLES = 64

    def __init__(self, spec: DesignSpec):
        self.spec = spec
        self.config = spec.config_dict()
        self._program: Optional[HlsProgram] = None
        self._fsm = None
        self._module: Optional[RtlModule] = None
        self._netlist = None
        self._transactions: Optional[List[Dict[str, int]]] = None
        self._waveform: Optional[List[Dict[str, int]]] = None

    # -- construction ---------------------------------------------------
    def build_program(self) -> HlsProgram:
        raise NotImplementedError

    def _make_transactions(self, rng: random.Random,
                           n_tx: int) -> List[Dict[str, int]]:
        raise NotImplementedError

    def golden_frames(self) -> List[Tuple[int, ...]]:
        raise NotImplementedError

    def program(self) -> HlsProgram:
        if self._program is None:
            self._program = self.build_program()
            self._program.validate()
        return self._program

    def fsm(self):
        if self._fsm is None:
            self._fsm = Scheduler(self.program(),
                                  SchedulingConstraints()).run()
        return self._fsm

    def build_rtl(self) -> RtlModule:
        if self._module is None:
            program = self.program()
            module = RtlModule(self.spec.name)
            inputs = {p.name: module.input(p.name, p.width)
                      for p in program.ports.values()
                      if p.direction == "in"}
            generated = generate_rtl(self.fsm(), module, inputs)
            for port in program.ports.values():
                if port.direction == "out":
                    module.output(port.name, generated.outputs[port.name])
            module.validate()
            self._module = module
        return self._module

    def netlist(self):
        if self._netlist is None:
            self._netlist = synthesize(self.build_rtl())
        return self._netlist

    def input_ports(self) -> List[str]:
        return [p.name for p in self.program().ports.values()
                if p.direction == "in"]

    def transactions(self) -> List[Dict[str, int]]:
        if self._transactions is None:
            rng = random.Random(f"{self.spec.kind}:{self.spec.seed}:tx")
            self._transactions = self._make_transactions(
                rng, int(self.config["n_tx"]))
        return self._transactions

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.spec.as_dict(),
                            sort_keys=True).encode("utf-8"))
        h.update(module_digest(self.build_rtl()).encode("utf-8"))
        return h.hexdigest()

    # -- simulation -----------------------------------------------------
    def run_level(self, level: str, backend: str = "interpreted"):
        if level == "beh":
            sim = engine_class(backend, "fsm")(self.fsm())
            frames, _ = _run_transactions(self, sim.set_input,
                                          sim.get_output, sim.step)
            return frames
        if level == "rtl":
            sim = RtlSimulator(self.build_rtl(), backend=backend)
        elif level == "gate":
            sim = GateSimulator(self.netlist(), backend=backend)
        else:
            raise CorpusError(f"unknown level {level!r}")
        frames, _ = _run_transactions(self, sim.set_input, sim.get,
                                      sim.step)
        return frames

    def waveform(self) -> List[Dict[str, int]]:
        """Per-cycle input record from a fault-free RTL run."""
        if self._waveform is None:
            sim = RtlSimulator(self.build_rtl())
            frames, wave = _run_transactions(self, sim.set_input, sim.get,
                                             sim.step)
            if frames != self.golden_frames():
                raise CorpusError(
                    f"{self.spec.name}: fault-free RTL run diverged from "
                    "golden while recording the FI waveform")
            self._waveform = wave
        return self._waveform

    def cycle_budget(self) -> int:
        return len(self.waveform()) + 8


# ----------------------------------------------------------------------
# counter ladder
# ----------------------------------------------------------------------

class CounterDesign(HlsCorpusDesign):
    """A ladder of carry-chained accumulator stages.

    Each ``start`` transaction adds ``delta`` into stage 0 for ``burst``
    iterations; carries out of each stage ripple into the next, and the
    concatenated stages come back on ``count``.  State survives across
    transactions, so faults in any stage stay architecturally live.
    """

    kind = "counter"
    frame_ports = ("count",)

    def build_program(self) -> HlsProgram:
        w = int(self.config["stage_width"])
        stages = int(self.config["stages"])
        burst = int(self.config["burst"])
        prog = HlsProgram(self.spec.name)
        start = prog.input("start", 1)
        delta = prog.input("delta", w)
        prog.output("count", stages * w)
        prog.output("done", 1, kind="pulse")
        for i in range(stages):
            prog.var(f"s{i}", w)
        prog.var("carry", 1)
        prog.var("tmp", w + 1)
        def ripple_step() -> List[Assign]:
            step = [Assign("tmp", Add(Ref("s0", w), delta, w + 1)),
                    Assign("s0", Slice(Ref("tmp", w + 1), w - 1, 0)),
                    Assign("carry", Slice(Ref("tmp", w + 1), w, w))]
            for i in range(1, stages):
                step.append(Assign("tmp", Add(Ref(f"s{i}", w),
                                              Ref("carry", 1), w + 1)))
                step.append(Assign(f"s{i}",
                                   Slice(Ref("tmp", w + 1), w - 1, 0)))
                step.append(Assign("carry",
                                   Slice(Ref("tmp", w + 1), w, w)))
            return step

        body = prog.body
        body.append(WaitUntil(Cmp("eq", start, Const(1, 1))))
        for _ in range(burst):
            body.extend(ripple_step())
        body.append(PortWrite("count",
                              Cat(*[Ref(f"s{i}", w)
                                    for i in reversed(range(stages))])))
        body.append(PortWrite("done", Const(1, 1)))
        body.append(WaitUntil(Cmp("eq", start, Const(1, 0))))
        return prog

    def _make_transactions(self, rng, n_tx):
        w = int(self.config["stage_width"])
        return [{"delta": rng.randrange(1, 1 << w)} for _ in range(n_tx)]

    def golden_frames(self):
        w = int(self.config["stage_width"])
        stages = int(self.config["stages"])
        burst = int(self.config["burst"])
        regs = [0] * stages
        frames = []
        for tx in self.transactions():
            for _ in range(burst):
                carry = tx["delta"]
                for i in range(stages):
                    total = regs[i] + carry
                    regs[i] = total & ((1 << w) - 1)
                    carry = total >> w
            count = 0
            for i in range(stages):
                count |= regs[i] << (i * w)
            frames.append((count,))
        return frames


# ----------------------------------------------------------------------
# small ALU
# ----------------------------------------------------------------------

class AluDesign(HlsCorpusDesign):
    """A four-operation ALU: add, sub, xor, and mul-low (or and-not)."""

    kind = "alu"
    frame_ports = ("res", "flags")

    def build_program(self) -> HlsProgram:
        w = int(self.config["width"])
        with_mul = bool(self.config["with_mul"])
        prog = HlsProgram(self.spec.name)
        start = prog.input("start", 1)
        op = prog.input("op", 2)
        a = prog.input("a", w)
        b = prog.input("b", w)
        prog.output("res", w)
        prog.output("flags", 2)  # {carry/borrow, zero}
        prog.output("done", 1, kind="pulse")
        prog.var("ra", w)
        prog.var("rb", w)
        prog.var("wide", w + 1)
        prog.var("r", w)
        ra, rb = Ref("ra", w), Ref("rb", w)
        wide = Ref("wide", w + 1)
        r = Ref("r", w)
        if with_mul:
            op3 = Slice(Mul(ra, rb), w - 1, 0)
        else:
            op3 = BitAnd(ra, BitNot(rb))
        body = prog.body
        body.append(WaitUntil(Cmp("eq", start, Const(1, 1))))
        body.append(Assign("ra", a))
        body.append(Assign("rb", b))
        body.append(Assign("wide", Case(op, {
            0: Add(ra, rb, w + 1),
            1: Sub(ra, rb, w + 1),
        }, Const(w + 1, 0))))
        body.append(If(Cmp("ule", op, Const(2, 1)),
                       [Assign("r", Slice(wide, w - 1, 0))],
                       [If(Cmp("eq", op, Const(2, 2)),
                           [Assign("r", BitXor(ra, rb))],
                           [Assign("r", op3)])]))
        body.append(PortWrite("res", r))
        body.append(PortWrite("flags", Cat(
            Slice(wide, w, w),
            Cmp("eq", r, Const(w, 0)))))
        body.append(PortWrite("done", Const(1, 1)))
        body.append(WaitUntil(Cmp("eq", start, Const(1, 0))))
        return prog

    def _make_transactions(self, rng, n_tx):
        w = int(self.config["width"])
        txs = []
        for i in range(n_tx):
            txs.append({"op": i % 4 if i < 4 else rng.randrange(4),
                        "a": rng.randrange(1 << w),
                        "b": rng.randrange(1 << w)})
        return txs

    def golden_frames(self):
        w = int(self.config["width"])
        with_mul = bool(self.config["with_mul"])
        m = (1 << w) - 1
        frames = []
        for tx in self.transactions():
            a, b, op = tx["a"], tx["b"], tx["op"]
            wide = 0
            if op == 0:
                wide = (a + b) & ((1 << (w + 1)) - 1)
            elif op == 1:
                wide = (a - b) & ((1 << (w + 1)) - 1)
            if op <= 1:
                r = wide & m
            elif op == 2:
                r = a ^ b
            else:
                r = (a * b) & m if with_mul else a & (~b & m)
            flags = (((wide >> w) & 1) << 1) | (1 if r == 0 else 0)
            frames.append((r, flags))
        return frames


# ----------------------------------------------------------------------
# register file / MAC datapath
# ----------------------------------------------------------------------

class RegfileDesign(HlsCorpusDesign):
    """A register-file datapath with a multiply-accumulate command.

    Commands: 0 write mem[addr]=wdata, 1 read mem[addr], 2 MAC
    (acc += mem[addr]*wdata, result echoed), 3 clear the accumulator.
    """

    kind = "regfile"
    frame_ports = ("rdata",)

    def build_program(self) -> HlsProgram:
        w = int(self.config["width"])
        depth = int(self.config["depth"])
        abits = max(1, (depth - 1).bit_length())
        prog = HlsProgram(self.spec.name)
        start = prog.input("start", 1)
        cmd = prog.input("cmd", 2)
        addr = prog.input("addr", abits)
        wdata = prog.input("wdata", w)
        prog.output("rdata", w)
        prog.output("done", 1, kind="pulse")
        prog.memory("regs", depth, w)
        prog.var("rd", w)
        prog.var("acc", w)
        rd, acc = Ref("rd", w), Ref("acc", w)
        body = prog.body
        body.append(WaitUntil(Cmp("eq", start, Const(1, 1))))
        body.append(If(
            Cmp("eq", cmd, Const(2, 0)),
            [MemWriteStmt("regs", addr, wdata), Assign("rd", wdata)],
            [If(Cmp("eq", cmd, Const(2, 1)),
                [MemReadStmt("rd", "regs", addr)],
                [If(Cmp("eq", cmd, Const(2, 2)),
                    [MemReadStmt("rd", "regs", addr),
                     Assign("acc", Slice(Add(acc, Slice(Mul(rd, wdata),
                                                        w - 1, 0),
                                             w + 1), w - 1, 0)),
                     Assign("rd", acc)],
                    [Assign("acc", Const(w, 0)),
                     Assign("rd", Const(w, 0))])])]))
        body.append(PortWrite("rdata", rd))
        body.append(PortWrite("done", Const(1, 1)))
        body.append(WaitUntil(Cmp("eq", start, Const(1, 0))))
        return prog

    def _make_transactions(self, rng, n_tx):
        w = int(self.config["width"])
        depth = int(self.config["depth"])
        txs = []
        for i in range(n_tx):
            if i < 2:
                cmd = 0  # seed the file before reading it back
            else:
                cmd = rng.choice((0, 1, 2, 2, 3))
            txs.append({"cmd": cmd,
                        "addr": rng.randrange(depth),
                        "wdata": rng.randrange(1 << w)})
        return txs

    def golden_frames(self):
        w = int(self.config["width"])
        depth = int(self.config["depth"])
        m = (1 << w) - 1
        mem = [0] * depth
        acc = 0
        frames = []
        for tx in self.transactions():
            cmd, addr, wdata = tx["cmd"], tx["addr"], tx["wdata"]
            if cmd == 0:
                mem[addr] = wdata
                rd = wdata
            elif cmd == 1:
                rd = mem[addr]
            elif cmd == 2:
                rd = mem[addr]
                acc = (acc + (rd * wdata & m)) & m
                rd = acc
            else:
                acc = 0
                rd = 0
            frames.append((rd,))
        return frames


# ----------------------------------------------------------------------
# SRC variants
# ----------------------------------------------------------------------

#: rate-pair menus (name, f_in, f_out) -- both directions exercised
_SRC_MODE_MENUS: Tuple[Tuple[Tuple[str, int, int], ...], ...] = (
    (("m44k1_48k", 44100, 48000), ("m48k_44k1", 48000, 44100)),
    (("m32k_48k", 32000, 48000), ("m48k_32k", 48000, 32000)),
    (("m96k_48k", 96000, 48000), ("m44k1_48k", 44100, 48000)),
)


class SrcCorpusDesign:
    """One parameterized sample-rate-converter variant."""

    kind = "src"
    valid_port = "out_valid"
    frame_ports = ("out_l", "out_r")

    def __init__(self, spec: DesignSpec):
        self.spec = spec
        self.config = spec.config_dict()
        cfg = self.config
        modes = tuple(SrcMode(name, f_in, f_out)
                      for name, f_in, f_out
                      in _SRC_MODE_MENUS[int(cfg["mode_menu"])])
        self.params = SrcParams(
            n_phases=int(cfg["n_phases"]),
            taps_per_phase=int(cfg["taps_per_phase"]),
            data_width=int(cfg["data_width"]),
            coef_width=int(cfg["coef_width"]),
            phase_frac_bits=int(cfg["phase_frac_bits"]),
            buffer_depth=int(cfg["taps_per_phase"]) + 2,
            clock_period_ps=period_ps(48_000 * 64),
            modes=modes,
        )
        self.n_frames = int(cfg["n_frames"])
        self._case = None
        self._module: Optional[RtlModule] = None
        self._netlist = None
        self._stimulus: Optional[List[CycleStimulus]] = None
        self._waveform: Optional[List[Dict[str, int]]] = None

    def case(self):
        if self._case is None:
            self._case = generate_cases(self.params, self.spec.seed, 1,
                                        self.n_frames)[0]
        return self._case

    def build_rtl(self) -> RtlModule:
        if self._module is None:
            self._module = build_module(self.params, Level.GATE_RTL)
        return self._module

    def netlist(self):
        if self._netlist is None:
            self._netlist = synthesize(self.build_rtl())
        return self._netlist

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.spec.as_dict(),
                            sort_keys=True).encode("utf-8"))
        h.update(module_digest(self.build_rtl()).encode("utf-8"))
        return h.hexdigest()

    def _mask(self, frames) -> List[Tuple[int, ...]]:
        m = (1 << self.params.data_width) - 1
        return [tuple(v & m for v in frame) for frame in frames]

    def golden_frames(self) -> List[Tuple[int, ...]]:
        return self._mask(golden_outputs(self.params, self.case(),
                                         quantized=True))

    def run_level(self, level: str, backend: str = "interpreted"):
        case = self.case()
        schedule = make_schedule(self.params, case.mode, case.n_inputs,
                                 quantized=True,
                                 mode_changes=case.mode_changes)
        frames = run_flow_level(self.params, _SRC_LEVEL[level], schedule,
                                case.inputs, backend=backend)
        return self._mask(frames)

    def _clocked_stimulus(self) -> List[CycleStimulus]:
        """The case's clocked run, drain included."""
        if self._stimulus is None:
            case = self.case()
            schedule = make_schedule(self.params, case.mode, case.n_inputs,
                                     quantized=True,
                                     mode_changes=case.mode_changes)
            self._stimulus = clocked_stimulus(self.params, schedule,
                                              case.inputs)
        return self._stimulus

    def waveform(self) -> List[Dict[str, int]]:
        """Open-loop per-cycle input record up to the case's last
        scheduled event."""
        if self._waveform is None:
            stimulus = self._clocked_stimulus()
            last = max(tick for tick, cycle in enumerate(stimulus)
                       if cycle is not IDLE)
            self._waveform = src_port_waveform(stimulus[:last + 1])
        return self._waveform

    def cycle_budget(self) -> int:
        return len(self._clocked_stimulus())


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

_BUILDERS = {
    "src": SrcCorpusDesign,
    "counter": CounterDesign,
    "alu": AluDesign,
    "regfile": RegfileDesign,
}


def make_spec(kind: str, seed: int, index: int,
              n_frames: int = 8, n_tx: int = 8) -> DesignSpec:
    """Deterministically draw one member's configuration."""
    rng = random.Random(f"corpus:{seed}:{index}:{kind}")
    if kind == "src":
        # prototype length n_phases * taps_per_phase must be a power of 2
        config = {
            "n_phases": rng.choice((8, 16)),
            "taps_per_phase": rng.choice((2, 4)),
            "data_width": 8,
            "coef_width": rng.choice((8, 10, 12)),
            "phase_frac_bits": rng.choice((8, 10)),
            "mode_menu": rng.randrange(len(_SRC_MODE_MENUS)),
            "n_frames": n_frames,
        }
    elif kind == "counter":
        config = {
            "stages": rng.choice((2, 3)),
            "stage_width": rng.choice((3, 4, 5)),
            "burst": rng.choice((2, 3, 4)),
            "n_tx": n_tx,
        }
    elif kind == "alu":
        config = {
            "width": rng.choice((6, 8, 10)),
            "with_mul": rng.random() < 0.5,
            "n_tx": n_tx,
        }
    elif kind == "regfile":
        config = {
            "depth": rng.choice((4, 8)),
            "width": rng.choice((6, 8)),
            "n_tx": n_tx,
        }
    else:
        raise CorpusError(f"unknown design kind {kind!r}")
    name = f"{kind}{index:02d}_s{seed}"
    return DesignSpec(kind=kind, name=name, seed=seed * 1000 + index,
                      config=tuple(sorted(config.items())))


def build_design(spec: DesignSpec):
    return _BUILDERS[spec.kind](spec)


def generate_corpus(seed: int, n_designs: int,
                    kinds: Sequence[str] = DESIGN_KINDS,
                    n_frames: int = 8, n_tx: int = 8) -> List[DesignSpec]:
    """The deterministic corpus roster: kinds cycled, configs seeded."""
    if n_designs < 1:
        raise CorpusError("n_designs must be >= 1")
    return [make_spec(kinds[i % len(kinds)], seed, i,
                      n_frames=n_frames, n_tx=n_tx)
            for i in range(n_designs)]
