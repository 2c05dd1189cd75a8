"""Synthesisable behavioural SRC (paper Sections 4.3 / 4.4).

Two source variants of the main process are built here:

* **unoptimised** (the first synthesisable behavioural model): explicit
  per-tap handshaking with the input buffer (request pulse + grant
  wait), pessimistic bit widths inherited from the conservative
  cut-and-paste refinement, redundant temporaries ("code
  proliferation"), every value registered, no register sharing, and a
  mode decode kept generic for eight modes;
* **optimised**: handshaking removed in favour of a fixed cycle scheme,
  tightened widths, cleaned-up temporaries (dead register writes
  pruned), lifetime-based register sharing, and the mode table folded to
  the two real modes.

Both variants contain the golden-model bug: when an output is requested
while no sample has arrived since the flush, a leftover prefetch reads
the *invalid* buffer address ``buffer_depth`` before the silence
early-out -- functionally invisible, flagged only by a checking memory
model at gate level.

The main process reads its samples through an RT-level front end (the
I/O interfaces the paper's behavioural design already contained).  One
wiring puts that front end into the flat RTL module that synthesis
gets (:func:`build_behavioral_design`) and attaches it to the scheduled
FSM that the behavioural engines run (:func:`build_behavioral_fsm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..datatypes.integers import max_signed, min_signed
from ..hls.binding import RegisterBinding, bind_registers
from ..hls.codegen import GeneratedFsm, generate_rtl
from ..engines import engine_class, resolve
from ..hls.interpreter import MemMonitor
from ..hls.ir import (Assign, For, HlsProgram, If, MemReadStmt, PortWrite,
                      WaitCycle, WaitUntil)
from ..hls.schedule import (Fsm, Scheduler, SchedulingConstraints,
                            prune_dead_reg_writes)
from ..rtl.expr import (Add, Case, Cat, Const, Expr, Mux, Ref, Slice, SMul,
                        Sra, Sub)
from ..rtl.ir import RtlMemory, RtlModule
from .coefficients import build_rom
from .io_interfaces import FrontEnd, FrontEndOptions
from .params import SrcParams

#: extra accumulator bits of the unoptimised design ("bit-widths were
#: chosen too pessimistic"); 35 -> 48 for the paper configuration
UNOPT_ACC_EXTRA = 13
#: guard bits the conservative refinement kept on each multiplier
#: operand (inherited from the C specification's integer types)
UNOPT_MUL_GUARD = 2
#: extra address guard bits of the unoptimised design
UNOPT_ADDR_EXTRA = 2
#: mode-decode generality of the unoptimised design
UNOPT_GENERIC_MODES = 8


@dataclass(frozen=True)
class BehavioralOptions:
    """Independent optimisation knobs of the behavioural source/synthesis.

    Each flag corresponds to one of the paper's Section 4.4 optimisation
    steps, so the ablation benchmarks can flip them one at a time:

    * ``handshake`` -- per-tap request/grant protocol with the input
      buffer ("Handshaking in loops");
    * ``pessimistic_widths`` -- the conservative refinement's oversized
      accumulators, multiplier guard bits and address registers
      ("Bit-widths");
    * ``registered_temps`` -- redundant registered temporaries from the
      cut-and-paste refinement ("Code proliferation");
    * ``share_registers`` / ``prune_dead_writes`` -- synthesis-side
      cleanup quality (register allocation, dead-value elimination);
    * ``generic_modes`` -- mode-decode sized for this many modes
      ("Generality": the template-generic code kept eight).
    """

    handshake: bool = False
    pessimistic_widths: bool = False
    registered_temps: bool = False
    share_registers: bool = True
    prune_dead_writes: bool = True
    generic_modes: int = 0  # 0 = the real mode count

    @classmethod
    def unoptimized(cls) -> "BehavioralOptions":
        """The first synthesisable behavioural model (Section 4.3)."""
        return cls(handshake=True, pessimistic_widths=True,
                   registered_temps=True, share_registers=False,
                   prune_dead_writes=False,
                   generic_modes=UNOPT_GENERIC_MODES)

    @classmethod
    def optimized(cls) -> "BehavioralOptions":
        """The optimised behavioural model (Section 4.4)."""
        return cls()


def _coerce_options(optimized) -> "BehavioralOptions":
    if isinstance(optimized, BehavioralOptions):
        return optimized
    return (BehavioralOptions.optimized() if optimized
            else BehavioralOptions.unoptimized())


def round_saturate_expr(acc: Expr, params: SrcParams) -> Expr:
    """Scale a MAC accumulator to an output sample (see params)."""
    w = acc.width
    shift = params.coef_frac_bits
    dw = params.data_width
    half = 1 << (shift - 1)
    x = Add(acc.sext(w + 1), Const(w + 1, half), width=w + 1)
    sh = Sra(x, shift)
    lo = min_signed(dw)
    hi = max_signed(dw)
    too_small = sh.slt(Const(w + 1, lo))
    too_big = sh.sgt(Const(w + 1, hi))
    return Mux(too_small, Const(dw, lo),
               Mux(too_big, Const(dw, hi), Slice(sh, dw - 1, 0)))


def build_main_program(params: SrcParams, optimized) -> HlsProgram:
    """The behavioural main process of the SRC.

    *optimized* is a bool preset or a :class:`BehavioralOptions`.
    """
    options = _coerce_options(optimized)
    p = params
    dw = p.data_width
    cw = p.coef_width
    ab = p.addr_bits
    fb = max(1, p.taps_per_phase.bit_length())
    pb = p.phase_index_bits
    taps = p.taps_per_phase
    tb = max(1, (taps - 1).bit_length()) if taps > 1 else 1
    nb = pb + tb  # prototype index width (N = n_phases * taps, powers of 2)
    if (1 << nb) != p.prototype_length:
        raise ValueError("prototype length must be a power of two")
    rb = p.rom_addr_bits
    pessimistic = options.pessimistic_widths
    acc_w = p.acc_width + (UNOPT_ACC_EXTRA if pessimistic else 0)
    naw = ab + (UNOPT_ADDR_EXTRA if pessimistic else 0)
    depth = p.buffer_depth

    prog = HlsProgram(
        "src_main_opt" if options == BehavioralOptions.optimized()
        else "src_main"
    )

    req = prog.input("req", 1)
    phase = prog.input("phase", pb)
    wr_ptr = prog.input("wr_ptr", ab)
    fill = prog.input("fill", fb)
    if options.handshake:
        gnt = prog.input("gnt", 1)

    prog.output("out_l", dw)
    prog.output("out_r", dw)
    prog.output("out_valid", 1, kind="pulse")
    prog.output("take", 1, kind="pulse")
    if options.handshake:
        prog.output("buf_req", 1, kind="pulse")

    prog.memory("buf_l", depth, dw, external_write=True)
    prog.memory("buf_r", depth, dw, external_write=True)
    prog.memory("rom", p.rom_depth, cw, contents=build_rom(p))

    ph = prog.var("ph", pb)
    np_ = prog.var("np", naw)
    fl = prog.var("fl", fb)
    t = prog.var("t", tb)
    caddr = prog.var("caddr", rb)
    coef = prog.var("coef", cw)
    s_l = prog.var("s_l", dw)
    s_r = prog.var("s_r", dw)
    g_l = prog.var("g_l", dw)
    g_r = prog.var("g_r", dw)
    acc_l = prog.var("acc_l", acc_w)
    acc_r = prog.var("acc_r", acc_w)
    junk_l = prog.var("junk_l", dw)
    junk_r = prog.var("junk_r", dw)
    if options.registered_temps:
        # redundant temporaries of the cut-and-paste refinement; the
        # extra cycle boundaries make them genuinely registered values
        ph_copy = prog.var("ph_copy", pb)
        caddr_copy = prog.var("caddr_copy", rb)
        rnd_l = prog.var("rnd_l", dw)
        rnd_r = prog.var("rnd_r", dw)

    addr_now = Slice(np_, ab - 1, 0)
    proto = Cat(t, Ref("ph_copy", pb) if options.registered_temps else ph)
    mirrored = Sub(Const(nb, p.prototype_length - 1), proto, width=nb)
    caddr_expr = Mux(proto.bit(nb - 1),
                     Slice(mirrored, rb - 1, 0),
                     Slice(proto, rb - 1, 0))
    gate = Ref("t", tb).zext(fb + 1).ult(Ref("fl", fb).zext(fb + 1))
    guard = UNOPT_MUL_GUARD if pessimistic else 0
    mac_l = Add(Ref("acc_l", acc_w),
                SMul(Ref("g_l", dw).sext(dw + guard),
                     Ref("coef", cw).sext(cw + guard)).sext(acc_w),
                width=acc_w)
    mac_r = Add(Ref("acc_r", acc_w),
                SMul(Ref("g_r", dw).sext(dw + guard),
                     Ref("coef", cw).sext(cw + guard)).sext(acc_w),
                width=acc_w)
    np_dec = Mux(addr_now.eq(Const(ab, 0)),
                 Const(naw, depth - 1),
                 Slice(Sub(np_, Const(naw, 1), width=naw), naw - 1, 0))

    loop_body = []
    if options.registered_temps:
        loop_body.append(Assign("caddr_copy", caddr_expr))
        loop_body.append(Assign("caddr", Ref("caddr_copy", rb)))
    else:
        loop_body.append(Assign("caddr", caddr_expr))
    if options.handshake:
        loop_body.append(PortWrite("buf_req", Const(1, 1)))
        loop_body.append(WaitUntil(Ref("gnt", 1)))
    loop_body += [
        MemReadStmt("coef", "rom", Ref("caddr", rb)),
        MemReadStmt("s_l", "buf_l", addr_now),
        MemReadStmt("s_r", "buf_r", addr_now),
        Assign("g_l", Mux(gate, Ref("s_l", dw), Const(dw, 0))),
        Assign("g_r", Mux(gate, Ref("s_r", dw), Const(dw, 0))),
        Assign("acc_l", mac_l),
        Assign("acc_r", mac_r),
        Assign("np", np_dec),
    ]

    normal_path = [
        Assign("acc_l", Const(acc_w, 0)),
        Assign("acc_r", Const(acc_w, 0)),
        For("t", taps, loop_body),
    ]
    if not options.registered_temps:
        normal_path += [
            PortWrite("out_l", round_saturate_expr(Ref("acc_l", acc_w), p)),
            PortWrite("out_r", round_saturate_expr(Ref("acc_r", acc_w), p)),
            PortWrite("out_valid", Const(1, 1)),
        ]
    else:
        normal_path += [
            # conservative refinement: rounded values land in registered
            # temporaries one cycle before they reach the output ports
            Assign("rnd_l",
                   round_saturate_expr(Ref("acc_l", acc_w), p)),
            Assign("rnd_r",
                   round_saturate_expr(Ref("acc_r", acc_w), p)),
            WaitCycle(),
            PortWrite("out_l", Ref("rnd_l", dw)),
            PortWrite("out_r", Ref("rnd_r", dw)),
            PortWrite("out_valid", Const(1, 1)),
        ]

    bug_path = [
        # Leftover prefetch: the address register still holds the flush
        # sentinel (== buffer_depth, one past the valid range).  The data
        # is discarded -- the early-out returns silence.
        MemReadStmt("junk_l", "buf_l", Const(ab, depth)),
        MemReadStmt("junk_r", "buf_r", Const(ab, depth)),
        PortWrite("out_l", Const(dw, 0)),
        PortWrite("out_r", Const(dw, 0)),
        PortWrite("out_valid", Const(1, 1)),
    ]

    snapshot = [
        Assign("ph", Ref("phase", pb)),
        Assign("np", Ref("wr_ptr", ab).zext(naw) if naw > ab
               else Ref("wr_ptr", ab)),
        Assign("fl", Ref("fill", fb)),
        PortWrite("take", Const(1, 1)),
    ]
    if options.registered_temps:
        snapshot.append(Assign("ph_copy", Ref("ph", pb)))

    prog.body = [
        WaitUntil(Ref("req", 1)),
        *snapshot,
        If(Ref("fl", fb).eq(Const(fb, 0)), bug_path, normal_path),
    ]
    prog.validate()
    return prog


def build_main_fsm(params: SrcParams, optimized=True) -> Fsm:
    """Build and schedule the main process FSM alone, without the
    front end that feeds it (see :func:`build_behavioral_fsm`)."""
    options = _coerce_options(optimized)
    program = build_main_program(params, options)
    constraints = SchedulingConstraints(
        clock_ns=params.clock_period_ps / 1000.0,
        materialize_all_regs=not options.prune_dead_writes,
    )
    fsm = Scheduler(program, constraints).run()
    if options.prune_dead_writes:
        prune_dead_reg_writes(fsm)
    return fsm


def _wire_front_end(module: RtlModule, params: SrcParams,
                    options: BehavioralOptions):
    """Declare the main process's RT-level front end in *module*.

    The front end is :class:`~repro.src_design.io_interfaces.FrontEnd`
    plus, with handshaking, the buffer arbiter's grant register
    ``fe_gnt``.  Returns the :class:`FrontEnd`, the main-process input
    ports it drives (as :func:`~repro.hls.codegen.generate_rtl` takes
    them) and ``finish(outputs, buf_l, buf_r)``, which closes it over
    the main process's ``take`` / ``buf_req`` nets and sample buffers.
    """
    fe = FrontEnd(module, params, FrontEndOptions(
        generic_modes=options.generic_modes or len(params.modes)))
    fe.declare()
    inputs: Dict[str, Ref] = {
        "req": fe.out_req,
        "phase": fe.phase,
        "wr_ptr": fe.wr_ptr,
        "fill": fe.fill,
    }
    if options.handshake:
        inputs["gnt"] = module.register("fe_gnt", 1, init=0)

    def finish(outputs: Dict[str, Ref], buf_l: RtlMemory,
               buf_r: RtlMemory) -> None:
        if options.handshake:
            # buffer arbiter: grant one cycle after the request pulse
            module.set_next(inputs["gnt"], outputs["buf_req"])
        fe.finish(take=outputs["take"], buf_l=buf_l, buf_r=buf_r)

    return fe, inputs, finish


def build_behavioral_fsm(params: SrcParams, optimized=True) -> Fsm:
    """The behavioural DUT as one program: the main process FSM with
    its front end attached, taking the RTL DUT's six pins.

    The FSM engines run the front end inside every cycle (see
    :class:`~repro.hls.schedule.FrontEndBlock`), so this simulates what
    :func:`build_behavioral_design` synthesises.
    """
    options = _coerce_options(optimized)
    fsm = build_main_fsm(params, options)
    program = fsm.program
    module = RtlModule(f"{program.name}_front_end")
    _, inputs, finish = _wire_front_end(module, params, options)
    # the main process's registered outputs the front end reads
    outputs = {name: module.input(name, program.ports[name].width)
               for name in ("take", "buf_req") if name in program.ports}
    buffers = [module.memory(name, program.memories[name].depth,
                             program.memories[name].width)
               for name in ("buf_l", "buf_r")]
    finish(outputs, *buffers)
    return fsm.with_front_end(module, inputs)


@dataclass
class BehavioralDesign:
    """A fully built behavioural SRC: RTL module + metadata."""

    module: RtlModule
    program: HlsProgram
    fsm: Fsm
    binding: RegisterBinding
    generated: GeneratedFsm
    #: True when built from the optimised preset
    optimized: bool
    front_end: FrontEnd
    options: "BehavioralOptions" = None


def build_behavioral_design(params: SrcParams, optimized,
                            name: Optional[str] = None) -> BehavioralDesign:
    """Build the complete behavioural SRC as one flat RTL module.

    *optimized* is a bool preset or a :class:`BehavioralOptions`.
    """
    options = _coerce_options(optimized)
    is_opt_preset = options == BehavioralOptions.optimized()
    p = params
    module = RtlModule(
        name or ("src_beh_opt" if is_opt_preset else "src_beh")
    )
    fe, inputs, finish = _wire_front_end(module, p, options)

    fsm = build_main_fsm(p, options)
    program = fsm.program
    binding = bind_registers(fsm, share=options.share_registers)
    generated = generate_rtl(fsm, module, inputs, binding, prefix="main")
    finish(generated.outputs, generated.memories["buf_l"],
           generated.memories["buf_r"])
    module.output("out_l", generated.outputs["out_l"])
    module.output("out_r", generated.outputs["out_r"])
    module.output("out_valid", generated.outputs["out_valid"])
    module.validate()
    return BehavioralDesign(
        module=module, program=program, fsm=fsm, binding=binding,
        generated=generated, optimized=is_opt_preset, front_end=fe,
        options=options,
    )


class BehavioralSimulation:
    """The behavioural SRC DUT on one FSM engine.

    This is the "synthesisable behavioural SystemC" simulation of paper
    Figure 8: the main process executes its schedule state by state,
    and the engine runs the RT-level front end (an I/O interface block)
    inside every cycle -- one generated program from
    :func:`build_behavioral_fsm`.  It takes the same pins as the RTL
    and gate DUTs (``set_input`` / ``step`` / ``get``), so the same
    drivers serve all three.
    """

    def __init__(self, params: SrcParams, optimized=True,
                 mem_monitor: Optional[MemMonitor] = None,
                 fsm: Optional[Fsm] = None, backend: str = "interpreted"):
        self.backend = resolve(backend)
        if fsm is None:
            fsm = build_behavioral_fsm(params, optimized)
        self.interp = engine_class(self.backend, "fsm")(
            fsm, mem_monitor=mem_monitor)

    def set_input(self, name: str, value: int) -> None:
        self.interp.set_input(name, value)

    def step(self) -> None:
        """Advance one clock cycle."""
        self.interp.step()

    def get(self, name: str) -> int:
        return self.interp.get_output(name)

    def input_names(self) -> List[str]:
        """The input ports, in declaration order."""
        return list(self.interp.fsm.input_masks())

    def reset(self) -> None:
        """Back to the state a new simulation starts in: the entry
        state, the power-on environment and every memory."""
        self.interp.reset()

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[tuple]:
        """The engine's ``replay`` (see :mod:`repro.engines`)."""
        return self.interp.replay(waveform, ports)
