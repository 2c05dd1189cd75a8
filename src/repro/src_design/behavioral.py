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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
from ..rtl.ir import RtlModule
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

    @property
    def display_name(self) -> str:
        return "opt" if self == self.optimized() else "custom"


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
    """Build and schedule the main process FSM (shared by both the
    interpreted and compiled behavioural backends)."""
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
    fe_opts = FrontEndOptions(
        generic_modes=options.generic_modes or len(p.modes)
    )
    fe = FrontEnd(module, p, fe_opts)
    fe.declare()

    fsm = build_main_fsm(p, options)
    program = fsm.program
    binding = bind_registers(fsm, share=options.share_registers)

    inputs: Dict[str, Ref] = {
        "req": fe.out_req,
        "phase": fe.phase,
        "wr_ptr": fe.wr_ptr,
        "fill": fe.fill,
    }
    gnt_reg = None
    if options.handshake:
        gnt_reg = module.register("fe_gnt", 1, init=0)
        inputs["gnt"] = gnt_reg

    generated = generate_rtl(fsm, module, inputs, binding, prefix="main")

    if gnt_reg is not None:
        # buffer arbiter: grant one cycle after the request pulse
        module.set_next(gnt_reg, generated.outputs["buf_req"])

    fe.finish(
        take=generated.outputs["take"],
        buf_l=generated.memories["buf_l"],
        buf_r=generated.memories["buf_r"],
    )
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
    """Behavioural simulation: FSM interpreter + front-end model.

    This is the "synthesisable behavioural SystemC" simulation of paper
    Figure 8: the main process executes its schedule state by state; the
    RTL front end (an I/O interface block) is mirrored behaviourally
    using the parameter helpers.  Bit-exact against the generated RTL.
    """

    def __init__(self, params: SrcParams, optimized=True,
                 mem_monitor: Optional[MemMonitor] = None,
                 fsm: Optional[Fsm] = None, backend: str = "interpreted"):
        self.params = params
        self.options = _coerce_options(optimized)
        self.optimized = self.options == BehavioralOptions.optimized()
        self._handshake = self.options.handshake
        self.backend = resolve(backend)
        if fsm is None:
            fsm = build_main_fsm(params, self.options)
        self.interp = engine_class(self.backend, "fsm")(
            fsm, mem_monitor=mem_monitor)
        # front-end state
        self.mode = 0
        self.wr_ptr = params.buffer_depth - 1
        self.fill = 0
        self.pos = 0
        self._gnt = 0
        # pending per-cycle stimulus
        self._in_frame: Optional[Tuple[int, int]] = None
        self._cfg: Optional[int] = None
        self._req = 0

    # -- stimulus ----------------------------------------------------------
    def drive_input(self, left: int, right: int) -> None:
        self._in_frame = (left, right)

    def drive_cfg(self, mode: int) -> None:
        self._cfg = mode

    def drive_req(self) -> None:
        self._req = 1

    # -- one clock cycle -----------------------------------------------------
    def step(self) -> Optional[Tuple[int, int]]:
        """Advance one cycle; returns an output frame when valid pulses."""
        p = self.params
        interp = self.interp
        # combinational phase preview for the main process
        pos_after = p.pos_after_output(self.pos, self.mode)
        interp.set_input("req", self._req)
        interp.set_input("phase", p.phase_from_pos(pos_after))
        interp.set_input("wr_ptr", self.wr_ptr)
        interp.set_input("fill", self.fill)
        if self._handshake:
            interp.set_input("gnt", self._gnt)
        # register values *during* this cycle (pre-edge), as the RTL
        # front end samples them
        take = interp.get_output("take")
        buf_req_now = (interp.get_output("buf_req")
                       if self._handshake else 0)
        interp.step()
        # front-end sequential update (mirrors FrontEnd.finish)
        if self._cfg is not None:
            self.mode = self._cfg
            self.wr_ptr = p.buffer_depth - 1
            self.fill = 0
            self.pos = 0
        else:
            if take:
                self.pos = p.pos_after_output(self.pos, self.mode)
            if self._in_frame is not None:
                self.wr_ptr = (self.wr_ptr + 1) % p.buffer_depth
                left, right = self._in_frame
                interp.write_memory("buf_l", self.wr_ptr, left)
                interp.write_memory("buf_r", self.wr_ptr, right)
                self.fill = min(self.fill + 1, p.taps_per_phase)
                self.pos = p.pos_after_input(self.pos)
        if self._handshake:
            self._gnt = buf_req_now
        self._in_frame = None
        self._cfg = None
        self._req = 0
        if interp.get_output("out_valid"):
            return (interp.get_output("out_l"), interp.get_output("out_r"))
        return None


class BehavioralBatchSimulation:
    """N independent behavioural SRC instances advanced in lock-step.

    Built on the engine's FSM batch (``CompiledFsmBatch`` by default):
    one generated FSM program, N private environments/memories, plus
    an N-wide mirror of the front-end state.  Stimulus
    (``drive_input`` / ``drive_cfg`` / ``drive_req``) is broadcast to
    every pattern -- the fault-injection campaign uses this to run one
    fault-free golden pattern alongside N-1 faulty patterns under a
    common workload, with faults poked into individual patterns via
    ``batch.flip_bit``.

    ``step()`` returns one ``Optional[(left, right)]`` frame per
    pattern.
    """

    def __init__(self, params: SrcParams, n_patterns: int, optimized=True,
                 fsm: Optional[Fsm] = None, backend: str = "compiled"):
        self.params = params
        self.options = _coerce_options(optimized)
        self.optimized = self.options == BehavioralOptions.optimized()
        self._handshake = self.options.handshake
        self.backend = backend = resolve(backend)
        if fsm is None:
            fsm = build_main_fsm(params, self.options)
        self.batch = engine_class(backend, "fsm_batch")(fsm, n_patterns)
        self.n_patterns = n_patterns
        n = n_patterns
        if backend == "vectorized":
            import numpy as np

            # lane-parallel front-end mirror.  mode / wr_ptr / fill stay
            # scalars: every update that touches them is broadcast
            # (drive_cfg / drive_input), so they can never diverge
            # across lanes; only pos (via the FSM's take pulse) and the
            # handshake grant are fed back from per-lane FSM outputs.
            self.mode = 0
            self.wr_ptr = params.buffer_depth - 1
            self.fill = 0
            self.pos = np.zeros(n, dtype=np.int64)
            self._gnt = np.zeros(n, dtype=np.uint64)
            self._inc = params.position_increments
            self._pos_mask = (1 << params.pos_width) - 1
            self._pos_half = 1 << (params.pos_width - 1)
        else:
            # per-pattern front-end mirror (faults make patterns diverge)
            self.mode = [0] * n
            self.wr_ptr = [params.buffer_depth - 1] * n
            self.fill = [0] * n
            self.pos = [0] * n
            self._gnt = [0] * n
        # pending broadcast stimulus
        self._in_frame: Optional[Tuple[int, int]] = None
        self._cfg: Optional[int] = None
        self._req = 0

    # -- stimulus (broadcast to every pattern) -------------------------
    def drive_input(self, left: int, right: int) -> None:
        self._in_frame = (left, right)

    def drive_cfg(self, mode: int) -> None:
        self._cfg = mode

    def drive_req(self) -> None:
        self._req = 1

    # -- one clock cycle ----------------------------------------------
    def step(self) -> List[Optional[Tuple[int, int]]]:
        """Advance all patterns one cycle; per-pattern output frames."""
        if self.backend == "vectorized":
            return self._step_vectorized()
        p = self.params
        batch = self.batch
        n = self.n_patterns
        pos_after = [p.pos_after_output(self.pos[i], self.mode[i])
                     for i in range(n)]
        batch.set_input("req", self._req)
        batch.set_input_patterns(
            "phase", [p.phase_from_pos(pa) for pa in pos_after])
        batch.set_input_patterns("wr_ptr", self.wr_ptr)
        batch.set_input_patterns("fill", self.fill)
        if self._handshake:
            batch.set_input_patterns("gnt", self._gnt)
        take = batch.get_output_patterns("take")
        buf_req_now = (batch.get_output_patterns("buf_req")
                       if self._handshake else None)
        batch.step()
        # front-end sequential update (mirrors BehavioralSimulation.step)
        for i in range(n):
            if self._cfg is not None:
                self.mode[i] = self._cfg
                self.wr_ptr[i] = p.buffer_depth - 1
                self.fill[i] = 0
                self.pos[i] = 0
            else:
                if take[i]:
                    self.pos[i] = p.pos_after_output(self.pos[i],
                                                     self.mode[i])
                if self._in_frame is not None:
                    self.wr_ptr[i] = (self.wr_ptr[i] + 1) % p.buffer_depth
                    left, right = self._in_frame
                    batch.write_memory(i, "buf_l", self.wr_ptr[i], left)
                    batch.write_memory(i, "buf_r", self.wr_ptr[i], right)
                    self.fill[i] = min(self.fill[i] + 1, p.taps_per_phase)
                    self.pos[i] = p.pos_after_input(self.pos[i])
            if self._handshake:
                self._gnt[i] = buf_req_now[i]
        self._in_frame = None
        self._cfg = None
        self._req = 0
        out_valid = batch.get_output_patterns("out_valid")
        out_l = batch.get_output_patterns("out_l")
        out_r = batch.get_output_patterns("out_r")
        return [(out_l[i], out_r[i]) if out_valid[i] else None
                for i in range(n)]

    def _step_vectorized(self) -> List[Optional[Tuple[int, int]]]:
        """Lane-parallel mirror of :meth:`step` (same semantics)."""
        import numpy as np

        p = self.params
        batch = self.batch
        n = self.n_patterns
        half, m = self._pos_half, self._pos_mask
        # combinational phase preview (wrapping two's-complement add)
        pos_after = ((self.pos + self._inc[self.mode] + half) & m) - half
        clamped = np.clip(pos_after, 0, p.one_sample_units - 1)
        batch.set_input("req", self._req)
        batch.set_input_patterns(
            "phase", (clamped >> p.phase_frac_bits).astype(np.uint64))
        batch.set_input("wr_ptr", self.wr_ptr)
        batch.set_input("fill", self.fill)
        if self._handshake:
            batch.set_input_patterns("gnt", self._gnt)
        take = batch.output_array("take").copy()
        buf_req_now = (batch.output_array("buf_req").copy()
                       if self._handshake else None)
        batch.step()
        # front-end sequential update (mirrors BehavioralSimulation.step)
        if self._cfg is not None:
            self.mode = self._cfg
            self.wr_ptr = p.buffer_depth - 1
            self.fill = 0
            self.pos = np.zeros(n, dtype=np.int64)
        else:
            self.pos = np.where(take != 0, pos_after, self.pos)
            if self._in_frame is not None:
                self.wr_ptr = (self.wr_ptr + 1) % p.buffer_depth
                left, right = self._in_frame
                batch.write_memory_all("buf_l", self.wr_ptr, left)
                batch.write_memory_all("buf_r", self.wr_ptr, right)
                self.fill = min(self.fill + 1, p.taps_per_phase)
                self.pos = ((self.pos - p.one_sample_units + half) & m) \
                    - half
        if self._handshake:
            self._gnt = buf_req_now
        self._in_frame = None
        self._cfg = None
        self._req = 0
        valid = batch.output_array("out_valid")
        if not valid.any():
            return [None] * n
        out_l = batch.output_array("out_l")
        out_r = batch.output_array("out_r")
        return [(int(out_l[i]), int(out_r[i])) if valid[i] else None
                for i in range(n)]
