"""The benchmark's workloads: set-up, one timed unit, and its checks.

Each workload builds its inputs from the seed in ``setup`` and runs one
*unit* of work per ``unit`` call -- a fault-injection campaign, one
pass over the stimulus stream, or one verification run -- checking the
unit's outputs as it goes.  Every file a run writes lives in a
:class:`Scratch` directory inside the checkout, removed when the run
ends.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: patterns per cycle on the stream engines (one native machine word)
PATTERNS = 64

#: the paper's refinement chain, diffed against the golden model
VERIFY_LEVELS = "alg,tlm,beh,rtl,gate"


@dataclass(frozen=True)
class Size:
    """Work per unit; ``full`` is what the benchmark measures."""

    fi_faults: int
    #: campaigns (faultloads) a fi_gate_cold run cycles through
    fi_campaigns: int
    fi_budget: str
    probe_faults: int
    gate_cycles: int
    beh_cycles: int
    prefix_cycles: int
    verify_budget: str
    #: set-ups per untraced run, at least (``setup_s`` is their median)
    setup_repeats: int
    #: ... and more while the set-ups so far took less than this
    setup_seconds: float
    #: units per run, at least: one more than ``fi_campaigns``, so every
    #: fi_gate_cold run repeats a campaign and checks its outcome digest
    min_units: int


SIZES = {
    "full": Size(fi_faults=31, fi_campaigns=5, fi_budget="small",
                 probe_faults=2,
                 gate_cycles=2048, beh_cycles=4096, prefix_cycles=64,
                 verify_budget="medium", setup_repeats=3, setup_seconds=2.0,
                 min_units=6),
    # the smoke test's size: every code path, seconds per workload
    "tiny": Size(fi_faults=4, fi_campaigns=2, fi_budget="smoke",
                 probe_faults=2,
                 gate_cycles=24, beh_cycles=48, prefix_cycles=8,
                 verify_budget="smoke", setup_repeats=1, setup_seconds=0.0,
                 min_units=1),
}


@dataclass
class UnitResult:
    """One timed unit: *ops* operations' worth of work in *seconds*."""

    ops: int
    seconds: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: the host's speed around the unit relative to the reference host;
    #: None when the unit ran without calibration (the traced pass)
    host_speed: Optional[float] = None

    @property
    def rate(self) -> float:
        return self.ops / self.seconds


class Scratch:
    """The run's private directory inside the checkout.

    Points ``TMPDIR`` (the C compiler's temporaries),
    ``REPRO_BENCH_DIR`` and ``REPRO_NATIVE_CACHE_DIR`` into it for the
    run's lifetime, so nothing lands in tracked paths or ``~/.cache``.
    """

    ENV_KEYS = ("TMPDIR", "REPRO_BENCH_DIR", "REPRO_NATIVE_CACHE_DIR")

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, f"run-{os.getpid()}")
        self.cache_dir: Optional[str] = None
        self._caches = 0
        self._saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        tmp = os.path.join(self.path, "tmp")
        os.makedirs(tmp)
        self._saved = {k: os.environ.get(k) for k in self.ENV_KEYS}
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None
        os.environ["REPRO_BENCH_DIR"] = os.path.join(self.path, "bench")
        return self

    def __exit__(self, *exc) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)

    def new_cache_dir(self) -> None:
        """Point the native ``.so`` cache at a new, empty directory."""
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._caches += 1
        self.cache_dir = os.path.join(self.path, f"so-cache-{self._caches}")
        os.makedirs(self.cache_dir)
        os.environ["REPRO_NATIVE_CACHE_DIR"] = self.cache_dir


def clear_compile_caches(tally: Optional[Dict[str, List[int]]] = None
                         ) -> None:
    """Empty the in-process compile caches, first folding their
    per-backend ``[hits, misses]`` into *tally* when one is given."""
    from repro.compile_cache import iter_caches

    for _, cache in iter_caches():
        if tally is not None:
            for backend, stats in cache.stats_by_backend.items():
                counts = tally.setdefault(backend, [0, 0])
                counts[0] += stats.hits
                counts[1] += stats.misses
        cache.clear()


def process_counters() -> Dict[str, float]:
    """Process totals of the native toolchain and kernel counters."""
    from repro.obs.metrics import KERNEL_STATS, REGISTRY

    def total(name: str) -> float:
        return REGISTRY.counter(name).value

    return {
        "disk_hits": total("repro_native_disk_cache_hits_total"),
        "disk_misses": total("repro_native_disk_cache_misses_total"),
        "source_bytes": total("repro_native_source_bytes_total"),
        "fallbacks": total("repro_native_fallback_total"),
        "kernel_deltas": KERNEL_STATS[0],
        "kernel_activations": KERNEL_STATS[1],
    }


def native_available() -> bool:
    """False when ``backend="native"`` would fall back to compiled."""
    from repro.native import resolve_backend

    return resolve_backend("native") == "native"


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _native_misses(label: str) -> int:
    from repro.compile_cache import iter_caches

    stats = dict(iter_caches())[label].stats_by_backend.get("native")
    return stats.misses if stats is not None else 0


# ----------------------------------------------------------------------
# fi_gate_cold
# ----------------------------------------------------------------------
class FiGateCold:
    """Gate-level native FI campaigns on the SRC netlist, ``jobs=1``.

    Every campaign starts from an empty ``.so`` cache and empty
    in-process compile caches, so each overlay batch compiles.  How
    long ``cc`` takes depends on which faults the overlay holds (up to
    1.5x between seeds at the same source size), so the units cycle
    through ``size.fi_campaigns`` campaigns with seeds derived from the
    run's seed, and a run averages over their faultloads.
    """

    cache_state = "cold"

    def __init__(self, size: Size):
        self.size = size
        #: per-backend compile-cache [hits, misses] of the traced units
        self.tally: Optional[Dict[str, List[int]]] = None

    def setup(self, seed: int, scratch: Scratch) -> None:
        from repro.fi import campaign
        from repro.src_design.params import SMALL_PARAMS

        scratch.new_cache_dir()
        clear_compile_caches()
        self.native_ok = native_available()
        self.configs = [campaign.CampaignConfig(
            SMALL_PARAMS, level="gate", n_faults=self.size.fi_faults,
            jobs=1, seed=seed * self.size.fi_campaigns + k,
            budget=self.size.fi_budget, backend="native",
            probe_faults=self.size.probe_faults)
            for k in range(self.size.fi_campaigns)]
        # run_campaign reuses the per-process state a pool worker builds
        # (synthesised netlist, workload, golden outputs); building each
        # campaign's state here puts that work in set-up
        self.faults = []
        for config in self.configs:
            campaign._WORKER.clear()
            self._prepare(config)
            self.faults.append(campaign.campaign_faultload(config)[0])
        self.references: Dict[int, str] = {}
        self.done = 0

    @staticmethod
    def _prepare(config) -> None:
        from repro.fi import campaign

        campaign._init_worker(config.params, "gate", config.seed,
                              config.budget, "native")

    def unit(self, scratch: Scratch) -> UnitResult:
        from repro.fi.campaign import CampaignError, run_campaign

        k = self.done % len(self.configs)
        self.done += 1
        scratch.new_cache_dir()
        clear_compile_caches(self.tally)
        # untimed: the process holds one campaign's state at a time, so
        # rebuild what set-up built (and timed) for this campaign
        self._prepare(self.configs[k])
        n = len(self.faults[k])
        problems: List[str] = []
        before = process_counters()
        t0 = time.perf_counter()
        try:
            report = run_campaign(self.configs[k])
        except CampaignError as exc:
            report = None
            problems.append(f"campaign aborted: {exc}")
        seconds = time.perf_counter() - t0
        after = process_counters()
        if report is not None:
            outcomes = _outcome_digest(report.records)
            if report.interrupted or len(report.records) != n:
                problems.append("campaign did not classify every fault")
            if self.references.setdefault(k, outcomes) != outcomes:
                problems.append("per-fault outcome digest changed")
            if _native_misses("gate") == 0:
                problems.append("no native gate engine was built")
        if not self.native_ok or after["fallbacks"] != before["fallbacks"]:
            problems.append("native fell back to compiled")
        return UnitResult(ops=n, seconds=seconds, attempted=n,
                          failed=n if problems else 0, problems=problems)


def _outcome_digest(records) -> str:
    return digest([(r.fault.index, r.outcome, r.first_frame,
                    r.detected_cycle, r.n_outputs) for r in records])


# ----------------------------------------------------------------------
# stream_x64
# ----------------------------------------------------------------------
def _random_stimulus(rng: random.Random, ports: Sequence[Tuple[str, int]],
                     cycles: int) -> List[List[Tuple[str, List[int]]]]:
    """One random value per pattern, port and cycle."""
    return [[(name, [rng.randrange(span) for _ in range(PATTERNS)])
             for name, span in ports] for _ in range(cycles)]


def _drive_gate(sim, stimulus, outputs) -> List[list]:
    rows = []
    for vectors in stimulus:
        for name, values in vectors:
            sim.set_input_patterns(name, values)
        sim.step()
        rows.append([sim.get_port_planes(name) for name in outputs])
    return rows


def _drive_beh(sim, stimulus, outputs) -> List[list]:
    rows = []
    for vectors in stimulus:
        for name, values in vectors:
            sim.set_input_patterns(name, values)
        sim.step()
        rows.append([sim.get_output_patterns(name) for name in outputs])
    return rows


class Stream:
    """64 random patterns per cycle through the Gate-RTL netlist and the
    scheduled BEH FSM on the native engines, every output read back
    every cycle.  Engines and stimulus are built in set-up."""

    cache_state = "engines built in set-up"

    def __init__(self, size: Size):
        self.size = size
        self.tally: Optional[Dict[str, List[int]]] = None

    def setup(self, seed: int, scratch: Scratch) -> None:
        from repro.flow.refinement import Level, build_module
        from repro.gatesim import GateSimulator
        from repro.hls.compiled import CompiledFsmBatch
        from repro.hls.native import NativeFsmBatch
        from repro.src_design.behavioral import build_main_fsm
        from repro.src_design.params import SMALL_PARAMS
        from repro.synth import synthesize

        scratch.new_cache_dir()
        clear_compile_caches()
        self.native_ok = native_available()
        netlist = synthesize(build_module(SMALL_PARAMS, Level.GATE_RTL))
        fsm = build_main_fsm(SMALL_PARAMS, True)
        ports = fsm.program.ports.values()
        self.gate_outputs = list(netlist.outputs)
        self.beh_outputs = [p.name for p in ports if p.direction == "out"]
        rng = random.Random(seed)
        self.gate_stimulus = _random_stimulus(
            rng, [(name, 1 << len(nets))
                  for name, nets in netlist.inputs.items()],
            self.size.gate_cycles)
        self.beh_stimulus = _random_stimulus(
            rng, [(p.name, 1 << p.width) for p in ports
                  if p.direction == "in"],
            self.size.beh_cycles)
        self.gate = GateSimulator(netlist, backend="native",
                                  n_patterns=PATTERNS)
        beh_engine = NativeFsmBatch if self.native_ok else CompiledFsmBatch
        self.beh = beh_engine(fsm, PATTERNS)
        # the native streams must match the compiled engines bit for bit
        # on a prefix; each timed pass re-checks its own prefix
        p = self.size.prefix_cycles
        self.prefix = (
            digest(_drive_gate(GateSimulator(netlist, backend="compiled",
                                             n_patterns=PATTERNS),
                               self.gate_stimulus[:p], self.gate_outputs)),
            digest(_drive_beh(CompiledFsmBatch(fsm, PATTERNS),
                              self.beh_stimulus[:p], self.beh_outputs)))
        self.reference: Optional[Tuple[str, str]] = None

    def unit(self, scratch: Scratch) -> UnitResult:
        self.gate.reset()
        self.beh.reset()
        t0 = time.perf_counter()
        gate_rows = _drive_gate(self.gate, self.gate_stimulus,
                                self.gate_outputs)
        t1 = time.perf_counter()
        beh_rows = _drive_beh(self.beh, self.beh_stimulus, self.beh_outputs)
        t2 = time.perf_counter()
        p = self.size.prefix_cycles
        prefix = (digest(gate_rows[:p]), digest(beh_rows[:p]))
        full = (digest(gate_rows), digest(beh_rows))
        if self.reference is None:
            self.reference = full
        problems = [f"{engine} stream differs from the compiled prefix "
                    "or from the first pass"
                    for i, engine in enumerate(("gate", "beh"))
                    if prefix[i] != self.prefix[i]
                    or full[i] != self.reference[i]]
        failed = len(problems)
        if not (self.native_ok and self.gate.backend == "native"):
            problems.append("native fell back to compiled")
            failed = 2
        gate_pc = PATTERNS * self.size.gate_cycles
        beh_pc = PATTERNS * self.size.beh_cycles
        return UnitResult(
            ops=gate_pc + beh_pc, seconds=t2 - t0, attempted=2,
            failed=failed, problems=problems,
            extra={"gate_pcps": gate_pc / (t1 - t0),
                   "beh_pcps": beh_pc / (t2 - t1)})


# ----------------------------------------------------------------------
# verify_levels
# ----------------------------------------------------------------------
class VerifyLevels:
    """``run_verify`` over alg/tlm/beh/rtl/gate on the native engines
    with a warm ``.so`` cache; every unit starts from empty in-process
    caches, like a rerun in a fresh process."""

    cache_state = "warm"

    def __init__(self, size: Size):
        self.size = size
        self.tally: Optional[Dict[str, List[int]]] = None

    def setup(self, seed: int, scratch: Scratch) -> None:
        from repro.src_design.params import SMALL_PARAMS
        from repro.verify.harness import VerifyConfig
        from repro.verify.runner import LevelBuilds, make_dut

        scratch.new_cache_dir()
        clear_compile_caches()
        self.native_ok = native_available()
        self.config = VerifyConfig(
            params=SMALL_PARAMS, levels=VERIFY_LEVELS, backend="native",
            seed=seed, budget=self.size.verify_budget, jobs=1)
        builds = LevelBuilds(SMALL_PARAMS)
        for spec in self.config.specs():
            if spec.is_clocked:
                make_dut(SMALL_PARAMS, spec, builds)  # fills the .so cache

    def unit(self, scratch: Scratch) -> UnitResult:
        from repro.verify.harness import run_verify

        clear_compile_caches(self.tally)
        before = process_counters()
        t0 = time.perf_counter()
        report = run_verify(self.config)
        seconds = time.perf_counter() - t0
        after = process_counters()
        n = len(report.case_reports)
        failed = sum(not case.passed for case in report.case_reports)
        problems = [f"{failed} case(s) diverged"] if failed else []
        if not self.native_ok or after["fallbacks"] != before["fallbacks"] \
                or not all(_native_misses(label)
                           for label in ("gate", "rtl", "hls")):
            problems.append("native fell back to compiled")
            failed = n
        return UnitResult(ops=n, seconds=seconds, attempted=n,
                          failed=failed, problems=problems)


#: name -> (factory taking a Size, what one ops_per_s operation is)
WORKLOADS = {
    "fi_gate_cold": (FiGateCold, "faults/s"),
    "stream_x64": (Stream, "pattern-cycles/s"),
    "verify_levels": (VerifyLevels, "cases/s"),
}
