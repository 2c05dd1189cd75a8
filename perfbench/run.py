"""Layer-resolved benchmark of the repro design flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fi_gate_cold --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced pass and a traced pass over the same units and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402

Metrics = Dict[str, Tuple[float, str]]


#: what :func:`calibrate` takes on the reference host, a 2.1 GHz x86-64
#: VM with gcc; timings scaled by ``CALIBRATION_S / calibrate()`` read as
#: if run on that host
CALIBRATION_S = 0.1

_CALIBRATION_C = "".join(
    f"unsigned g{i}(unsigned x) {{ return x * {i}u + (x >> {i % 7}); }}\n"
    for i in range(24))


def calibrate(scratch: workloads.Scratch) -> float:
    """Seconds a fixed piece of host work takes right now.

    The work -- a pure-Python loop and a ``cc`` compile of a fixed C
    file -- runs no repro code, so only the host's momentary speed
    moves it.  On a shared host that speed drifts by up to 2x within a
    minute, far more than the changes the benchmark has to resolve.
    """
    source = os.path.join(scratch.path, "calibrate.c")
    with open(source, "w", encoding="utf-8") as fh:
        fh.write(_CALIBRATION_C)
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(100_000):
        table[i & 255] = table.get(i & 255, 0) + (i * 3 >> 1)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o",
                    source[:-2] + ".so", source], check=True)
    return time.perf_counter() - t0


class HostClock:
    """Host speed around each piece of timed work.

    :meth:`speed` is called right after the work: it calibrates again
    and returns ``CALIBRATION_S`` over the mean of the calibrations just
    before and just after the work (above 1 on a faster host).
    """

    def __init__(self, scratch: workloads.Scratch):
        self.scratch = scratch
        self.last = calibrate(scratch)

    def speed(self) -> float:
        now = calibrate(self.scratch)
        speed = 2 * CALIBRATION_S / (self.last + now)
        self.last = now
        return speed


def run_units(workload, scratch, seconds: float, min_units: int,
              count: int = 0, clock: Optional[HostClock] = None
              ) -> List[workloads.UnitResult]:
    """Run *count* units, or as many as fit in *seconds* (at least
    *min_units*): another unit starts only if it should still end in
    time at the mean unit length so far.  With a *clock*, each unit
    records the host speed around it."""
    units: List[workloads.UnitResult] = []
    start = time.perf_counter()
    while True:
        unit = workload.unit(scratch)
        if clock is not None:
            unit.host_speed = clock.speed()
        units.append(unit)
        if count:
            if len(units) >= count:
                return units
            continue
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and \
                elapsed * (len(units) + 1) / len(units) > seconds:
            return units


def scaled_rate(units: List[workloads.UnitResult]) -> float:
    """Operations per second of reference-host time over all *units*.

    A total, not a median: the ``fi_gate_cold`` units cycle through
    faultloads of unequal cost, and the total weighs each the same.
    """
    return sum(u.ops for u in units) / \
        sum(u.seconds * u.host_speed for u in units)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, size: workloads.Size,
            scratch) -> Tuple[Metrics, List[workloads.UnitResult], Dict]:
    """The untraced run: repeated set-up, then timed units.

    Set-up runs ``size.setup_repeats`` times, and again while the
    set-ups so far took under ``size.setup_seconds``, so the median
    of a cheap set-up rests on many samples.  Every set-up and unit is
    scaled to the reference host's speed (:class:`HostClock`)."""
    clock = HostClock(scratch)
    setups: List[Tuple[float, float]] = []
    while len(setups) < size.setup_repeats or \
            (sum(s for s, _ in setups) < size.setup_seconds
             and len(setups) < 100):
        t0 = time.perf_counter()
        workload.setup(seed, scratch)
        setups.append((time.perf_counter() - t0, clock.speed()))
    units = run_units(workload, scratch, seconds, size.min_units,
                      clock=clock)
    metrics: Metrics = {
        "ops_per_s": (scaled_rate(units), "1/s"),
        "setup_s": (statistics.median(s * speed for s, speed in setups),
                    "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, units, {"setup_s": [s for s, _ in setups],
                            "setup_host_speed": [v for _, v in setups]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload, seed: int, seconds: float, scratch, chrome_path: str,
           meta: Dict) -> Tuple[Metrics, List[workloads.UnitResult], Dict]:
    """An untraced reference pass, then a traced pass over as many units;
    per-layer self times cover the traced units, set-up is reported as
    its own group.  Only the reference pass calibrates the host."""
    workload.setup(seed, scratch)
    reference = run_units(workload, scratch, seconds / 2, 1,
                          clock=HostClock(scratch))

    tracer = layers.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup(seed, scratch)
        t1 = time.perf_counter()
        setup_self, setup_calls, _ = tracer.take()
        workload.tally = {}
        workloads.clear_compile_caches()
        before = workloads.process_counters()
        t2 = time.perf_counter()
        units = run_units(workload, scratch, 0, 1, count=len(reference))
        t3 = time.perf_counter()
        workloads.clear_compile_caches(workload.tally)
        after = workloads.process_counters()
        self_s, calls, items = tracer.take()
        tracer.mark("perfbench.setup", t0, t1)
        tracer.mark("perfbench.units", t2, t3)
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(chrome_path, meta)

    wall = t3 - t2
    delta = {k: after[k] - before[k] for k in after}
    m: Metrics = {f"{layer}_s": (self_s.get(layer, 0.0), "s")
                  for layer in layers.LAYERS}
    m["other_s"] = (wall - sum(self_s.values()), "s")
    m["obs.traced_wall_s"] = (wall, "s")
    # overhead compares the units' own timed regions, which leaves the
    # reference pass's calibrations out
    untraced = sum(u.seconds for u in reference)
    m["obs.untraced_wall_s"] = (untraced, "s")
    m["obs.trace_overhead"] = (
        sum(u.seconds for u in units) / untraced - 1.0, "ratio")
    m["obs.host_speed"] = (
        statistics.median(u.host_speed for u in reference), "ratio")
    m["native.so_builds"] = (calls.get("native.cc", 0), "count")
    m["native.source_kb"] = (delta["source_bytes"] / 1024.0, "kB")
    m["native.disk_hit_ratio"] = (
        _ratio(delta["disk_hits"], delta["disk_hits"] + delta["disk_misses"]),
        "ratio")
    for backend in ("native", "compiled"):
        hits, misses = workload.tally.get(backend, (0, 0))
        m[f"compile_cache.{backend}.hit_ratio"] = (
            _ratio(hits, hits + misses), "ratio")
        m[f"compile_cache.{backend}.misses"] = (misses, "count")
    m["gatesim.marshal_calls"] = (calls.get("gatesim.marshal", 0), "count")
    m["gatesim.step_calls"] = (calls.get("gatesim.step", 0), "count")
    m["kernel.deltas"] = (delta["kernel_deltas"], "count")
    m["kernel.activations"] = (delta["kernel_activations"], "count")
    batches = calls.get("fi.batch", 0)
    m["fi.batches"] = (batches, "count")
    m["fi.lane_use"] = (_ratio(items.get("fi.batch", 0),
                               batches * workloads.PATTERNS), "ratio")
    for key in ("gate_pcps", "beh_pcps"):
        rates = [u.extra[key] / u.host_speed for u in reference
                 if key in u.extra]
        m[f"stream.{key}"] = (statistics.median(rates) if rates else 0.0,
                              "1/s")
    m["setup.wall_s"] = (t1 - t0, "s")
    m["setup.synth_s"] = (setup_self.get("synth.synthesize", 0.0), "s")
    m["setup.native_cc_s"] = (setup_self.get("native.cc", 0.0), "s")
    m["setup.so_builds"] = (setup_calls.get("native.cc", 0), "count")
    detail = {"calls": calls, "dropped_events": tracer.dropped,
              "chrome_trace": os.path.relpath(chrome_path, ROOT)}
    return m, reference + units, detail


def git_revision() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git binary
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, cache_state: str) -> Dict:
    from repro.flow.performance import host_info
    from repro.native import toolchain_info

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "cache_state": cache_state,
            "git_revision": git_revision(), "host": host_info(),
            "toolchain": toolchain_info()}


def print_report(args, metrics: Metrics, units, detail: Dict) -> None:
    unit_name = workloads.WORKLOADS[args.workload][1]
    rates = ", ".join(f"{u.rate:.1f}" for u in units)
    speeds = ", ".join(f"{u.host_speed:.2f}" for u in units
                       if u.host_speed is not None)
    print(f"{args.workload}: {len(units)} units, {unit_name}: {rates}")
    print(f"  host speed around each calibrated unit: {speeds}")
    for u in units:
        for problem in u.problems:
            print(f"  FAILED: {problem}")
    if not args.trace:
        setups = ", ".join(f"{s:.3f}" for s in detail["setup_s"])
        speeds = ", ".join(f"{v:.2f}" for v in detail["setup_host_speed"])
        print(f"  set-up s: {setups}")
        print(f"  host speed around each set-up: {speeds}")
        return
    wall = metrics["obs.traced_wall_s"][0]
    print(f"  traced units wall {wall:.3f} s, tracing overhead "
          f"{metrics['obs.trace_overhead'][0] * 100:+.1f}% "
          f"(untraced units {metrics['obs.untraced_wall_s'][0]:.3f} s)")
    print(f"  {'layer':22s} {'self s':>9s} {'share':>7s} {'calls':>9s}")
    rows = [(layer, metrics[f"{layer}_s"][0], detail["calls"].get(layer, 0))
            for layer in layers.LAYERS]
    rows.append(("other", metrics["other_s"][0], 0))
    for layer, seconds, calls in rows:
        if seconds or calls:
            print(f"  {layer:22s} {seconds:9.4f} {seconds / wall:7.1%} "
                  f"{calls:9d}")
    print("  lazy settles count against the public call that triggers "
          "them (gate engines: readback)")
    print(f"  chrome trace: {detail['chrome_trace']} "
          f"({detail['dropped_events']} events over the cap dropped)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    size = workloads.SIZES[args.size]
    workload = workloads.WORKLOADS[args.workload][0](size)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    with workloads.Scratch(OUT_DIR) as scratch:
        meta = provenance(args, workload.cache_state)
        if args.trace:
            metrics, units, detail = traced(
                workload, args.seed, args.seconds, scratch,
                stem + ".trace.json", meta)
        else:
            metrics, units, detail = measure(
                workload, args.seed, args.seconds, size, scratch)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, provenance=meta, detail=detail,
                  units=[{"ops": u.ops, "seconds": u.seconds,
                          "host_speed": u.host_speed,
                          "failed": u.failed, "problems": u.problems,
                          **u.extra} for u in units])
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_report(args, metrics, units, detail)
    print("provenance: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
