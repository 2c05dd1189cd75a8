"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro fig8            # simulation performance (Figure 8)
    python -m repro fig9            # co-simulation comparison (Figure 9)
    python -m repro fig10           # area comparison (Figure 10)
    python -m repro refine          # bit-accuracy verification of the chain
    python -m repro verify          # differential fuzzing across levels
    python -m repro fi              # fault-injection dependability campaign
    python -m repro corpus          # multi-design matrix + harden loop
    python -m repro bug             # the golden-model bug story
    python -m repro metrics         # model complexity across levels
    python -m repro profile         # simulation-time split (Section 5.1)
    python -m repro all             # everything (small config for speed)

Options: ``--small`` forces the reduced configuration, ``--paper`` the
paper-scale one.  ``--trace PATH`` (any command) records pipeline
spans -- including spans from worker processes -- and writes one
Chrome trace-event JSON loadable in chrome://tracing or Perfetto,
plus a per-stage wall-time table on stdout.  Defaults: paper scale for synthesis/performance,
reduced for anything gate-level.  ``--backend
interpreted|compiled|native`` selects the simulation engine for
``fig8`` and ``fig9`` at every clocked level -- behavioural FSM, RTL
and gate (compiled = specialised codegen with parallel-pattern packing
into Python-int bitplanes; native = the same codegen emitted as C and
compiled by the host toolchain, falling back to compiled when no C
compiler is found; at the behavioural level each scheduled FSM is
flattened into straight-line code).  A ``--backend`` that names no
engine or group, or has no value, is a usage error for every command;
for ``fi`` and ``corpus`` so is one that names no batch engine.

``verify`` runs the differential verification harness: seeded stimulus
fuzzing of all levels against the golden model with counterexample
shrinking and coverage.  Options: ``--levels alg,tlm,beh,rtl,gate``
(also: tlm-mono, beh-unopt, rtl-unopt, vhdl, gate-beh), ``--seed N``,
``--budget smoke|small|medium|large``, ``--backend
interpreted|compiled|native|both|all`` (``both`` = interpreted +
compiled, ``all`` = all three engines, cross-checked),
``--jobs N`` (fan
the cases out over a worker pool), ``--out DIR`` (write coverage and
counterexample artefacts), ``--self-check`` (inject a netlist mutation
that must be caught and shrunk).

``fi`` runs a fault-injection campaign against the refined SRC and
classifies every fault as masked, sdc, detected or hang.  Options:
``--level rtl|beh|gate`` (``beh`` = SEUs in the scheduled-FSM state,
simulated parallel-fault on the batch behavioural backends),
``--backend compiled|native`` (classification engine: Python or C
pattern batches at the gate and behavioural levels, one fault per
simulation at RTL), ``--model
stuck0,stuck1,pulse,seu`` (default: all), ``--n-faults N``, ``--jobs
N``, ``--seed N``, ``--budget smoke|small|medium|large`` (workload
length), ``--out DIR`` (write the campaign report and
``BENCH_fi.json``; without it nothing is written), ``--self-check``
(gate level only: additionally classify a known-SDC and a known-masked
fault on the campaign's engine, and fail unless both land where they
must).

``corpus`` generates a seeded multi-design corpus (SRC variants plus
counter/ALU/register-file members) and pushes every member through
refine -> differential verify (all levels x all engines) -> synthesize
-> fault injection -> selective hardening (TMR or parity on the
highest-SDC registers) -> re-synthesis -> re-injection.  Options:
``--n-designs N``, ``--seed N``, ``--budget smoke|small|medium|large``,
``--backend compiled|native`` (FI engine), ``--strategy
tmr|parity``, ``--model seu,...`` (corpus default: seu), ``--jobs N``
(one design per worker), ``--out DIR`` (write ``BENCH_corpus.json``
there; without it nothing is written).  Exits non-zero on any refine
or cross-engine equivalence failure.

``serve`` starts the persistent campaign service: an HTTP/JSON API
accepting verify/fi/corpus jobs with a priority queue, sharded worker
pool and content-addressed result cache.  Options: ``--host H``
(default 127.0.0.1), ``--port N`` (default 8321), ``--shards N``
(default 2), ``--cache-entries N`` (default 512).  Stop with Ctrl-C;
the shards are torn down cleanly.

``submit`` sends one job to a running service and streams progress:
``python -m repro submit fi --n-faults 64 --level rtl``.  Options:
``--url http://host:port`` (default http://127.0.0.1:8321), common
job fields ``--priority N`` / ``--deadline S``, per-kind options as
for the offline commands (``--levels``, ``--level``, ``--backend``,
``--seed``, ``--budget``, ``--n-faults``, ``--model``,
``--n-designs``, ``--strategy``), ``--no-wait`` (submit and return),
``--result`` (print the full result JSON).  A resubmission of
identical work is served from the service's result cache without
re-simulation.
"""

from __future__ import annotations

import sys

from .src_design.params import PAPER_PARAMS, SMALL_PARAMS


def _params(args, default):
    if "--small" in args:
        return SMALL_PARAMS
    if "--paper" in args:
        return PAPER_PARAMS
    return default


def cmd_fig8(args) -> None:
    from .flow import measure_figure8, render_figure8

    params = _params(args, PAPER_PARAMS)
    print(render_figure8(measure_figure8(
        params, 300, backend=_option(args, "--backend", "interpreted"))))


def cmd_fig9(args) -> None:
    from .cosim import measure_figure9
    from .flow import render_figure9

    params = _params(args, SMALL_PARAMS)
    print(render_figure9(measure_figure9(
        params, cycles=1500,
        backend=_option(args, "--backend", "interpreted"))))


def cmd_fig10(args) -> None:
    from .flow import main_module_share, run_synthesis_flow

    from .flow import render_figure10

    params = _params(args, PAPER_PARAMS)
    results = run_synthesis_flow(params)
    print(render_figure10(results))
    print()
    print(results.format_figure10())
    print(f"\nBEH-unopt overhead: "
          f"+{results.beh_unopt_overhead_percent:.1f}% (paper: +27.5%)")
    share = main_module_share(params, optimized=False)
    print(f"SRC_MAIN share: {share * 100:.1f}% (paper: >90%)")


def cmd_refine(args) -> None:
    from .dsp import sine_samples
    from .flow import verify_refinement

    params = _params(args, SMALL_PARAMS)
    tone = sine_samples(160, 1000.0, params.modes[0].f_in,
                        params.data_width)
    report = verify_refinement(params, [(s, -s) for s in tone],
                               mode_changes=((80, 1),))
    print(report.format())
    if not report.all_bit_accurate:
        raise SystemExit(1)


def cmd_bug(args) -> None:
    import runpy
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "golden_bug_hunt.py")
    if os.path.exists(path):
        runpy.run_path(path, run_name="__main__")
    else:  # installed without the examples directory
        from .flow import Level, run_level
        from .dsp import sine_samples
        from .src_design import make_schedule

        params = _params(args, SMALL_PARAMS)
        schedule = make_schedule(params, 0, 100, quantized=True)
        tone = sine_samples(100, 1000.0, params.modes[0].f_in,
                            params.data_width)
        hits = []
        run_level(params, Level.BEH_OPT, schedule,
                  [(s, -s) for s in tone],
                  mem_monitor=lambda m, a, d, k: hits.append((m, a))
                  if a >= d else None)
        print(f"invalid accesses observed: {len(hits)}")


def cmd_metrics(args) -> None:
    from .flow.metrics import collect_model_metrics, format_metrics

    params = _params(args, SMALL_PARAMS)
    print(format_metrics(collect_model_metrics(params)))


def cmd_profile(args) -> None:
    from .flow.performance import profile_behavioral_split

    params = _params(args, PAPER_PARAMS)
    shares = profile_behavioral_split(params, n_inputs=60)
    print("Behavioural-simulation time split "
          "(the profiler the paper lacked, Section 5.1):")
    print(f"  behavioural main process : "
          f"{shares['main_process'] * 100:5.1f}%")
    print(f"  RT-level front end       : "
          f"{shares['rtl_front_end'] * 100:5.1f}%")
    print(f"  simulation kernel        : {shares['kernel'] * 100:5.1f}%")


def _option(args, name, default):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


#: commands whose ``--backend`` is a batch engine: campaigns classify
#: faults on several patterns at once
BATCH_COMMANDS = ("fi", "corpus")


def _backend_error(command: str, args):
    """The usage error of a ``--backend`` that *command* cannot run on
    -- no engine or group, no batch engine for :data:`BATCH_COMMANDS`
    -- or that has no value; None when every ``--backend`` is valid."""
    from .engines import ENGINES, GROUPS, batch_engines

    choices = (batch_engines() if command in BATCH_COMMANDS
               else (*ENGINES, *GROUPS))
    for i, arg in enumerate(args):
        if arg == "--backend":
            value = args[i + 1] if i + 1 < len(args) else None
        elif arg.startswith("--backend="):
            value = arg.split("=", 1)[1]
        else:
            continue
        if value not in choices:
            given = "no value" if value is None else repr(value)
            return (f"error: --backend got {given}; choose one of "
                    f"{', '.join(choices)}")
    return None


def cmd_verify(args) -> None:
    from .flow import write_verify_artifacts
    from .verify import (DEFAULT_LEVELS, VerifyConfig, run_self_check,
                         run_verify)

    config = VerifyConfig(
        params=_params(args, SMALL_PARAMS),
        levels=_option(args, "--levels", DEFAULT_LEVELS),
        backend=_option(args, "--backend", "both"),
        seed=int(_option(args, "--seed", "0")),
        budget=_option(args, "--budget", "small"),
        jobs=int(_option(args, "--jobs", "1")),
    )
    if "--self-check" in args:
        report = run_self_check(config)
        print(report.format())
        if not report.caught:
            raise SystemExit(1)
        return
    report = run_verify(config)
    print(report.format())
    out_dir = _option(args, "--out", None)
    if out_dir:
        index = write_verify_artifacts(report, out_dir)
        print(index.format())
    if not report.passed:
        raise SystemExit(1)


def cmd_fi(args) -> None:
    from .fi import FAULT_MODELS, CampaignConfig, run_campaign, \
        run_fi_self_check
    from .flow import write_fi_artifacts

    models = _option(args, "--model", ",".join(FAULT_MODELS))
    level = _option(args, "--level", "gate")
    if "--self-check" in args and level != "gate":
        print(f"error: fi --self-check classifies gate-level faults; "
              f"it does not run with --level {level}", file=sys.stderr)
        raise SystemExit(1)
    config = CampaignConfig(
        params=_params(args, SMALL_PARAMS),
        level=level,
        n_faults=int(_option(args, "--n-faults", "100")),
        jobs=int(_option(args, "--jobs", "1")),
        seed=int(_option(args, "--seed", "0")),
        budget=_option(args, "--budget", "small"),
        models=tuple(m.strip() for m in models.split(",") if m.strip()),
        exhaustive="--exhaustive" in args,
        backend=_option(args, "--backend", "compiled"),
    )
    report = run_campaign(config)
    if report.interrupted:
        # partial campaign: show what was classified, but never write
        # the BENCH json (its schema asserts a complete campaign)
        print(report.format())
        raise SystemExit(130)
    if "--self-check" in args:
        report.self_check = run_fi_self_check(config)
    print(report.format())
    out_dir = _option(args, "--out", None)
    if out_dir:
        index = write_fi_artifacts(report, out_dir)
        print(index.format())
    if report.self_check is not None and not report.self_check.passed:
        raise SystemExit(1)


def cmd_corpus(args) -> None:
    from .corpus import CorpusConfig, run_corpus
    from .flow.artifacts import write_corpus_bench_json

    models = _option(args, "--model", "seu")
    config = CorpusConfig(
        seed=int(_option(args, "--seed", "0")),
        n_designs=int(_option(args, "--n-designs", "6")),
        budget=_option(args, "--budget", "small"),
        backend=_option(args, "--backend", "compiled"),
        strategy=_option(args, "--strategy", "tmr"),
        models=tuple(m.strip() for m in models.split(",") if m.strip()),
        jobs=int(_option(args, "--jobs", "1")),
    )
    report = run_corpus(config)
    if report.interrupted:
        print(report.format())
        raise SystemExit(130)
    print(report.format())
    out_dir = _option(args, "--out", None)
    if out_dir:
        import os
        os.makedirs(out_dir, exist_ok=True)
        path = write_corpus_bench_json(
            report, os.path.join(out_dir, "BENCH_corpus.json"))
        print(f"wrote {path}")
    if not report.passed:
        raise SystemExit(1)


def cmd_serve(args) -> None:
    from .service import ServiceConfig, run_server

    config = ServiceConfig(
        shards=int(_option(args, "--shards", "2")),
        cache_entries=int(_option(args, "--cache-entries", "512")),
    )
    run_server(host=_option(args, "--host", "127.0.0.1"),
               port=int(_option(args, "--port", "8321")),
               config=config)


def cmd_submit(args) -> None:
    from .service import ServiceClient

    names = [a for a in args if not a.startswith("-")]
    if len(names) < 2 or names[1] not in ("verify", "fi", "corpus"):
        print("usage: python -m repro submit verify|fi|corpus "
              "[--url URL] [options]")
        raise SystemExit(1)
    kind = names[1]

    options = {}
    for flag, name, cast in (
            ("--levels", "levels", str), ("--level", "level", str),
            ("--backend", "backend", str), ("--seed", "seed", int),
            ("--budget", "budget", str),
            ("--n-faults", "n_faults", int),
            ("--n-designs", "n_designs", int),
            ("--strategy", "strategy", str)):
        value = _option(args, flag, None)
        if value is not None:
            options[name] = cast(value)
    models = _option(args, "--model", None)
    if models is not None:
        options["models"] = [m.strip() for m in models.split(",")
                             if m.strip()]
    spec = {"kind": kind,
            "params": "paper" if "--paper" in args else "small",
            "priority": int(_option(args, "--priority", "0")),
            "options": options}
    deadline = _option(args, "--deadline", None)
    if deadline is not None:
        spec["deadline_s"] = float(deadline)

    client = ServiceClient(_option(args, "--url",
                                   "http://127.0.0.1:8321"))
    job = client.submit(spec)
    cache = job["cache"]
    print(f"{job['id']}  {kind}  state={job['state']}  "
          f"cache_hit={cache['hit']}  key={cache['key'][:12]}...")
    if "--no-wait" in args:
        return
    if job["state"] not in ("done", "failed", "cancelled", "expired"):
        for event in client.events(job["id"]):
            line = "  " + "  ".join(f"{k}={v}" for k, v in event.items()
                                    if k != "job")
            print(line)
        job = client.job(job["id"], include_result=True)
    elif "--result" in args:
        job = client.job(job["id"], include_result=True)
    progress = job["progress"]
    print(f"{job['id']}  state={job['state']}  "
          f"{progress['units_done']}/{progress['units_total']} "
          f"{progress['unit']}  wall={job['wall_seconds']:.3f}s  "
          f"retries={job['retries']}")
    if job.get("error"):
        print(f"error: {job['error']}")
    if "--result" in args and job.get("result") is not None:
        import json
        print(json.dumps(job["result"], indent=2))
    if job["state"] != "done":
        raise SystemExit(1)


def cmd_artifacts(args) -> None:
    from .flow import write_artifacts

    params = _params(args, SMALL_PARAMS)
    directory = "artifacts"
    for i, arg in enumerate(args):
        if arg == "--out" and i + 1 < len(args):
            directory = args[i + 1]
    index = write_artifacts(params, directory)
    print(index.format())


COMMANDS = {
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "refine": cmd_refine,
    "verify": cmd_verify,
    "fi": cmd_fi,
    "corpus": cmd_corpus,
    "bug": cmd_bug,
    "metrics": cmd_metrics,
    "profile": cmd_profile,
    "artifacts": cmd_artifacts,
    "serve": cmd_serve,
    "submit": cmd_submit,
}

#: commands ``all`` skips: they write to disk, run a long fuzz budget,
#: or block on a network service
SKIP_IN_ALL = ("artifacts", "verify", "fi", "corpus", "serve",
               "submit")


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    names = [a for a in args if not a.startswith("-")]
    if not names or names[0] not in set(COMMANDS) | {"all"}:
        print(__doc__)
        return 1
    error = _backend_error(names[0], args)
    if error:
        print(error, file=sys.stderr)
        return 1
    trace_path = _option(args, "--trace", None)
    if trace_path:
        from .obs.trace import enable_tracing
        enable_tracing()
    try:
        if names[0] == "all":
            small = args + ["--small"]
            for name, fn in COMMANDS.items():
                if name in SKIP_IN_ALL:
                    continue  # writes to disk/long-running; run explicitly
                print(f"\n===== {name} =====")
                fn(small)
            return 0
        COMMANDS[names[0]](args)
        return 0
    finally:
        # written even when a command exits non-zero (e.g. an
        # interrupted campaign) -- a partial trace is still a trace
        if trace_path:
            from .obs.trace import format_stage_table, write_chrome_trace
            write_chrome_trace(trace_path)
            print(format_stage_table())
            print(f"wrote {trace_path} (chrome://tracing / Perfetto)")


if __name__ == "__main__":
    raise SystemExit(main())
