"""Smoke and side-effect tests of the benchmark, at its tiny size.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = sorted(workloads.WORKLOADS)

#: directories a run may write to, or that other tools own
UNWATCHED = {".git", ".perfbench", "__pycache__", ".pytest_cache",
             ".hypothesis", ".benchmarks"}


def _run(cwd: str, home: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, HOME=home)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree_state() -> list:
    """(path, size, mtime) of every file outside the unwatched dirs."""
    state = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in UNWATCHED)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state.append((os.path.relpath(path, ROOT), st.st_size,
                          st.st_mtime_ns))
    return state


def test_every_workload_is_gated():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace, tmp_path):
    result = _result(_run(ROOT, str(tmp_path), "--workload", workload,
                          "--trace", str(trace), "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        wall = value["obs.traced_wall_s"]
        # nesting is subtracted exactly once: no negative self time, and
        # the benchmark's own share of the wall is never negative
        assert all(value[f"{layer}_s"] >= -1e-9 for layer in layers.LAYERS)
        assert value["other_s"] >= 0
        assert _root_span_seconds(workload) <= wall * (1 + 1e-6)


def _root_span_seconds(workload: str) -> float:
    """Summed duration of the outermost layer spans of the traced units,
    read back from the run's Chrome trace."""
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed1.trace.json")
    with open(path, encoding="utf-8") as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    units = next(e for e in events if e["name"] == "perfbench.units")
    start, end = units["ts"], units["ts"] + units["dur"]
    total, root_end = 0.0, float("-inf")
    for e in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
        if e["name"].startswith("perfbench.") or not \
                start <= e["ts"] <= end or e["ts"] < root_end:
            continue
        total += e["dur"]
        root_end = e["ts"] + e["dur"]
    return total / 1e6


def test_run_leaves_no_files_behind(tmp_path):
    """Nothing lands in tracked paths, in ``~`` or in the scratch dir."""
    before = _tree_state()
    _result(_run(ROOT, str(tmp_path), "--workload", "fi_gate_cold",
                 "--size", "tiny"))
    assert _tree_state() == before
    assert os.listdir(tmp_path) == []
    assert not [d for d in os.listdir(os.path.join(ROOT, ".perfbench"))
                if d.startswith("run-")]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), str(tmp_path), "--workload",
                SPEC["workloads"][0]["name"])
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
