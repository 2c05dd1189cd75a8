"""Simulation profiling -- the tool the paper wished it had.

Section 5.1: "Due to the lack of proper profiling tools for the SystemC
simulation, it could not be checked whether the RTL parts dominated the
overall simulation or whether the behavioural part is not significantly
faster at all."

:class:`SimulationProfiler` wraps every process of a simulation and
records per-process activation counts and wall time, so exactly that
question becomes answerable (see
``repro.flow.performance`` and the profiling example/test, which use it
to split the behavioural SRC simulation into front-end vs. main-process
cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .process import MethodProcess, Process, ThreadProcess
from .scheduler import Simulation


@dataclass
class ProcessProfile:
    """Accumulated cost of one process."""

    name: str
    activations: int = 0
    wall_seconds: float = 0.0


@dataclass
class ProfileReport:
    """Per-process breakdown of a simulation run."""

    profiles: List[ProcessProfile]
    total_wall_seconds: float

    def by_share(self) -> List[ProcessProfile]:
        return sorted(self.profiles, key=lambda p: -p.wall_seconds)

    def share_of(self, substring: str) -> float:
        """Fraction of profiled time spent in processes whose name
        contains *substring*."""
        total = sum(p.wall_seconds for p in self.profiles)
        if total <= 0.0:
            return 0.0
        part = sum(p.wall_seconds for p in self.profiles
                   if substring in p.name)
        return part / total

    def format(self, top: int = 10) -> str:
        lines = [
            "Simulation profile (per process):",
            f"{'process':40s} {'act.':>8s} {'wall ms':>9s} {'share':>7s}",
        ]
        total = sum(p.wall_seconds for p in self.profiles) or 1.0
        for prof in self.by_share()[:top]:
            lines.append(
                f"{prof.name[:40]:40s} {prof.activations:8d} "
                f"{prof.wall_seconds * 1000:9.2f} "
                f"{prof.wall_seconds / total * 100:6.1f}%"
            )
        return "\n".join(lines)


class SimulationProfiler:
    """Instruments a :class:`Simulation`'s processes.

    Create it *after* the simulation (so all processes exist), run the
    simulation, then call :meth:`report`.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._profiles: Dict[Process, ProcessProfile] = {}
        self._start = time.perf_counter()
        self._hook = self._execute_timed  # stable bound-method reference
        sim._profile_hook = self._hook

    def _profile_for(self, proc: Process) -> ProcessProfile:
        profile = self._profiles.get(proc)
        if profile is None:
            profile = ProcessProfile(proc.name)
            self._profiles[proc] = profile
        return profile

    def _execute_timed(self, proc: Process) -> None:
        profile = self._profile_for(proc)
        t0 = time.perf_counter()
        try:
            proc._execute()
        finally:
            profile.wall_seconds += time.perf_counter() - t0
            profile.activations += 1

    def detach(self) -> None:
        """Stop profiling (removes the scheduler hook)."""
        if self.sim._profile_hook is self._hook:
            self.sim._profile_hook = None

    def report(self) -> ProfileReport:
        return ProfileReport(
            profiles=list(self._profiles.values()),
            total_wall_seconds=time.perf_counter() - self._start,
        )
