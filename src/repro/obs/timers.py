"""Wall-clock phase timing for bench runs.

:class:`PhaseTimer` accumulates named phases ("build", "simulate",
"verify") in wall seconds and, when a simulated clock is supplied,
simulated microseconds; reports merge across processes.  Per-operation
latencies in virtual time are measured by the span layer
(:mod:`repro.obs.spans`), not here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


class PhaseTimer:
    """Accumulates named phases in wall seconds (and optional sim µs).

    ::

        timer = PhaseTimer()
        with timer.phase("build"):
            ...
        with timer.phase("simulate", sim_clock=lambda: gos.sim.now):
            ...
        timer.report()
        # {"build": {"wall_s": ..., "sim_us": 0.0, "count": 1}, ...}

    Re-entering a phase name accumulates into the same entry and bumps
    its ``count``; :meth:`merge` folds another report in, so per-process
    phase timings from a parallel sweep aggregate like metrics do.
    """

    def __init__(
        self, wall_clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._wall_clock = wall_clock
        self._phases: dict[str, dict[str, float]] = {}

    def _entry(self, name: str) -> dict[str, float]:
        entry = self._phases.get(name)
        if entry is None:
            entry = self._phases[name] = {
                "wall_s": 0.0, "sim_us": 0.0, "count": 0
            }
        return entry

    @contextmanager
    def phase(
        self, name: str, sim_clock: Callable[[], float] | None = None
    ) -> Iterator[None]:
        """Time one entry into phase ``name`` (context manager)."""
        wall0 = self._wall_clock()
        sim0 = sim_clock() if sim_clock is not None else 0.0
        try:
            yield
        finally:
            entry = self._entry(name)
            entry["wall_s"] += self._wall_clock() - wall0
            if sim_clock is not None:
                entry["sim_us"] += sim_clock() - sim0
            entry["count"] += 1

    def report(self) -> dict[str, dict[str, float]]:
        """Plain-dict copy of all phases, sorted by name (JSON-friendly)."""
        return {
            name: dict(entry)
            for name, entry in sorted(self._phases.items())
        }

    def merge(self, report: "PhaseTimer | dict") -> "PhaseTimer":
        """Accumulate another timer's (or report dict's) phases into this
        one; returns ``self`` for chaining."""
        other = report.report() if isinstance(report, PhaseTimer) else report
        for name, entry in other.items():
            mine = self._entry(name)
            for key in ("wall_s", "sim_us", "count"):
                mine[key] += entry.get(key, 0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhaseTimer {sorted(self._phases)}>"
