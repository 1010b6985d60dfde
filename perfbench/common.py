"""Shared pieces of the benchmark: data streams, statistics, the round record."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: the tail percentile is the highest of these with at least
#: TAIL_BEYOND samples above it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: fused-vs-serial checkpoint tolerance, the one ``examples/`` uses
RTOL, ATOL = 1e-4, 1e-6


class Stream:
    """A job's data stream over batches precomputed during set-up.

    A class, not a closure, so traced runs can time every read by
    wrapping ``Stream.__call__`` (the ``data.wait`` span).
    """

    def __init__(self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]):
        self.batches = list(batches)

    def __call__(self, step: int):
        return self.batches[step]


@dataclass
class Round:
    """One measured round: set-up, a timed drain, and its checks."""

    subseed: int = 0                 # the seed this round's inputs came from
    setup_s: float = 0.0
    wall_s: float = 0.0
    result_steps: int = 0            # per-model steps in returned results
    jobs_completed: int = 0          # jobs with exactly one correct result
    attempted: int = 0               # jobs submitted
    failed: int = 0                  # submitted jobs without one correct result
    fusion_speedup: float = 0.0      # sim workloads: per-trace ratio
    makespan_s: float = 0.0          # metrics.simulated_makespan
    #: per job: finished_at - submit time, on the runtime's own clock
    #: (wall on real workloads, virtual on sim workloads)
    turnaround_s: List[float] = field(default_factory=list)
    slo_deadlined: int = 0
    slo_missed: int = 0
    #: jobs COMPLETED in the queue whose result no cycle ever returned
    #: (correct, so not failed; counted in the per-layer failed_share)
    lost_results: int = 0
    lost_steps: int = 0
    #: check failures on returned outputs (wrong, duplicated, nondeterministic)
    errors: List[str] = field(default_factory=list)
    #: real workloads: the width-1 fleet run fusion_speedup compares against
    serial_steps: int = 0
    serial_s: float = 0.0
    #: what the per-layer metrics divide by: every fleet run of the round
    layer_steps: int = 0
    layer_wall_s: float = 0.0
    #: every fleet the round drove (the per-layer metrics read them)
    fleets: list = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with TAIL_BEYOND samples beyond."""
    for q in TAIL_CANDIDATES:
        if count * (1.0 - q / 100.0) >= TAIL_BEYOND:
            return q
    return 50.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(np.median(np.asarray(values, dtype=float)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite(curve: Sequence[float]) -> bool:
    """Whether every loss in a curve is a finite number."""
    return all(math.isfinite(v) for v in curve)


def compare_state(got, want, label: str) -> Optional[str]:
    """``None`` when two modules' state dicts agree at RTOL/ATOL, else why."""
    got_state, want_state = got.state_dict(), want.state_dict()
    if got_state.keys() != want_state.keys():
        return f"{label}: state keys differ"
    for key, value in want_state.items():
        a, b = np.asarray(got_state[key]), np.asarray(value)
        if a.shape != b.shape:
            return f"{label}: {key} shape {a.shape} != {b.shape}"
        if not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            diff = np.abs(a - b)
            return (f"{label}: {key} differs, max abs {diff.max():.3g}, "
                    f"{int((diff > ATOL + RTOL * np.abs(b)).sum())} of "
                    f"{a.size} elements beyond rtol={RTOL} atol={ATOL}")
    return None
