"""Helpers shared by the workloads: unit loops, percentiles, memory, checks."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

clock = time.perf_counter


class Checks:
    """Output checks counted against the operations attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def count(self, operations: int = 1) -> None:
        """Operations that ran and had no separate check of their own."""
        self.attempted += operations

    def expect(self, ok: bool, message: str) -> bool:
        """One checked operation; a failure is counted and remembered."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return bool(ok)


def run_units(
    unit: Callable[[int], None],
    seconds: float,
    count: Optional[int] = None,
    prepare: Optional[Callable[[int], None]] = None,
) -> List[float]:
    """Run whole, identical units and return each one's wall time.

    With ``count`` exactly that many units run.  Otherwise units run until
    the next one would end past ``seconds`` (judged from the last unit's
    time), and at least one always runs.  ``prepare`` and a garbage
    collection run before each unit, outside the timed region.
    """
    durations: List[float] = []
    while True:
        if prepare is not None:
            prepare(len(durations))
        gc.collect()
        start = clock()
        unit(len(durations))
        durations.append(clock() - start)
        if count is not None:
            if len(durations) >= count:
                return durations
        elif sum(durations) + durations[-1] > seconds:
            return durations


def timed_median(setup: Callable[[], object], repeats: int):
    """Run ``setup`` ``repeats`` times; returns (median seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = clock()
        result = setup()
        times.append(clock() - start)
    return statistics.median(times), result


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); needs >= 10 samples beyond it."""
    values = np.asarray(values, dtype=np.float64)
    beyond = len(values) * (1.0 - q / 100.0)
    if beyond < 10:
        raise ValueError(f"p{q:g} over {len(values)} samples has fewer than 10 samples beyond it")
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
