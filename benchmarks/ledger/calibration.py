"""Speed calibration: what a second of this machine is worth right now.

The sandbox this benchmark was sized on runs identical pure-Python work
anywhere between 1.0x and 1.7x of its quiet speed, in phases that last
5-30 s (CPU time tracks wall time through them: it is the core getting
slower, not the process being descheduled).  A 30 s run therefore sees a
few phases at most, and medians over its rounds move by 10-30 % between
runs of the *same* code.

So every time the ledger reports is scaled to a reference speed: a fixed
piece of interpreter work (:func:`one_pass`) is timed right before and
after the timed region and — by the single-threaded workloads — every
quarter second inside it, between operations, and

    reported = measured * REFERENCE_PASS_S / mean(pass seconds nearby).

Measured against ten runs per workload on a noisy afternoon this cut the
spread of ``wall_s`` from 10-30 % to 3-9 % (README, "Noise").  The raw
values stay in every result file.  The time spent calibrating inside a
timed region is taken out of its wall time, and never falls inside a
latency sample.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

#: Seconds of one pass at the sandbox's quiet speed: the unit every
#: reported time is expressed in.  Only a scale: changing it rescales all
#: times alike.
REFERENCE_PASS_S = 0.023

#: The single-threaded workloads sample this often inside the timed region.
EVERY_S = 0.25


def one_pass(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one fixed piece of interpreter work takes right now: dict
    look-ups and stores, small-int arithmetic, a periodic table copy.

    Beside other threads pass ``time.thread_time``: waiting for the
    interpreter lock is not the core being slow.
    """
    start = clock()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(100_000):
        key = (i * 7919) & 8191
        acc += table.get(key, 0) ^ i
        table[key] = acc & 0xFFFF
        if not i & 16383:
            table = dict(table)
    return clock() - start


class Calibrator:
    """Collects pass times; knows how long it spent collecting them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def seed(self, sample: float) -> None:
        """Start a region from a sample taken just before it."""
        self.samples.append(sample)
        self._last = time.perf_counter()

    def sample(
        self, passes: int = 1, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        """Record the median of ``passes`` passes as one sample."""
        start = time.perf_counter()
        self.samples.append(
            statistics.median(one_pass(clock) for _ in range(passes))
        )
        self._last = time.perf_counter()
        self.spent += self._last - start

    def due(self) -> bool:
        """Asked between two operations: is the last sample EVERY_S old?"""
        return time.perf_counter() - self._last >= EVERY_S

    def pass_seconds(self) -> float:
        return statistics.fmean(self.samples)


def scale(pass_seconds: float) -> float:
    """Factor that turns a time measured at ``pass_seconds`` per pass into
    reference seconds."""
    return REFERENCE_PASS_S / pass_seconds
