"""Small statistics shared by the workloads, and the host-speed factor.

The benchmark shares its machine with other tenants, whose load changes
this host's speed by tens of percent from minute to minute.  Every timing
that carries a bound is therefore divided by ``host_factor()``, measured
by a fixed loop of benchmark code right before and after the timed work.
A change to the program cannot move the factor; a change in host speed
moves the loop and the program alike and cancels out.
"""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
import time
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0.0 with no
    samples (a run whose answers all failed reports them as failures)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def loglog_slope(sizes: Sequence[float], seconds: Sequence[float]) -> float:
    """Least-squares slope of ``log(seconds)`` against ``log(sizes)``."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    return cov / var


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb() -> float:
    """:func:`peak_rss_mb` plus the peak resident memory (``VmHWM``) of
    every live child this process started through ``multiprocessing``:
    the shard workers and the cache tier's manager.  Read while they run."""
    total = peak_rss_mb()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except FileNotFoundError:  # it exited since the listing
            pass
    return total


#: Median ``reference_loop()`` seconds on the 2-CPU machine this benchmark
#: was defined on.  Only a scale: timings divided by ``host_factor()`` read
#: as seconds on that machine.
REFERENCE_S = 0.004


def host_factor() -> float:
    """How many times slower than the reference machine this host runs now
    (median of five loops, about 20 ms)."""
    return median([reference_loop() for _ in range(5)]) / REFERENCE_S


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop (dict and list
    churn, like the solvers' inner loops).  It touches no program code, so
    only the host's speed moves it."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    keys = list(range(4096))
    for _ in range(6):
        for key in keys:
            table[key] = key * 7 % 13
        for key in keys:
            total += table[key]
        keys.reverse()
    return time.perf_counter() - start
