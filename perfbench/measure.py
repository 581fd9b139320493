"""Statistics and host probes shared by the benchmark's workloads."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

SHM_DIR = "/dev/shm"


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n``."""
    return n - math.ceil(q / 100.0 * n)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless 10 samples lie beyond it.

    A failed request is passed in as ``inf``, so it counts as over any limit.
    """
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return sorted(values)[n - beyond - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def spin_ms(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop: a gauge of host speed right now."""
    start = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has reaped (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def spool_dirs(root: str) -> set[str]:
    try:
        return {name for name in os.listdir(root) if name.startswith("repro-spool-")}
    except FileNotFoundError:
        return set()
