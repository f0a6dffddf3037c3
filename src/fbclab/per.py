"""Monte-Carlo packet-error-rate measurement with early stopping.

A trial function is any callable (snr_db, rng, n) -> bool array of n success
flags. Points stop at target_errors packet errors or max_trials, whichever
comes first; confidence intervals use the normal approximation to the
binomial.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .results import emit_results, parse_results

TrialFn = Callable[[float, np.random.Generator, int], np.ndarray]


@dataclass
class PerPoint:
    snr_db: float
    per: float
    ci_low: float
    ci_high: float
    trials: int
    errors: int


def binomial_ci(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    p = errors / trials
    half = z * np.sqrt(p * (1.0 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def measure_per(
    trial_fn: TrialFn,
    snr_grid: Sequence[float],
    max_trials: int = 1_000_000,
    target_errors: int = 100,
    seed: int = 0,
    batch_size: int = 200,
    threads: int = 1,
) -> list[PerPoint]:
    """Estimate PER on an SNR grid with per-point early stopping.

    Each grid point gets an independent child RNG stream derived from the
    seed, so its result does not depend on which other points run, in which
    order, or on which thread. Up to `threads` points run at once, each on
    one pool thread with its own stream; the trial function must then be
    safe to call from several threads. The points come back in grid order,
    and the same for any thread count. If points fail, the exception of the
    earliest failing point in grid order is raised, after the running points
    finish and the queued ones are cancelled.
    """
    if len(snr_grid) == 0:
        raise ConfigError("snr_grid must not be empty")
    if max_trials < 100:
        raise ConfigError("max_trials must be at least 100")
    if target_errors < 1:
        raise ConfigError("target_errors must be at least 1")
    if batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if threads < 1:
        raise ConfigError("threads must be at least 1")

    def point(snr_db: float, child: np.random.SeedSequence) -> PerPoint:
        rng = np.random.default_rng(child)
        trials = errors = 0
        while trials < max_trials and errors < target_errors:
            n = min(batch_size, max_trials - trials)
            ok = np.asarray(trial_fn(float(snr_db), rng, n), dtype=bool)
            trials += ok.size
            errors += int(np.count_nonzero(~ok))
        lo, hi = binomial_ci(errors, trials)
        return PerPoint(float(snr_db), errors / trials, lo, hi, trials, errors)

    seeds = np.random.SeedSequence(seed).spawn(len(snr_grid))
    workers = min(len(snr_grid), threads)
    if workers == 1:
        return list(map(point, snr_grid, seeds))
    pool = ThreadPoolExecutor(workers, thread_name_prefix="per")
    try:
        return list(pool.map(point, snr_grid, seeds))
    finally:
        pool.shutdown(cancel_futures=True)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A function of its own, so the benchmark's tracer can count per.csv bytes by its name.
def write_per_csv(points: list[PerPoint], path) -> None:
    emit_results(points, path, PerPoint)


def read_per_csv(path) -> list[PerPoint]:
    return parse_results(path, PerPoint)
