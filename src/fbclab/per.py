"""Monte-Carlo packet-error-rate measurement with early stopping.

A trial function is any callable (snr_db, rng, n) -> bool array of n success
flags. Points stop at target_errors packet errors or max_trials, whichever
comes first; confidence intervals use the normal approximation to the
binomial.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .results import emit_results

TrialFn = Callable[[float, np.random.Generator, int], np.ndarray]

PER_CSV_HEADER = ["snr_db", "per", "ci_low", "ci_high", "trials", "errors"]


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
) -> list[PerPoint]:
    """Estimate PER on an SNR grid with per-point early stopping.

    Each grid point gets an independent child RNG stream derived from the
    seed, so results do not depend on evaluation order.
    """
    if len(snr_grid) == 0:
        raise ConfigError("snr_grid must not be empty")
    if max_trials < 100:
        raise ConfigError("max_trials must be at least 100")
    if target_errors < 1:
        raise ConfigError("target_errors must be at least 1")

    seeds = np.random.SeedSequence(seed).spawn(len(snr_grid))
    points = []
    for snr_db, child in zip(snr_grid, seeds):
        rng = np.random.default_rng(child)
        trials = errors = 0
        while trials < max_trials and errors < target_errors:
            n = min(batch_size, max_trials - trials)
            ok = np.asarray(trial_fn(float(snr_db), rng, n), dtype=bool)
            trials += ok.size
            errors += int(np.count_nonzero(~ok))
        lo, hi = binomial_ci(errors, trials)
        points.append(
            PerPoint(float(snr_db), errors / trials, lo, hi, trials, errors)
        )
    return points


def write_per_csv(points: list[PerPoint], path) -> None:
    emit_results([asdict(p) for p in points], "csv", path, PER_CSV_HEADER)


def read_per_csv(path) -> list[PerPoint]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != PER_CSV_HEADER:
            raise ConfigError(f"unexpected PER header: {header}")
        return [
            PerPoint(float(s), float(p), float(lo), float(hi), int(t), int(e))
            for s, p, lo, hi, t, e in reader
        ]
