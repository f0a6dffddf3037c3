"""Uplink/feedback channel model and SNR trace generation.

The channel is AWGN: y_i = c_i + n_i with noise standard deviation
noise_sigma(snr_db) (signal power is taken as 1, which is the caller's
normalization contract). afc.session_graph and the HARQ and uncoded trials
all draw their noise at that level. Traces of time-varying SNR are produced
by either a mean-reverting (Ornstein-Uhlenbeck style) process or a
piecewise-linear schedule. They live in memory only: sample_traces draws one
per session of a batch, read directly at the round times with no sampling
grid in between; no experiment writes a trace to a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, InputDomainError
from .keys import bounded, check_bounds

TracePoint = tuple[float, float]  # (time_ms, snr_db)


def noise_sigma(snr_db):
    """Noise standard deviation for unit signal power at the given SNR in dB.

    Elementwise for an array of SNRs.
    """
    return 10.0 ** (-snr_db / 20.0)


# ---------------------------------------------------------------------------
# SNR traces
# ---------------------------------------------------------------------------

@dataclass
class MeanRevertingTrace:
    """Mean-reverting SNR process: drift toward `mean_db` plus white noise.

    Uses the exact conditional-Gaussian transition over each interval
    between reads, so zero volatility gives a strictly monotone decay toward
    the mean from any start. reversion_rate is in 1/ms; volatility is in dB
    per sqrt(ms). The defaults reproduce the dispersion of an indoor
    measurement campaign: median 100-ms window swing around 2 dB, multi-second
    swings reaching 14 dB.
    """

    mean_db: float
    reversion_rate: float = bounded(0, default=0.002)
    volatility: float = bounded(0, default=0.15)
    start_db: float | None = None  # None -> start at the mean

    __post_init__ = check_bounds


@dataclass
class PiecewiseTrace:
    """SNR given at breakpoints, linearly interpolated, clamped at the ends."""

    points: list[TracePoint]

    def __post_init__(self):
        if not self.points:
            raise ConfigError("points: need at least one point")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("points: times must be strictly increasing")


TraceKind = Union[MeanRevertingTrace, PiecewiseTrace]


def sample_trace_kind(
    kind: TraceKind, duration_ms: float, rng: np.random.Generator
) -> list[TracePoint]:
    """One trace read every 1 ms over duration_ms: sample_traces, n = 1.

    The package no longer calls this or trace_value_at; perfbench/tracer.py
    still wraps both by name.
    """
    times = np.arange(np.ceil(duration_ms))
    values = sample_traces(kind, times, rng, 1)[0]
    return list(zip(times.tolist(), values.tolist()))


def sample_traces(
    kind: TraceKind, times_ms, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n independent traces of one kind read at the given times: (n, reads).

    A mean-reverting trace starts at the first read and steps to each next
    read with the exact transition for that interval, so its statistics do
    not depend on how the reads are spaced. Its noise is one (n, reads)
    draw, which a Generator fills in the same order as n successive
    single-trace draws; the last column is unused, and the stream advances
    by n * reads normals. A piecewise trace is interpolated at the reads and
    draws nothing.
    """
    t = np.asarray(times_ms, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0):
        raise InputDomainError("times_ms must be a non-empty, non-decreasing list of finite times")
    if isinstance(kind, PiecewiseTrace):
        ts = np.array([p for p, _ in kind.points])
        vs = np.array([v for _, v in kind.points])
        return np.tile(np.interp(t, ts, vs), (n, 1))
    theta, sigma = kind.reversion_rate, kind.volatility
    x = np.full(n, float(kind.mean_db if kind.start_db is None else kind.start_db))
    values = np.empty((n, t.size))
    values[:, 0] = x
    noise = rng.standard_normal((n, t.size))
    for i, dt in enumerate(np.diff(t)):
        decay = np.exp(-theta * dt)
        if theta > 0:
            step_sd = sigma * np.sqrt((1.0 - np.exp(-2.0 * theta * dt)) / (2.0 * theta))
        else:
            step_sd = sigma * np.sqrt(dt)
        x = x * decay + kind.mean_db * (1.0 - decay) + step_sd * noise[:, i]
        values[:, i + 1] = x
    return values


def trace_value_at(trace: list[TracePoint], time_ms: float) -> float:
    """SNR at an arbitrary time: linear interpolation, clamped at the ends."""
    if not trace:
        raise ConfigError("empty trace")
    ts = np.array([t for t, _ in trace])
    vs = np.array([v for _, v in trace])
    return float(np.interp(time_ms, ts, vs))

