"""Per-symbol uplink/feedback channel model and SNR trace generation.

The channel is a scalar gain-plus-AWGN model: y_i = gain_i * c_i + n_i with
noise variance set by the SNR in dB (signal power is taken as 1, which is the
caller's normalization contract). Traces of time-varying SNR are produced by
either a fixed level, a mean-reverting (Ornstein-Uhlenbeck style) process, or
a piecewise-linear schedule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, InputDomainError
from .results import emit_results

TRACE_CSV_HEADER = ["time_ms", "snr_db"]

TracePoint = tuple[float, float]  # (time_ms, snr_db)


def noise_sigma(snr_db: float) -> float:
    """Noise standard deviation for unit signal power at the given SNR."""
    return 10.0 ** (-snr_db / 20.0)


@dataclass
class ChannelParams:
    """Scalar channel for one transmission leg.

    gain may be a scalar or a per-symbol array; the default 1.0 is the pure
    AWGN setting. noiseless=True bypasses noise injection entirely (used for
    the ideal-feedback configuration) instead of encoding it as an infinite
    SNR.
    """

    snr_db: float = 0.0
    gain: Union[float, np.ndarray] = 1.0
    noiseless: bool = False
    direction: str = "uplink"  # "uplink" | "feedback"

    def __post_init__(self):
        if not self.noiseless and not np.isfinite(self.snr_db):
            raise InputDomainError(f"snr_db must be finite, got {self.snr_db}")
        gain = np.asarray(self.gain, dtype=float)
        if not np.all(np.isfinite(gain)) or np.any(np.abs(gain) == 0.0):
            raise InputDomainError("channel gain must be finite and non-zero")


def apply_channel(
    symbols: np.ndarray, params: ChannelParams, rng: np.random.Generator
) -> np.ndarray:
    """Pass symbols through the gain-plus-AWGN channel.

    Noise variance is 1/10^(snr_db/10) under the unit-signal-power contract.
    Deterministic given (symbols, params, rng state).
    """
    symbols = np.asarray(symbols, dtype=float)
    if not np.all(np.isfinite(symbols)):
        raise InputDomainError("channel input contains non-finite symbols")
    out = symbols * np.asarray(params.gain, dtype=float)
    if params.noiseless:
        return out
    sigma = noise_sigma(params.snr_db)
    return out + sigma * rng.standard_normal(symbols.shape)


# ---------------------------------------------------------------------------
# SNR traces
# ---------------------------------------------------------------------------

# Defaults reproduce the dispersion of an indoor measurement campaign:
# median 100-ms window swing around 2 dB, multi-second swings reaching 14 dB.
INDOOR_REVERSION_RATE = 0.002  # 1/ms
INDOOR_VOLATILITY = 0.15  # dB / sqrt(ms)


@dataclass
class FixedTrace:
    """Constant SNR, sampled on a regular grid."""

    level_db: float
    step_ms: float = 1.0


@dataclass
class MeanRevertingTrace:
    """Mean-reverting SNR process: drift toward `mean_db` plus white noise.

    Uses the exact conditional-Gaussian discretization, so zero volatility
    gives a strictly monotone decay toward the mean from any start.
    reversion_rate is in 1/ms; volatility is in dB per sqrt(ms).
    """

    mean_db: float
    reversion_rate: float = INDOOR_REVERSION_RATE
    volatility: float = INDOOR_VOLATILITY
    step_ms: float = 1.0
    start_db: float | None = None  # None -> start at the mean

    def __post_init__(self):
        if self.reversion_rate < 0:
            raise ConfigError("reversion_rate must be >= 0")
        if self.volatility < 0:
            raise ConfigError("volatility must be >= 0")
        if self.step_ms <= 0:
            raise ConfigError("step_ms must be > 0")


@dataclass
class PiecewiseTrace:
    """SNR given at breakpoints, linearly interpolated, clamped at the ends."""

    points: list[TracePoint]
    step_ms: float = 1.0

    def __post_init__(self):
        if not self.points:
            raise ConfigError("piecewise trace needs at least one point")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("piecewise trace times must be strictly increasing")
        if self.step_ms <= 0:
            raise ConfigError("step_ms must be > 0")


TraceKind = Union[FixedTrace, MeanRevertingTrace, PiecewiseTrace]


@dataclass
class SnrTraceConfig:
    kind: TraceKind = field(default_factory=lambda: FixedTrace(0.0))
    seed: int = 0


def sample_snr_trace(config: SnrTraceConfig, duration_ms: float) -> list[TracePoint]:
    """Sample one trace realization of the configured process.

    Returns ceil(duration/step) points at times 0, step, 2*step, ...
    Identical seeds give identical traces.
    """
    return sample_trace_kind(config.kind, duration_ms, np.random.default_rng(config.seed))


def sample_trace_kind(
    kind: TraceKind, duration_ms: float, rng: np.random.Generator
) -> list[TracePoint]:
    """Sample a trace with an externally owned random stream: sample_traces, n = 1."""
    times, values = sample_traces(kind, duration_ms, rng, 1)
    return list(zip(times.tolist(), values[0].tolist()))


def sample_traces(
    kind: TraceKind, duration_ms: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n independent traces of one kind on a shared time grid.

    Returns the ceil(duration/step) times 0, step, 2*step, ... and an
    (n, points) array of SNRs, one trace per row. A mean-reverting kind draws
    its noise as one (n, points) array, which a Generator fills in the same
    order as n successive single-trace draws, so row i equals the i-th of n
    sample_trace_kind calls on the same stream.
    """
    if duration_ms <= 0:
        raise InputDomainError("duration_ms must be > 0")
    points = int(np.ceil(duration_ms / kind.step_ms))
    times = np.arange(points) * kind.step_ms

    if isinstance(kind, FixedTrace):
        values = np.full((n, points), float(kind.level_db))
    elif isinstance(kind, PiecewiseTrace):
        ts = np.array([t for t, _ in kind.points])
        vs = np.array([v for _, v in kind.points])
        values = np.tile(np.interp(times, ts, vs), (n, 1))
    elif isinstance(kind, MeanRevertingTrace):
        theta, sigma, dt = kind.reversion_rate, kind.volatility, kind.step_ms
        decay = np.exp(-theta * dt)
        if theta > 0:
            step_sd = sigma * np.sqrt((1.0 - np.exp(-2.0 * theta * dt)) / (2.0 * theta))
        else:
            step_sd = sigma * np.sqrt(dt)
        start = kind.mean_db if kind.start_db is None else kind.start_db
        x = np.full(n, float(start))
        values = np.empty((n, points))
        noise = step_sd * rng.standard_normal((n, points))
        for i in range(points):
            values[:, i] = x
            x = x * decay + kind.mean_db * (1.0 - decay) + noise[:, i]
    else:
        raise ConfigError(f"unknown trace kind: {type(kind).__name__}")
    return times, values


def traces_at(times: np.ndarray, values: np.ndarray, query_ms) -> np.ndarray:
    """Every trace row of sample_traces read at each query time: (n, queries).

    Linear interpolation, clamped at the ends. Each entry equals
    np.interp(q, times, row) for a scalar q bit for bit: a query on a grid
    time takes that sample, and one between grid times j and j+1 takes
    (v[j+1] - v[j]) / (t[j+1] - t[j]) * (q - t[j]) + v[j].
    """
    q = np.asarray(query_ms, dtype=float)
    j = np.searchsorted(times, q, side="right") - 1
    between = (j >= 0) & (j < times.size - 1)
    j = np.clip(j, 0, times.size - 1)
    between &= times[j] != q
    out = values[:, j]
    c = np.flatnonzero(between)
    if c.size:
        lo, hi = j[c], j[c] + 1
        slope = (values[:, hi] - values[:, lo]) / (times[hi] - times[lo])
        out[:, c] = slope * (q[c] - times[lo]) + values[:, lo]
    return out


def trace_value_at(trace: list[TracePoint], time_ms: float) -> float:
    """SNR at an arbitrary time: linear interpolation, clamped at the ends."""
    if not trace:
        raise ConfigError("empty trace")
    ts = np.array([t for t, _ in trace])
    vs = np.array([v for _, v in trace])
    return float(np.interp(time_ms, ts, vs))


def write_trace_csv(trace: list[TracePoint], path) -> None:
    records = [{"time_ms": f"{t:.6f}", "snr_db": f"{v:.6f}"} for t, v in trace]
    emit_results(records, "csv", path, TRACE_CSV_HEADER)


def read_trace_csv(path) -> list[TracePoint]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRACE_CSV_HEADER:
            raise ConfigError(f"unexpected trace header: {header}")
        return [(float(t), float(v)) for t, v in reader]
