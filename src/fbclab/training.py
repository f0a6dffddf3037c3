"""Curriculum training of the feedback codec.

Each batch draws one training SNR from a time-varying mixture of a benign and
a harsh anchor distribution, then jitters it with a zero-mean Gaussian
perturbation. The mixing weight alpha(k) decays from 1 to 0 over training, so
the codec first masters easy channels and then migrates to hard ones without
forgetting. A fixed-SNR mode bypasses the curriculum entirely (the
conventional way these codecs are trained).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

from . import autodiff as ad
from .afc import AfcModel, logits_to_bits, session_graph, session_loss
from .channel import TraceKind, sample_traces
from .errors import NumericalFailure
from .keys import bounded, check_bounds
from .layers import Module
from .results import emit_results


@dataclass
class GaussianAnchor:
    mean_db: float
    std_db: float = bounded(0)

    __post_init__ = check_bounds


@dataclass
class LinearDecay:
    """alpha falls linearly from 1 at k_start to 0 at k_end."""

    k_start: int = 0
    k_end: int | None = None  # None -> total_steps


@dataclass
class ExponentialDecay:
    rate: float = bounded(0, default=0.005, strict=True)

    __post_init__ = check_bounds


AlphaSchedule = Union[LinearDecay, ExponentialDecay]


@dataclass
class CurriculumConfig:
    p_orig: GaussianAnchor = field(default_factory=lambda: GaussianAnchor(8.0, 1.0))
    p_targ: GaussianAnchor = field(default_factory=lambda: GaussianAnchor(0.0, 1.0))
    schedule: AlphaSchedule = field(default_factory=LinearDecay)
    sigma_p: float = bounded(0, default=1.0)
    total_steps: int = bounded(1, default=1000)

    __post_init__ = check_bounds

    def alpha(self, k: int) -> float:
        if isinstance(self.schedule, LinearDecay):
            k_start = self.schedule.k_start
            k_end = self.schedule.k_end if self.schedule.k_end is not None else self.total_steps
            if k_end <= k_start:
                return 0.0 if k >= k_end else 1.0
            return float(np.clip(1.0 - (k - k_start) / (k_end - k_start), 0.0, 1.0))
        return float(np.exp(-self.schedule.rate * k))


def sample_train_snr(k: int, config: CurriculumConfig, rng: np.random.Generator) -> float:
    """Draw one training SNR: anchor mixture plus Gaussian perturbation."""
    a = config.alpha(k)
    anchor = config.p_orig if rng.random() < a else config.p_targ
    base = rng.normal(anchor.mean_db, anchor.std_db)
    return float(base + rng.normal(0.0, config.sigma_p))


def mixture_cdf(x, alpha: float, config: CurriculumConfig):
    """Analytic CDF of the perturbed mixture at a fixed alpha.

    The perturbation convolves each Gaussian anchor, inflating its variance
    by sigma_p^2.
    """
    s1 = np.sqrt(config.p_orig.std_db**2 + config.sigma_p**2)
    s2 = np.sqrt(config.p_targ.std_db**2 + config.sigma_p**2)
    return alpha * ndtr((x - config.p_orig.mean_db) / s1) + (1.0 - alpha) * ndtr(
        (x - config.p_targ.mean_db) / s2
    )


@dataclass
class TrainConfig:
    steps: int = bounded(1, default=1000)
    batch_size: int = bounded(1, default=64)
    learning_rate: float = bounded(0, default=1e-3, strict=True)
    seed: int = 0
    fixed_snr_db: float | None = None  # set -> curriculum bypassed
    noiseless_uplink: bool = False
    feedback_snr_db: float | None = None  # None -> ideal feedback

    __post_init__ = check_bounds


class Adam:
    """Adaptive-moment gradient descent with bias correction, at the moment
    decays and epsilon of Kingma and Ba (2015). A step reads the gradient
    that backward left on each parameter, zeros where it left none."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: Module, config: TrainConfig):
        self.lr = config.learning_rate
        self.t = 0
        self.params = [p for _, p in model.parameters()]
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class HistoryRow:
    step: int
    loss: float
    alpha: float
    mean_snr_db: float


def train(
    model: AfcModel,
    curriculum: CurriculumConfig,
    config: TrainConfig,
) -> list[HistoryRow]:
    """Train the codec in place and return the per-step loss history.

    Deterministic given the seed: batches, SNR draws, and channel noise all
    come from one generator, so identical seeds give identical histories and
    identical final weights. A non-finite loss raises NumericalFailure whose
    `step` is the failing step and whose `history` holds the steps before it.
    """
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model, config)
    history: list[HistoryRow] = []
    for k in range(config.steps):
        if config.fixed_snr_db is not None:
            snr, alpha = float(config.fixed_snr_db), 0.0
        else:
            snr = sample_train_snr(k, curriculum, rng)
            alpha = curriculum.alpha(k)
        bits = rng.integers(0, 2, (config.batch_size, model.config.k))
        try:
            loss = session_loss(
                model,
                bits,
                np.full(model.config.rounds, snr),
                rng,
                noiseless_uplink=config.noiseless_uplink,
                feedback_snr_db=config.feedback_snr_db,
            )
        except NumericalFailure as exc:
            failure = NumericalFailure(f"training aborted at step {k}: {exc}")
            failure.step, failure.history = k, history
            raise failure from exc
        model.zero_grad()
        loss.backward()
        optimizer.step()
        history.append(HistoryRow(k, loss.item(), alpha, snr))
        del loss  # else the step's graph lives on through the next forward
    return history


# A function of its own, so the benchmark's tracer can count history.csv bytes by its name.
def write_history_csv(history: list[HistoryRow], path) -> None:
    emit_results(history, path, HistoryRow)


def neural_trial_fn(
    model: AfcModel,
    feedback_snr_db: float | None = None,
    uplink_trace: Callable[[float], TraceKind] | None = None,
):
    """Batched packet trials of the neural codec, for measure_per.

    Every round runs at the grid SNR unless uplink_trace is given: then each
    session draws its own trace of kind uplink_trace(snr_db), read at the
    round times 0, 1, ..., rounds - 1 ms. A trial of n sessions draws, in
    this order: the n traces as one (n, rounds) batch (channel.sample_traces,
    the same numbers as n single-trace draws), the (n, k) message bits, then
    the session noise round by round. That order fixes seeded results. A
    trial only reads the model, and records no tape (no_grad is per thread),
    so several threads may run trials at once.
    """
    c = model.config
    round_ms = np.arange(c.rounds, dtype=float)

    def trial(snr_db: float, rng: np.random.Generator, n: int) -> np.ndarray:
        if uplink_trace is None:
            snrs = np.full(c.rounds, snr_db)
        else:
            snrs = sample_traces(uplink_trace(snr_db), round_ms, rng, n)
        bits = rng.integers(0, 2, (n, c.k))
        with ad.no_grad():
            logits = session_graph(model, bits, snrs, rng, feedback_snr_db=feedback_snr_db)
        return np.all(logits_to_bits(logits.data) == bits, axis=1)

    return trial
