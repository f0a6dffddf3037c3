"""Finite-difference verification of every differentiable component.

Each check perturbs every trainable weight of one layer (or of the whole
codec) by +-h, recomputes a scalar probe loss, and compares the central
difference against the backpropagated gradient. Relative error is
|g - fd| / max(1, |g|, |fd|), so tiny gradients are compared absolutely.
"""

from __future__ import annotations

import numpy as np

from .afc import AfcConfig, AfcModel, forward_backward
from .autodiff import Tensor
from .layers import (
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    SelfAttention,
    SnrMlp,
    TransformerLayer,
)

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def _probe_loss(module: Module, x_data: np.ndarray, probe: np.ndarray) -> float:
    out = module(Tensor(x_data))
    return (out * Tensor(probe)).sum().item()


def _max_rel_error(module: Module, x_data: np.ndarray, probe: np.ndarray, h: float) -> float:
    module.zero_grad()
    out = module(Tensor(x_data))
    loss = (out * Tensor(probe)).sum()
    loss.backward()
    worst = 0.0
    for _, p in module.parameters():
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _probe_loss(module, x_data, probe)
            flat[i] = orig - h
            down = _probe_loss(module, x_data, probe)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def check_session_loss(
    config: AfcConfig | None = None,
    seed: int = 0,
    h: float = DEFAULT_STEP,
) -> float:
    """Max relative gradient error of a full end-to-end session loss."""
    config = (
        AfcConfig.tiny(num_blocks=2, rounds=3, d_model=4, ff_dim=6, snr_emb_dim=3,
                       dec_layers=2, sparse_ff_window=1)
        if config is None
        else config
    )
    model = AfcModel(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    bits = rng.integers(0, 2, (2, config.k))
    snrs = rng.uniform(-1.0, 5.0, config.rounds)
    noise_seed = seed + 2

    def run():
        return forward_backward(
            model,
            bits,
            snrs,
            np.random.default_rng(noise_seed),
            noiseless_feedback=False,
            feedback_snr_db=8.0,
        )

    _, grads = run()
    worst = 0.0
    for name, p in model.parameters():
        flat = p.data.ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = run()
            flat[i] = orig - h
            down, _ = run()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def run_gradient_checks(
    seed: int = 0, h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL
) -> dict:
    """Check every layer type plus the end-to-end session loss.

    Returns per-check max relative errors plus an overall pass flag.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    cases = {
        "linear": (Linear(5, 4, rng), (3, 5), (3, 4)),
        "layer_norm": (LayerNorm(6), (2, 4, 6), (2, 4, 6)),
        "attention": (SelfAttention(4, rng), (2, 5, 4), (2, 5, 4)),
        "feed_forward": (FeedForward(4, 7, rng), (2, 3, 4), (2, 3, 4)),
        "snr_embedding": (SnrMlp(5, rng), (3, 1), (3, 5)),
        "transformer_layer": (TransformerLayer(4, 6, rng), (2, 3, 4), (2, 3, 4)),
    }
    for name, (module, in_shape, out_shape) in cases.items():
        x = rng.standard_normal(in_shape)
        probe = rng.standard_normal(out_shape)
        results[name] = _max_rel_error(module, x, probe, h)

    results["session_loss"] = check_session_loss(seed=seed, h=h)
    results["max_rel_error"] = max(results.values())
    results["tolerance"] = tol
    results["passed"] = bool(results["max_rel_error"] < tol)
    return results
