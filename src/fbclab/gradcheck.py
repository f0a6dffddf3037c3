"""Finite-difference verification of every differentiable component.

Each check perturbs every trainable weight of one layer (or of the whole
codec) by +-h, recomputes a scalar probe loss, and compares the central
difference against the gradient that one backward pass leaves on the
weights. The finite differences evaluate the loss forward-only, recording
no tape. Relative error is |g - fd| / max(1, |g|, |fd|), so tiny gradients
are compared absolutely. The checks run in float64: a central difference at
h = 1e-5 in float32 would be rounding noise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .afc import AfcConfig, AfcModel, session_loss
from .autodiff import Tensor, float64, no_grad
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


def _worst_fd_error(module: Module, loss: Callable[[], Tensor], h: float) -> float:
    """Max relative error of the gradients one backward of loss() leaves on
    module's parameters (zeros where it leaves none) against central
    differences of loss(), each evaluated forward-only."""
    loss().backward()
    worst = 0.0
    with no_grad():
        for _, p in module.parameters():
            flat = p.data.ravel()
            gflat = np.zeros(flat.size) if p.grad is None else p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss().item()
                flat[i] = orig - h
                down = loss().item()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
                worst = max(worst, err)
    return worst


# The end-to-end check's codec: every module and the sparse window, small
# enough that finite differences over every weight stay cheap.
_SESSION_CHECK_CONFIG = AfcConfig.tiny(
    num_blocks=2, rounds=3, d_model=4, ff_dim=6, snr_emb_dim=3, dec_layers=2, sparse_ff_window=1
)


def check_session_loss(config: AfcConfig, seed: int, h: float) -> float:
    """Max relative gradient error of a full end-to-end session loss."""
    model = AfcModel(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    bits = rng.integers(0, 2, (2, config.k))
    snrs = rng.uniform(-1.0, 5.0, config.rounds)
    noise_seed = seed + 2

    def loss():
        return session_loss(model, bits, snrs, np.random.default_rng(noise_seed), feedback_snr_db=8.0)

    return _worst_fd_error(model, loss, h)


def run_gradient_checks(
    seed: int = 0,
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    custom: AfcConfig | None = None,
) -> dict:
    """Check every layer type plus the end-to-end session loss, in float64.

    A `custom` codec config adds a second session check,
    `session_loss_custom`. Returns per-check max relative errors plus an
    overall pass flag.
    """
    with float64():
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
            results[name] = _worst_fd_error(
                module, lambda: (module(Tensor(x)) * Tensor(probe)).sum(), h
            )

        results["session_loss"] = check_session_loss(_SESSION_CHECK_CONFIG, seed, h)
        if custom is not None:
            results["session_loss_custom"] = check_session_loss(custom, seed, h)
    results["max_rel_error"] = max(results.values())
    results["tolerance"] = tol
    results["passed"] = bool(results["max_rel_error"] < tol)
    return results
