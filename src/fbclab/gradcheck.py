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


def _worst_fd_error(params, grads: dict[str, np.ndarray], loss, h: float) -> float:
    """Max relative error of grads against central differences of loss()."""
    worst = 0.0
    for name, p in params:
        flat = p.data.ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def _max_rel_error(module: Module, x_data: np.ndarray, probe: np.ndarray, h: float) -> float:
    module.zero_grad()
    out = module(Tensor(x_data))
    (out * Tensor(probe)).sum().backward()
    params = list(module.parameters())
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad for name, p in params}
    return _worst_fd_error(params, grads, lambda: _probe_loss(module, x_data, probe), h)


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

    def loss_and_grads():
        return forward_backward(
            model, bits, snrs, np.random.default_rng(noise_seed), feedback_snr_db=8.0
        )

    _, grads = loss_and_grads()
    return _worst_fd_error(model.parameters(), grads, lambda: loss_and_grads()[0], h)


def run_gradient_checks(
    seed: int = 0,
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    custom: AfcConfig | None = None,
) -> dict:
    """Check every layer type plus the end-to-end session loss.

    A `custom` codec config adds a second session check,
    `session_loss_custom`. Returns per-check max relative errors plus an
    overall pass flag.
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

    results["session_loss"] = check_session_loss(_SESSION_CHECK_CONFIG, seed, h)
    if custom is not None:
        results["session_loss_custom"] = check_session_loss(custom, seed, h)
    results["max_rel_error"] = max(results.values())
    results["tolerance"] = tol
    results["passed"] = bool(results["max_rel_error"] < tol)
    return results
