"""Neural building blocks on top of the autodiff Tensor.

Modules auto-register parameters and submodules in declaration order, which
fixes the layout of checkpoints and makes parameter counting reproducible.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LAYER_NORM_EPS = 1e-5


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """All trainable tensors, depth-first in declaration order."""
        out = []
        for name, p in self._params.items():
            if p.requires_grad:
                out.append((name, p))
        for mod_name, mod in self._modules.items():
            out.extend((f"{mod_name}.{n}", p) for n, p in mod.parameters())
        return out

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self.items = list(modules)
        for i, m in enumerate(self.items):
            setattr(self, str(i), m)

    def __iter__(self):
        return iter(self.items)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        scale = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(
            rng.uniform(-scale, scale, (in_dim, out_dim)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor, rows=None) -> Tensor:
        """x @ weight + bias. With rows, x's features are those input rows of
        the weight only (the others would multiply zeros), and the weight's
        gradient reaches those rows only."""
        return ad.linear(x, self.weight, self.bias, rows)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, LAYER_NORM_EPS)


class SelfAttention(Module):
    """Single-head scaled dot-product attention over the block axis."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        super().__init__()
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self.scale = 1.0 / np.sqrt(d_model)

    def __call__(self, x: Tensor) -> Tensor:
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        scores = q @ k.swap_last_axes()  # scaled in place: no rule reads it
        scores = ad.mul(scores, self.scale, out=scores)
        return self.wo(ad.softmax(scores) @ v)


class FeedForward(Module):
    def __init__(self, d_model: int, ff_dim: int, rng: np.random.Generator):
        super().__init__()
        self.up = Linear(d_model, ff_dim, rng)
        self.down = Linear(ff_dim, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(ad.gelu(self.up(x)))


class TransformerLayer(Module):
    """Pre-norm block: x + attn(ln(x)); x + ff(ln(x))."""

    def __init__(self, d_model: int, ff_dim: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(d_model)
        self.attn = SelfAttention(d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, ff_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        # Each branch ends in a Linear, whose output no rule reads, so the
        # residual is added into it in place.
        branch = self.attn(self.ln1(x))
        x = ad.add(x, branch, out=branch)
        branch = self.ff(self.ln2(x))
        return ad.add(x, branch, out=branch)


class TransformerStack(Module):
    def __init__(self, d_model: int, ff_dim: int, n_layers: int, rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList(
            TransformerLayer(d_model, ff_dim, rng) for _ in range(n_layers)
        )
        self.ln_f = LayerNorm(d_model)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return self.ln_f(x)


class SnrMlp(Module):
    """Two-layer MLP, emb_dim wide, lifting a scalar SNR (dB) to an embedding.

    Shared by encoder and decoder and across rounds; deterministic in its
    input, so equal SNRs always produce equal embeddings.
    """

    def __init__(self, emb_dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(1, emb_dim, rng)
        self.fc2 = Linear(emb_dim, emb_dim, rng)

    def __call__(self, snr_db: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(snr_db)))
