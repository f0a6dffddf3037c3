"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray plus the tape entries needed to backpropagate
through the session graph: elementwise arithmetic with broadcasting, batched
matmul, reductions, concatenation, and the handful of nonlinearities the codec
uses. Gradients are exact; every primitive's backward rule is covered by a
finite-difference test.

Two fused primitives keep the tape short: `layer_norm` records one node with
the closed-form backward of Ba et al. (2016), "Layer Normalization", and
`cross_entropy` records one node for softmax cross-entropy against integer
targets. The train step is bound by per-call overhead, not by FLOPs, so the
small reductions it makes run as BLAS products with a ones vector: sums over
a short last axis are `x.reshape(-1, n) @ ones(n)`, sums over leading axes
(bias, gain and shift gradients) are `ones(M) @ g.reshape(M, n)`, and both
gradients of a product with a shared 2-D weight are single GEMMs over the
flattened leading axes. Each costs a few microseconds where a numpy reduction over a
16-wide axis costs tens. Summation order differs from numpy's reductions, so
results agree with the unfused formulas to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keeping it, as one BLAS matrix-vector product."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n)).reshape(x.shape[:-1] + (1,))


def _max_last(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keeping it.

    numpy reduces a short contiguous axis slowly; the same maxima taken as
    one elementwise `maximum` per column of a contiguous transposed copy cost
    a quarter as much or less at the codec's shapes. A max involves no
    rounding, so the values are those of x.max(axis=-1); only the sign of a
    zero max follows the reduction order, and exp(x - max) is the same for
    either sign.
    """
    n = x.shape[-1]
    cols = np.ascontiguousarray(x.reshape(-1, n).T)
    return np.maximum.reduce(cols, axis=0).reshape(x.shape[:-1] + (1,))


def _sum_rows(x2: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D array, as one BLAS vector-matrix product."""
    return np.ones(x2.shape[0]) @ x2


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0 and grad.shape[extra:] == shape:
        return _sum_rows(grad.reshape(-1, math.prod(shape))).reshape(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: list[tuple[Tensor, object]] = []

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, grad: np.ndarray | None = None):
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)

        grad = np.asarray(grad, dtype=np.float64)
        if not self._parents:
            if self.requires_grad:
                self.grad = grad if self.grad is None else self.grad + grad
            return

        # Topological order of the interior nodes. Gradients are stored only
        # on leaves (parameters and flagged inputs), which take each
        # contribution as it arrives; interior nodes just route them.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if parent._parents and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            g = grads.pop(id(node))
            for parent, fn in node._parents:
                contribution = fn(g)
                if not parent._parents:
                    parent.grad = contribution if parent.grad is None else parent.grad + contribution
                elif id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + contribution
                else:
                    grads[id(parent)] = contribution

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _make(self.data + other.data, [
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (other, lambda g: _unbroadcast(g, other.data.shape)),
        ])
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other)
        return _make(self.data - other.data, [
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (other, lambda g: _unbroadcast(-g, other.data.shape)),
        ])

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        return _make(self.data * other.data, [
            (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
            (other, lambda g: _unbroadcast(g * self.data, other.data.shape)),
        ])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        return _make(self.data / other.data, [
            (self, lambda g: _unbroadcast(g / other.data, self.data.shape)),
            (other, lambda g: _unbroadcast(
                -g * self.data / (other.data * other.data), other.data.shape)),
        ])

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __neg__(self):
        return _make(-self.data, [(self, lambda g: -g)])

    def __pow__(self, p: float):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return _make(self.data ** p, [
            (self, lambda g: g * p * self.data ** (p - 1)),
        ])

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        # A 2-D right operand is a weight shared across the leading axes of
        # a: both gradients are then one GEMM over those axes flattened.
        def grad_a(g):
            if b.ndim == 2:
                return (g.reshape(-1, g.shape[-1]) @ b.T).reshape(a.shape)
            return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)

        def grad_b(g):
            if b.ndim == 2:
                return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)

        return _make(a @ b, [(self, grad_a), (other, grad_b)])

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _make(self.data.reshape(shape), [
            (self, lambda g: g.reshape(old)),
        ])

    def swap_last_axes(self):
        return _make(np.swapaxes(self.data, -1, -2), [
            (self, lambda g: np.swapaxes(g, -1, -2)),
        ])

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def grad_fn(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            if not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return _make(out_data, [(self, grad_fn)])

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def _make(data: np.ndarray, parents) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        kept = [(p, fn) for p, fn in parents if p.requires_grad or p._parents]
        if kept:
            out._parents = kept
            out.requires_grad = True
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- functions ---------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_grad(i):
        lo, hi = offsets[i], offsets[i + 1]

        def grad_fn(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return grad_fn

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(data, [(t, make_grad(i)) for i, t in enumerate(tensors)])


def exp(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out_data = np.exp(t.data)
    return _make(out_data, [(t, lambda g: g * out_data)])


def log(t: Tensor) -> Tensor:
    t = as_tensor(t)
    return _make(np.log(t.data), [(t, lambda g: g / t.data)])


def sqrt(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out_data = np.sqrt(t.data)
    return _make(out_data, [(t, lambda g: g * 0.5 / out_data)])


def gelu(t: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact form x * Phi(x)."""
    t = as_tensor(t)
    x = t.data
    cdf = ndtr(x)

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return g * (cdf + x * pdf)

    return _make(x * cdf, [(t, grad_fn)])


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = as_tensor(t)
    x = np.moveaxis(t.data, axis, -1)
    e = np.exp(x - _max_last(x))
    p = e / _sum_last(e)

    def grad_fn(g):
        g = np.moveaxis(g, axis, -1)
        return np.moveaxis(p * (g - _sum_last(g * p)), -1, axis)

    return _make(np.moveaxis(p, -1, axis), [(t, grad_fn)])


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis.

    One tape node; the backward is the closed form
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps)
    with dxhat = g * gamma, means taken over the last axis.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    shape = x.data.shape
    n = shape[-1]
    x2 = x.data.reshape(-1, n)
    ones = np.ones(n)
    centered = x2 - (x2 @ ones * (1.0 / n))[:, None]
    std = np.sqrt((centered * centered) @ ones * (1.0 / n) + eps)[:, None]
    xhat = centered / std
    out = (xhat * gamma.data + beta.data).reshape(shape)

    def grad_x(g):
        dxhat = g.reshape(-1, n) * gamma.data
        mean_d = dxhat @ ones * (1.0 / n)
        mean_dx = (dxhat * xhat) @ ones * (1.0 / n)
        return ((dxhat - mean_d[:, None] - xhat * mean_dx[:, None]) / std).reshape(shape)

    def grad_gamma(g):
        return _sum_rows(g.reshape(-1, n) * xhat)

    def grad_beta(g):
        return _sum_rows(g.reshape(-1, n))

    return _make(out, [(x, grad_x), (gamma, grad_gamma), (beta, grad_beta)])


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over leading positions of -log softmax(logits)[target], a scalar.

    targets holds one class index per leading position of logits. One tape
    node; the backward is (softmax(logits) - onehot(targets)) / positions.
    """
    logits = as_tensor(logits)
    n = logits.data.shape[-1]
    z = logits.data.reshape(-1, n)
    rows = np.arange(z.shape[0])
    idx = np.asarray(targets, dtype=np.int64).reshape(-1)
    if idx.size != rows.size:
        raise ValueError(f"{idx.size} targets for {rows.size} positions")
    shifted = z - _max_last(z)
    e = np.exp(shifted)
    total = e @ np.ones(n)
    picked = shifted[rows, idx] - np.log(total)
    scale = 1.0 / rows.size

    def grad_fn(g):
        d = e / total[:, None]
        d[rows, idx] -= 1.0
        return (d * (g * scale)).reshape(logits.data.shape)

    return _make(np.asarray(-(picked.sum() * scale)), [(logits, grad_fn)])
