"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray plus the tape entries needed to backpropagate
through the session graph: elementwise arithmetic with broadcasting, batched
matmul, reductions, concatenation, and the handful of nonlinearities the codec
uses. Gradients are exact; every primitive's backward rule is covered by a
finite-difference test.
"""

from __future__ import annotations

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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
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
                if id(parent) not in seen:
                    stack.append((parent, False))

        # Gradients are stored only on leaves (parameters and flagged inputs);
        # intermediates just route them.
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            for parent, fn in node._parents:
                contribution = fn(g)
                if id(parent) in grads:
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

        def grad_a(g):
            return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)

        def grad_b(g):
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
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return _make(x * cdf, [(t, lambda g: g * (cdf + x * pdf))])


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = as_tensor(t)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return out_data * (g - dot)

    return _make(out_data, [(t, grad_fn)])


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = as_tensor(t)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def grad_fn(g):
        return g - np.exp(out_data) * g.sum(axis=axis, keepdims=True)

    return _make(out_data, [(t, grad_fn)])


def gather_last(t: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one element along the last axis per leading index."""
    t = as_tensor(t)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = np.take_along_axis(t.data, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return full

    return _make(out_data, [(t, grad_fn)])
