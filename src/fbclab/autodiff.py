"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray of its thread's precision plus, when a gradient
flows through it, a tape node. The operations are the ones the codec, its
loss and its training use, and no more:
- `+`, `*` and `/` with broadcasting (`add` and `mul` also write in place),
  and batched matmul `@`;
- `reshape` and `swap_last_axes`;
- `sum()` and `mean()` of every element, to a scalar;
- `concat` (leading axes broadcast) and `softmax` over the last axis;
- `sqrt`, `gelu`, `layer_norm`, `linear` (optionally against chosen rows of
  its weight) and `cross_entropy`.
`backward()` starts from a scalar. Gradients are exact; every primitive's
backward rule is covered by a finite-difference test.

Precision: float32, the codec's numeric type, in every thread. `float64()`
switches the thread that enters it to double precision, which finite
differences need. An op's own small buffers (the ones vectors of its BLAS
reductions, the zeros a gathered weight's gradient is scattered into) take
its operand's dtype, and its scalar constants are Python floats, so no op
promotes a float32 operand to float64.

A node holds only what backward reads: its parent nodes with one backward
rule each (a leaf, a parameter or a flagged input, has none) and the slot
where its gradient accumulates. An interior node empties its slot when its
rules run; a leaf keeps the sum, which its `grad` reads. A node never
refers to a Tensor, so no reference cycle delays freeing a dropped model or
graph. A rule captures exactly the arrays and shapes its formula reads, never an
operand Tensor: a sum keeps shapes, a product with a constant keeps the
constant, `sqrt` its output, a matmul its operands or their rebuilds
(below). So an op's output array is freed as soon as no Python name and no
rule refers to it, as in PyTorch (Paszke et al., 2019), where graph nodes
hold saved tensors, not outputs.
The graph itself lives until its output is dropped, and backward may run on
it more than once.

Rebuild rule (selective recomputation: Chen et al., 2016; Korthikanti et
al., 2022): a recorded op whose output backward can recompute from what its
own rules read registers that recomputation, the output Tensor's rebuild.
`layer_norm` (`xhat * gamma`, then `+= beta`), `gelu` (`x * Phi(x)`), a
batched `@` of two recorded operands (attention's `p @ v`), `swap_last_axes`
of a Tensor with a rebuild, `linear` of an input with a rebuild (`x @ w`,
then `+= b`) and `concat` (the inputs joined again) do. A concat's inputs
are smaller than its output or shared with other concats: the codec joins a
message and (B, blocks) slot arrays that every round reuses with a (B or 1,
1, emb) embedding. The batched `@`, `gelu`, `concat` and the weight
gradient of a product with a 2-D weight read their operands through the
rebuild when there is one, so the tape keeps no LayerNorm output, GELU
output, attention mix, embedding input, or the q, k, v and feed-forward
outputs those read. A rebuild repeats
the forward's floating-point operations in the same order, so it returns
the same bits. A rebuild may read another rebuild: each runs at most once
per backward, cached on its node, and the cache is dropped when that node
runs, after every reader. An in-place `add` or `mul` drops the rebuild of
the Tensor it overwrites.

In-place rule: an array may be overwritten only when no rule saved it and no
other name holds its Tensor. `add` and `mul` take `out=`, one of their
operands, to write the result into its array; the node is the one `a + b`
and `a * b` record. Two call sites use it: `SelfAttention` scales its score
product, and `TransformerLayer` adds the residual into the branch output.
`linear` adds its bias into its GEMM output the same way. Primitives
reuse their own temporaries (`out=`) where no rule saved them. Every value
comes from the same floating-point operations in the same order as without
reuse, so results are bit for bit the same.

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
import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr


class _GradMode(threading.local):
    """Whether ops record tape nodes, held per thread; on in every new thread."""

    enabled = True


_grad_mode = _GradMode()


class _Precision(threading.local):
    """The dtype of every new Tensor, held per thread; float32 in every new thread."""

    dtype = np.dtype(np.float32)


_precision = _Precision()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode).

    The switch is per thread: the block turns recording off for the thread
    that enters it and for no other, so threads that enter and leave their
    own blocks in any interleaving leave every other thread recording.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


@contextmanager
def float64():
    """Make Tensors in double precision inside the block.

    Per thread, like `no_grad`. Arrays made before the block keep their
    dtype: a model built outside it holds float32 weights, and its products
    with float64 inputs are promoted to float64.
    """
    prev = _precision.dtype
    _precision.dtype = np.dtype(np.float64)
    try:
        yield
    finally:
        _precision.dtype = prev


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keeping it, as one BLAS matrix-vector product."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n, x.dtype)).reshape(x.shape[:-1] + (1,))


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
    return np.ones(x2.shape[0], x2.dtype) @ x2


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


class _Node:
    """A tape entry: (parent node, backward rule) pairs, or, with no parents,
    a leaf. `grad` accumulates the gradient that arrives at the node: a leaf
    keeps it, an interior node hands it on when it runs. `rebuilt` caches
    the output's rebuild within one backward."""

    __slots__ = ("parents", "grad", "rebuilt")

    def __init__(self, parents: tuple = ()):
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.rebuilt: np.ndarray | None = None


class Tensor:
    __slots__ = ("data", "_node", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_precision.dtype)
        self._node: _Node | None = _Node() if requires_grad else None
        # Recomputes data from arrays the tape keeps; set by `_make` only.
        self._rebuild = None

    # -- plumbing ----------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient a leaf has accumulated; None before backward and on
        tensors that are not leaves."""
        return None if self._node is None else self._node.grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    def backward(self):
        """Backpropagate from this scalar tensor through the recorded graph.

        The graph is kept, so calling backward again adds the same gradients.
        A graph whose backward raised holds partial sums and must be rebuilt.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        root = self._node
        if root is None:
            return

        # Topological order of the interior nodes. Each takes its slot when
        # it runs, so afterwards only leaves hold a gradient.
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)] if root.parents else []
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node.parents:
                if parent.parents and id(parent) not in seen:
                    stack.append((parent, False))

        _accumulate(root, np.ones_like(self.data))
        for node in reversed(order):
            # Every reader of this node's output has run.
            node.rebuilt = None
            g, node.grad = node.grad, None
            for parent, fn in node.parents:
                _accumulate(parent, fn(g))

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        sa, sb = a.shape, b.shape
        return _make(a / b, [
            (self, lambda g: _unbroadcast(g / b, sa)),
            (other, lambda g: _unbroadcast(-g * a / (b * b), sb)),
        ])

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        a_shape = a.shape

        # A 2-D right operand is a weight shared across the leading axes of
        # a: both gradients are then one GEMM over those axes flattened.
        if b.ndim == 2:
            left = _reader(self)
            rebuild = None

            def grad_a(g):
                return (g.reshape(-1, g.shape[-1]) @ b.T).reshape(a_shape)

            def grad_b(g):
                return left().reshape(-1, a_shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            b_shape = b.shape
            left, right = _reader(self), _reader(other)
            # With both operands recorded, the rules read both, and the
            # product is one GEMM of them away.
            recorded = self._node is not None and other._node is not None
            rebuild = (lambda: left() @ right()) if recorded else None

            def grad_a(g):
                return _unbroadcast(g @ np.swapaxes(right(), -1, -2), a_shape)

            def grad_b(g):
                return _unbroadcast(np.swapaxes(left(), -1, -2) @ g, b_shape)

        return _make(a @ b, [(self, grad_a), (other, grad_b)], rebuild)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _make(self.data.reshape(shape), [
            (self, lambda g: g.reshape(old)),
        ])

    def swap_last_axes(self):
        inner = self._rebuild
        rebuild = None if inner is None else (lambda: np.swapaxes(inner(), -1, -2))
        return _make(np.swapaxes(self.data, -1, -2), [
            (self, lambda g: np.swapaxes(g, -1, -2)),
        ], rebuild)

    # -- reductions ---------------------------------------------------------

    def sum(self):
        """Sum of every element, a scalar."""
        shape = self.data.shape
        return _make(self.data.sum(), [(self, lambda g: np.broadcast_to(g, shape).copy())])

    def mean(self):
        """Mean of every element, a scalar."""
        return self.sum() * (1.0 / self.data.size)


def _accumulate(node: _Node, grad: np.ndarray) -> None:
    """Add grad to the gradient that node has gathered."""
    node.grad = grad if node.grad is None else node.grad + grad


def _make(data: np.ndarray, parents, rebuild=None) -> Tensor:
    """A Tensor over data whose node keeps the rules of the operands that need
    one; a recorded output also keeps rebuild, which recomputes data."""
    out = Tensor(data)
    if _grad_mode.enabled:
        kept = tuple((p._node, fn) for p, fn in parents if p._node is not None)
        if kept:
            out._node = _Node(kept)
            if rebuild is not None:
                _set_rebuild(out, rebuild)
    return out


def _set_rebuild(t: Tensor, compute) -> None:
    """Make compute, run at most once per backward, recorded t's rebuild."""
    node = t._node

    def rebuild():
        if node.rebuilt is None:
            node.rebuilt = compute()
        return node.rebuilt

    t._rebuild = rebuild


def _reader(t: Tensor):
    """A function returning t's array: through t's rebuild when it has one,
    so that a rule reading it does not keep the array."""
    if t._rebuild is not None:
        return t._rebuild
    data = t.data
    return lambda: data


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b, out: Tensor | None = None) -> Tensor:
    """a + b, recorded as one node.

    With out (a or b), the sum is written into out's array instead of a new
    one. The caller guarantees that nothing else reads that array: no rule
    saved it and no other name holds its Tensor. The rules keep only shapes,
    so the other operand may be anything.
    """
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if out is None:
        data = a.data + b.data
    elif out is a or out is b:
        data = np.add(a.data, b.data, out=out.data)
        out._rebuild = None
    else:
        raise ValueError("add writes in place only into one of its operands")
    return _make(data, [
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(g, sb)),
    ])


def mul(a, b, out: Tensor | None = None) -> Tensor:
    """a * b, recorded as one node.

    With out=a, the product is written into a's array, under the same
    guarantee as `add`; b must then be a constant, because b's rule would
    read a's overwritten values.
    """
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    if out is None:
        data = x * y
    elif out is a and b._node is None:
        data = np.multiply(x, y, out=x)
        out._rebuild = None
    else:
        raise ValueError("mul writes in place only into its first operand, times a constant")
    return _make(data, [
        (a, lambda g: _unbroadcast(g * y, sa)),
        (b, lambda g: _unbroadcast(g * x, sb)),
    ])


# -- functions ---------------------------------------------------------------


def concat(tensors: list[Tensor]) -> Tensor:
    """Concatenation along the last axis; the leading axes broadcast.

    Each input's gradient is a copy of its slice of the output gradient
    (summed over the axes it was broadcast along), so no input's gradient
    pins the whole output gradient. A recorded output's rebuild joins the
    inputs again, read through `_reader`.
    """
    tensors = [as_tensor(t) for t in tensors]
    lead = np.broadcast_shapes(*(t.data.shape[:-1] for t in tensors))
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def make_grad(i, shape):
        lo, hi = offsets[i], offsets[i + 1]

        def grad_fn(g):
            part = g[..., lo:hi]
            return part.copy() if part.shape == shape else _unbroadcast(part, shape)

        return grad_fn

    def join(arrays):
        return np.concatenate(
            [a if a.shape[:-1] == lead else np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays],
            axis=-1,
        )

    readers = [_reader(t) for t in tensors]
    return _make(
        join([t.data for t in tensors]),
        [(t, make_grad(i, t.data.shape)) for i, t in enumerate(tensors)],
        lambda: join([read() for read in readers]),
    )


def sqrt(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out_data = np.sqrt(t.data)
    return _make(out_data, [(t, lambda g: g * 0.5 / out_data)])


def gelu(t: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact form x * Phi(x).

    When nothing records (no_grad, or t needs no gradient) no rule reads the
    CDF, so the output is written into its buffer: one (shape of x) array
    fewer at the peak of inference.
    """
    t = as_tensor(t)
    x = t.data
    cdf = ndtr(x)
    if t._node is None or not _grad_mode.enabled:
        return Tensor(np.multiply(x, cdf, out=cdf))
    operand = _reader(t)

    def grad_fn(g):
        # g * (cdf + x * pdf) with pdf = exp(-x^2 / 2) / sqrt(2 pi), in one
        # temporary.
        x = operand()
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)  # a numpy float64 would compute in float64
        d *= x
        d += cdf
        d *= g
        return d

    return _make(x * cdf, [(t, grad_fn)], lambda: operand() * cdf)


def softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis."""
    t = as_tensor(t)
    x = t.data
    p = x - _max_last(x)
    np.exp(p, out=p)
    p /= _sum_last(p)

    def grad_fn(g):
        # p * (g - sum(g * p)), in one temporary.
        d = g * p
        np.subtract(g, _sum_last(d), out=d)
        d *= p
        return d

    return _make(p, [(t, grad_fn)])


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis.

    One tape node; the backward is the closed form
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps)
    with dxhat = g * gamma, means taken over the last axis. The node keeps
    xhat, the row scales and gamma's and beta's arrays, not x and not the
    output, whose rebuild repeats the last two steps.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    shape = x.data.shape
    n = shape[-1]
    x2 = x.data.reshape(-1, n)
    ones = np.ones(n, x2.dtype)
    g_data, b_data = gamma.data, beta.data
    xhat = x2 - (x2 @ ones * (1.0 / n))[:, None]
    std = np.sqrt((xhat * xhat) @ ones * (1.0 / n) + eps)[:, None]
    xhat /= std
    out = xhat * g_data
    out += b_data

    def rebuild():
        o = xhat * g_data
        o += b_data
        return o.reshape(shape)

    def grad_x(g):
        d = g.reshape(-1, n) * g_data
        t = d * xhat
        mean_dx = t @ ones * (1.0 / n)
        d -= (d @ ones * (1.0 / n))[:, None]
        np.multiply(xhat, mean_dx[:, None], out=t)
        d -= t
        d /= std
        return d.reshape(shape)

    def grad_gamma(g):
        return _sum_rows(g.reshape(-1, n) * xhat)

    def grad_beta(g):
        return _sum_rows(g.reshape(-1, n))

    return _make(
        out.reshape(shape), [(x, grad_x), (gamma, grad_gamma), (beta, grad_beta)], rebuild
    )


def linear(x: Tensor, w: Tensor, b: Tensor, rows=None) -> Tensor:
    """x @ w + b for a 2-D weight w, recorded as one node with parents x, w, b.

    The product runs through `Tensor.__matmul__`, so whatever counts its
    multiply-accumulates counts this one, and the bias is added into the
    product's array, which no rule reads. When x carries a rebuild, so does
    the output: `x_rebuild() @ w`, then `+= b`, the forward's own steps.

    With rows, distinct indices into w's first axis, x's features stand for
    those rows of w alone: the product runs against w[rows], and w's rule
    scatters their gradient into zeros of w's shape.
    """
    x = as_tensor(x)
    # The weight enters the product as a constant and its rule is added to
    # this node below, after x's: a gather node for rows would run later
    # and reorder the sum at w.
    w_data = w.data if rows is None else w.data[rows]
    out = x @ Tensor(w_data)
    np.add(out.data, b.data, out=out.data)
    rules = ()
    if w._node is not None and _grad_mode.enabled:
        left, w_shape, n_in = _reader(x), w.data.shape, w_data.shape[0]

        def grad_w(g):
            gw = left().reshape(-1, n_in).T @ g.reshape(-1, g.shape[-1])
            if rows is None:
                return gw
            full = np.zeros(w_shape, gw.dtype)
            full[rows] = gw
            return full

        rules += ((w._node, grad_w),)
    if b._node is not None and _grad_mode.enabled:
        sb = b.data.shape
        rules += ((b._node, lambda g: _unbroadcast(g, sb)),)
    if rules:
        if out._node is None:
            out._node = _Node(rules)
        else:
            out._node.parents += rules
    if x._rebuild is not None and out._node is not None:
        x_rebuild, b_data = x._rebuild, b.data

        def rebuild():
            o = x_rebuild() @ w_data
            o += b_data
            return o

        _set_rebuild(out, rebuild)
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over leading positions of -log softmax(logits)[target], a scalar.

    targets holds one class index per leading position of logits. One tape
    node; the backward is (softmax(logits) - onehot(targets)) / positions.
    """
    logits = as_tensor(logits)
    shape = logits.data.shape
    n = shape[-1]
    z = logits.data.reshape(-1, n)
    rows = np.arange(z.shape[0])
    idx = np.asarray(targets, dtype=np.int64).reshape(-1)
    if idx.size != rows.size:
        raise ValueError(f"{idx.size} targets for {rows.size} positions")
    e = z - _max_last(z)
    picked = e[rows, idx]
    np.exp(e, out=e)
    total = e @ np.ones(n, e.dtype)
    picked -= np.log(total)
    scale = 1.0 / rows.size

    def grad_fn(g):
        d = e / total[:, None]
        d[rows, idx] -= 1.0
        d *= g * scale
        return d.reshape(shape)

    return _make(np.asarray(-(picked.sum() * scale)), [(logits, grad_fn)])
