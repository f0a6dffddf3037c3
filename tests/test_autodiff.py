import numpy as np
import pytest

from fbclab import autodiff as ad
from fbclab.autodiff import Tensor


def numerical_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_grad(build, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(shape)

    def scalar(xv):
        return build(Tensor(xv, requires_grad=True)).item()

    t = Tensor(x0, requires_grad=True)
    build(t).backward()
    num = numerical_grad(scalar, x0)
    err = np.abs(t.grad - num).max() / max(1.0, np.abs(num).max())
    assert err < tol, err


W = np.random.default_rng(42).standard_normal((4, 5))
C = np.random.default_rng(43).standard_normal((3, 4))
X3 = np.random.default_rng(44).standard_normal((2, 3, 4))

# Fused ops against the unfused formulas: agreement to rounding.
FUSED_RTOL = 1e-12


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def layer_norm_reference(x, gamma, beta, eps, g):
    """Unfused LayerNorm chain, forward then backward op by op, in plain numpy."""
    n = x.shape[-1]
    mu = x.sum(-1, keepdims=True) / n
    c = x - mu
    var = (c * c).sum(-1, keepdims=True) / n
    s = np.sqrt(var + eps)
    xhat = c / s
    out = xhat * gamma + beta
    d_beta = g.reshape(-1, n).sum(0)
    d_gamma = (g * xhat).reshape(-1, n).sum(0)
    d_xhat = g * gamma
    d_s = (-d_xhat * c / (s * s)).sum(-1, keepdims=True)
    d_var = d_s * 0.5 / s
    d_c = d_xhat / s + 2.0 * c * d_var / n
    d_x = d_c - d_c.sum(-1, keepdims=True) / n
    return out, d_x, d_gamma, d_beta


def cross_entropy_reference(z, targets):
    """-mean(gather(log_softmax(z), targets)) and its gradient, op by op."""
    shifted = z - z.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], -1)[..., 0]
    d_logp = np.zeros_like(z)
    np.put_along_axis(d_logp, targets[..., None], -1.0 / picked.size, -1)
    d_z = d_logp - np.exp(logp) * d_logp.sum(-1, keepdims=True)
    return -picked.mean(), d_z


def test_square_loss_gradient_exact():
    w = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    (w * w).sum().backward()
    assert np.array_equal(w.grad, 2 * w.data)


def test_matmul():
    check_grad(lambda t: ((t @ Tensor(W)) ** 2).sum(), (3, 4))
    # A 2-D weight shared across a batch: each gradient is one GEMM.
    check_grad(lambda t: ((t @ Tensor(W)) ** 2).sum(), (2, 3, 4))
    check_grad(lambda t: ((Tensor(X3) @ t) ** 2).sum(), (4, 5))


def test_batched_matmul():
    check_grad(lambda t: ((t @ t.swap_last_axes()) ** 3).mean(), (2, 3, 4))


def test_softmax():
    check_grad(lambda t: (ad.softmax(t) * Tensor(C)).sum(), (3, 4))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape", [(64, 16, 16), (200, 16, 8), (7, 9), (5, 33), (3, 1)])
def test_row_max_matches_numpy_max(shape):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    assert np.array_equal(_bits(ad._max_last(x)), _bits(x.max(axis=-1, keepdims=True)))

    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], size=shape)
    got, want = ad._max_last(special), special.max(axis=-1, keepdims=True)
    zero = want == 0.0
    # Bit for bit wherever the max is not a zero (NaN and infinities included).
    assert np.array_equal(_bits(got)[~zero], _bits(want)[~zero])
    # A zero max may take either sign, as numpy's own reduction order decides,
    # and the softmax built on it is bit for bit the one built on x.max.
    assert np.array_equal(got[zero], want[zero])
    with np.errstate(invalid="ignore"):
        e = np.exp(special - want)
        expected = e / ad._sum_last(e)
        assert np.array_equal(_bits(ad.softmax(Tensor(special)).data), _bits(expected))


def test_cross_entropy():
    idx = np.random.default_rng(1).integers(0, 4, (2, 3))
    check_grad(lambda t: ad.cross_entropy(t, idx), (2, 3, 4))
    check_grad(lambda t: ad.cross_entropy(t * 3.0, idx[0]), (3, 4))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros((2, 3, 4))), idx[0])


def test_cross_entropy_matches_unfused_reference():
    rng = np.random.default_rng(5)
    z = 4.0 * rng.standard_normal((64, 16, 8))
    targets = rng.integers(0, 8, (64, 16))
    want_loss, want_grad = cross_entropy_reference(z, targets)
    t = Tensor(z, requires_grad=True)
    loss = ad.cross_entropy(t, targets)
    loss.backward()
    assert loss.data.shape == ()
    assert abs(loss.item() - want_loss) <= FUSED_RTOL * abs(want_loss)
    assert rel_err(t.grad, want_grad) <= FUSED_RTOL


def test_layer_norm():
    rng = np.random.default_rng(6)
    x, gamma, beta = rng.standard_normal((2, 3, 5)), rng.standard_normal(5), rng.standard_normal(5)
    probe = Tensor(rng.standard_normal((2, 3, 5)))

    def ln(x, gamma, beta):
        return (ad.layer_norm(x, gamma, beta, 1e-5) * probe).sum()

    check_grad(lambda t: ln(t, Tensor(gamma), Tensor(beta)), (2, 3, 5))
    check_grad(lambda t: ln(Tensor(x), t, Tensor(beta)), (5,))
    check_grad(lambda t: ln(Tensor(x), Tensor(gamma), t), (5,))


def test_layer_norm_matches_unfused_reference():
    rng = np.random.default_rng(7)
    x = 3.0 + 2.0 * rng.standard_normal((64, 16, 16))
    gamma, beta = 1.0 + 0.1 * rng.standard_normal(16), 0.1 * rng.standard_normal(16)
    g = rng.standard_normal(x.shape)
    want = layer_norm_reference(x, gamma, beta, 1e-5, g)
    tx, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
    out = ad.layer_norm(tx, tg, tb, 1e-5)
    out.backward(g)
    for got, ref in zip((out.data, tx.grad, tg.grad, tb.grad), want):
        assert got.shape == ref.shape
        assert rel_err(got, ref) <= FUSED_RTOL


def test_gelu():
    check_grad(lambda t: ad.gelu(t).sum(), (3, 7))


def test_exp_log_sqrt_div():
    check_grad(
        lambda t: (ad.exp(t) + ad.log(t * t + 1.0) + ad.sqrt(t * t + 2.0)).sum(), (6,)
    )
    check_grad(
        lambda t: ((t / ad.sqrt((t * t).mean(axis=-1, keepdims=True) + 1e-8)) ** 2).sum(),
        (2, 6),
    )


def test_concat():
    check_grad(lambda t: (ad.concat([t, t * 2.0], axis=-1) ** 2).sum(), (2, 3))


def test_broadcast_add_and_reductions():
    check_grad(lambda t: (t + Tensor(np.ones((1, 4)))).sum(), (3, 4))
    # Operands broadcast over leading axes: a bias and a scalar.
    check_grad(lambda t: ((Tensor(X3) + t) ** 2).sum(), (4,))
    check_grad(lambda t: ((Tensor(X3) * t) ** 2).sum(), ())
    check_grad(lambda t: (t.mean(axis=1) ** 2).sum() + t.sum(axis=0, keepdims=True).mean(), (3, 4))


def test_fanout_accumulation():
    check_grad(lambda t: (t * t).sum() + (t @ Tensor(W)).sum(), (3, 4))


def test_no_grad_suppresses_graph():
    w = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = (w * 2.0).sum()
    assert not out._parents
    out2 = (w * 2.0).sum()
    assert out2._parents


def test_backward_requires_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (w * 2.0).backward()


def test_backward_from_a_leaf():
    w = Tensor(np.array(2.0), requires_grad=True)
    w.backward()
    w.backward()
    assert w.grad == 2.0


def test_grad_accumulates_across_backward_calls():
    w = Tensor(np.array([2.0]), requires_grad=True)
    (w * 3.0).sum().backward()
    (w * 3.0).sum().backward()
    assert w.grad[0] == 6.0
    w.zero_grad()
    assert w.grad is None
