import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fbclab import autodiff as ad
from fbclab.afc import (
    AfcConfig,
    AfcModel,
    bits_to_block_targets,
    block_cross_entropy,
    session_graph,
    session_loss,
)
from fbclab.autodiff import Tensor
from fbclab.layers import Linear, SelfAttention, TransformerLayer


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

# Fused ops against the unfused formulas: agreement to rounding, in float64.
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


def square_sum(t):
    return (t * t).sum()


@pytest.mark.usefixtures("float64")
def test_matmul():
    check_grad(lambda t: square_sum(t @ Tensor(W)), (3, 4))
    # A 2-D weight shared across a batch: each gradient is one GEMM.
    check_grad(lambda t: square_sum(t @ Tensor(W)), (2, 3, 4))
    check_grad(lambda t: square_sum(Tensor(X3) @ t), (4, 5))


@pytest.mark.usefixtures("float64")
def test_batched_matmul():
    def cube_mean(t):
        m = t @ t.swap_last_axes()
        return (m * m * m).mean()

    check_grad(cube_mean, (2, 3, 4))


@pytest.mark.usefixtures("float64")
def test_softmax():
    check_grad(lambda t: (ad.softmax(t) * Tensor(C)).sum(), (3, 4))


def _bits(a):
    """a's bit patterns, as unsigned integers of a's itemsize."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("shape", [(64, 16, 16), (200, 16, 8), (7, 9), (5, 33), (3, 1)])
def test_row_max_matches_numpy_max(shape):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape).astype(np.float32)
    assert np.array_equal(_bits(ad._max_last(x)), _bits(x.max(axis=-1, keepdims=True)))

    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], size=shape)
    special = special.astype(np.float32)
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


@pytest.mark.usefixtures("float64")
def test_cross_entropy():
    idx = np.random.default_rng(1).integers(0, 4, (2, 3))
    check_grad(lambda t: ad.cross_entropy(t, idx), (2, 3, 4))
    check_grad(lambda t: ad.cross_entropy(t * 3.0, idx[0]), (3, 4))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros((2, 3, 4))), idx[0])


@pytest.mark.usefixtures("float64")
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


@pytest.mark.usefixtures("float64")
def test_layer_norm():
    rng = np.random.default_rng(6)
    x, gamma, beta = rng.standard_normal((2, 3, 5)), rng.standard_normal(5), rng.standard_normal(5)
    probe = Tensor(rng.standard_normal((2, 3, 5)))

    def ln(x, gamma, beta):
        return (ad.layer_norm(x, gamma, beta, 1e-5) * probe).sum()

    check_grad(lambda t: ln(t, Tensor(gamma), Tensor(beta)), (2, 3, 5))
    check_grad(lambda t: ln(Tensor(x), t, Tensor(beta)), (5,))
    check_grad(lambda t: ln(Tensor(x), Tensor(gamma), t), (5,))


@pytest.mark.usefixtures("float64")
def test_layer_norm_matches_unfused_reference():
    rng = np.random.default_rng(7)
    x = 3.0 + 2.0 * rng.standard_normal((64, 16, 16))
    gamma, beta = 1.0 + 0.1 * rng.standard_normal(16), 0.1 * rng.standard_normal(16)
    g = rng.standard_normal(x.shape)
    want = layer_norm_reference(x, gamma, beta, 1e-5, g)
    tx, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
    out = ad.layer_norm(tx, tg, tb, 1e-5)
    # The probe sum's backward hands out exactly g: 1.0 * g is g.
    (out * Tensor(g)).sum().backward()
    for got, ref in zip((out.data, tx.grad, tg.grad, tb.grad), want):
        assert got.shape == ref.shape
        assert rel_err(got, ref) <= FUSED_RTOL


@pytest.mark.usefixtures("float64")
def test_gelu():
    check_grad(lambda t: ad.gelu(t).sum(), (3, 7))


@pytest.mark.usefixtures("float64")
def test_sqrt_div():
    check_grad(lambda t: ad.sqrt(t * t + 2.0).sum(), (6,))
    # Division by a broadcast scalar, as power normalisation divides.
    check_grad(lambda t: square_sum(t / ad.sqrt((t * t).mean() + 1e-8)), (2, 6))


@pytest.mark.usefixtures("float64")
def test_concat():
    # A constant among recorded operands, as the codec's message.
    check_grad(lambda t: square_sum(ad.concat([t, Tensor(X3), t * 2.0])), (2, 3, 4))
    # A (1, 1, k) operand broadcast along the leading axes, as the codec's
    # SNR embedding.
    check_grad(lambda t: square_sum(ad.concat([Tensor(X3), t, Tensor(X3) * t])), (1, 1, 4))
    # The rebuild joins the operands again, reading a rebuilt one through its
    # rebuild: the same bits as the output.
    x = Tensor(X3, requires_grad=True)
    out = ad.concat([ad.gelu(x), Tensor(X3[:1, :, :2]), x * 2.0])
    assert out._rebuild is not None
    assert np.array_equal(_bits(out._rebuild()), _bits(out.data))
    with ad.no_grad():
        assert ad.concat([x, x])._rebuild is None


@pytest.mark.usefixtures("float64")
def test_linear_with_rows():
    # x's features stand for rows 3, 0 and 2 of the weight: the gradient of
    # row 1 is zero, and x's gradient comes from those rows alone.
    rows = [3, 0, 2]
    x3 = X3[..., :3]
    bias = Tensor(np.arange(5.0))
    check_grad(lambda t: square_sum(ad.linear(Tensor(x3), t, bias, rows)), (4, 5))
    check_grad(lambda t: square_sum(ad.linear(t, Tensor(W), bias, rows)), (2, 3, 3))
    w = Tensor(W, requires_grad=True)
    out = ad.linear(Tensor(x3), w, bias, rows)
    assert np.array_equal(out.data, x3 @ W[rows] + bias.data)
    square_sum(out).backward()
    assert not w.grad[1].any() and w.grad[rows].all()


@pytest.mark.usefixtures("float64")
def test_broadcast_add_and_reductions():
    check_grad(lambda t: (t + Tensor(np.ones((1, 4)))).sum(), (3, 4))
    # Operands broadcast over leading axes: a bias and a scalar.
    check_grad(lambda t: square_sum(Tensor(X3) + t), (4,))
    check_grad(lambda t: square_sum(Tensor(X3) * t), ())
    check_grad(lambda t: square_sum(t).mean() + t.mean(), (3, 4))


@pytest.mark.usefixtures("float64")
def test_fanout_accumulation():
    check_grad(lambda t: (t * t).sum() + (t @ Tensor(W)).sum(), (3, 4))


def test_no_grad_suppresses_graph():
    w = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = (w * 2.0).sum()
    assert not out._node
    out2 = (w * 2.0).sum()
    assert out2._node


def test_no_grad_is_per_thread():
    # A enters, B enters, A leaves, B leaves. With one process-wide switch, B
    # would see recording back on after A left and, on leaving, restore the
    # "off" it found on entry, for every thread.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    w = Tensor(np.ones(3), requires_grad=True)
    recorded = {}

    def a():
        with ad.no_grad():
            a_in.set()
            b_in.wait(10)
            recorded["a"] = (w * 2.0).requires_grad
        a_out.set()

    def b():
        a_in.wait(10)
        with ad.no_grad():
            b_in.set()
            a_out.wait(10)
            recorded["b"] = (w * 2.0).requires_grad

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert recorded == {"a": False, "b": False}
    out = (w * 2.0).sum()
    out.backward()
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0))


def test_float64_is_per_thread():
    # As no_grad: A enters, B enters, A leaves, B leaves, and each thread
    # sees its own precision throughout.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    made = {}

    def a():
        with ad.float64():
            a_in.set()
            b_in.wait(10)
            made["a"] = Tensor(1.0).data.dtype
        a_out.set()
        made["a after"] = Tensor(1.0).data.dtype

    def b():
        a_in.wait(10)
        with ad.float64():
            b_in.set()
            a_out.wait(10)
            made["b"] = Tensor(1.0).data.dtype

    with ad.float64():
        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        made["main"] = Tensor(1.0).data.dtype
    assert not any(t.is_alive() for t in threads)
    # A new thread starts in float32 whatever the thread that started it.
    assert made == {"a": np.float64, "b": np.float64, "a after": np.float32, "main": np.float64}
    assert Tensor(1.0).data.dtype == np.float32


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


# -- tape layout and in-place writes ---------------------------------------------


def test_in_place_writes_only_into_an_operand():
    a, b = Tensor(np.ones(3)), Tensor(np.ones(3))
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(a, b, out=Tensor(np.ones(3)))
    # w's rule would read a's overwritten values.
    with pytest.raises(ValueError):
        ad.mul(a, w, out=a)
    out = ad.add(a, w, out=a)
    assert out.data is a.data and np.array_equal(out.data, [2.0, 2.0, 2.0])
    # The overwritten Tensor's rebuild would return its old values.
    m = Tensor(np.ones((2, 3, 3)), requires_grad=True)
    scores = m @ m.swap_last_axes()
    assert scores._rebuild is not None
    ad.mul(scores, 0.5, out=scores)
    assert scores._rebuild is None


def test_linear_records_one_node():
    rng = np.random.default_rng(9)
    layer = Linear(4, 3, rng)
    x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    out = layer(x)
    parents = [node for node, _ in out._node.parents]
    assert parents == [x._node, layer.weight._node, layer.bias._node]
    with ad.no_grad():
        assert layer(x)._node is None


def _tiny_batch(model, seed):
    """session_loss arguments: four sessions at per-session SNRs, with noisy feedback."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (4, model.config.k))
    snrs = rng.uniform(-1.0, 5.0, (4, model.config.rounds))
    return dict(model=model, bits=bits, snr_db_rounds=snrs, rng=rng, feedback_snr_db=20.0)


def _wrap_rebuilding_ops(monkeypatch, seen):
    """Wrap the ops that may register a rebuild; seen(kind, operands, output)
    runs as each returns."""
    def wrapped(kind, op):
        def call(*args):
            out = op(*args)
            seen(kind, args, out)
            return out
        return call

    monkeypatch.setattr(ad, "layer_norm", wrapped("layer_norm", ad.layer_norm))
    monkeypatch.setattr(ad, "gelu", wrapped("gelu", ad.gelu))
    monkeypatch.setattr(ad, "linear", wrapped("linear", ad.linear))
    monkeypatch.setattr(Tensor, "__matmul__", wrapped("matmul", Tensor.__matmul__))


def _buffer(a):
    """The array that owns a's memory: a view's buffer lives as long as it."""
    return a if a.base is None else a.base


def test_tape_keeps_only_what_backward_reads(monkeypatch):
    model = AfcModel(AfcConfig.tiny(), seed=21)
    layer_norm_inputs, gelu_inputs, rebuilt = [], [], []

    def record(kind, args, out):
        if kind == "layer_norm":
            layer_norm_inputs.append(weakref.ref(args[0].data))
        if kind == "gelu":
            gelu_inputs.append((args[0]._rebuild is not None, weakref.ref(args[0].data)))
        # The attention mixes p @ v, and the score products q @ k^T.
        if kind in ("layer_norm", "gelu") or kind == "matmul" and args[1].data.ndim > 2:
            rebuilt.append((kind, weakref.ref(_buffer(out.data))))

    _wrap_rebuilding_ops(monkeypatch, record)
    loss = session_loss(**_tiny_batch(model, seed=22))
    # Embedding outputs and residual sums enter a LayerNorm and a residual
    # add, neither of which saves them: gone once the forward returns.
    assert layer_norm_inputs and all(ref() is None for ref in layer_norm_inputs)
    # GELU reads its input through the feed-forward up-projection's rebuild;
    # only the SNR MLP's, a product of a constant input, has none and is
    # saved, alive as long as the graph is.
    assert {rebuilt for rebuilt, _ in gelu_inputs} == {True, False}
    assert all((ref() is None) == rebuilt for rebuilt, ref in gelu_inputs)
    # LayerNorm and GELU outputs and attention mixes are rebuilt when
    # backward needs them: gone once the forward returns.
    assert {kind for kind, _ in rebuilt} == {"layer_norm", "gelu", "matmul"}
    assert [kind for kind, ref in rebuilt if ref() is not None] == []
    del loss
    assert all(ref() is None for _, ref in gelu_inputs)


def test_linear_outputs_of_rebuilt_inputs_are_not_kept(monkeypatch):
    model = AfcModel(AfcConfig.tiny(), seed=30)
    # Power normalisation squares and divides the encoder's and feedback
    # generator's (B, blocks, 1) head outputs, so its rules keep those.
    heads = {id(model.enc_head.weight), id(model.fb_head.weight)}
    outputs = {True: [], False: []}

    def record(kind, args, out):
        if kind == "linear" and args[0]._rebuild is not None:
            outputs[id(args[1]) in heads].append(weakref.ref(out.data))

    _wrap_rebuilding_ops(monkeypatch, record)
    loss = session_loss(**_tiny_batch(model, seed=31))
    # q, k, v, the feed-forward up- and down-projections, the attention
    # output projections, the decoder head and the SNR MLP's second layer:
    # rebuilt when backward needs them, gone once the forward returns.
    assert outputs[False] and all(ref() is None for ref in outputs[False])
    assert outputs[True] and all(ref() is not None for ref in outputs[True])
    assert np.isfinite(loss.item())


def test_rebuilds_repeat_the_forward_bit_for_bit(monkeypatch):
    model = AfcModel(AfcConfig.tiny(), seed=27)
    rng = np.random.default_rng(28)
    # Gains away from 1 and shifts away from 0, so that arithmetic in
    # another order rounds differently.
    for _, p in model.parameters():
        p.data = (p.data + 0.5 * rng.standard_normal(p.shape)).astype(p.data.dtype)
    registered = []

    def check(kind, args, out):
        if out._rebuild is not None:
            assert np.array_equal(_bits(out._rebuild()), _bits(out.data)), kind
        if kind == "linear":
            expected = args[0]._rebuild is not None
        else:
            expected = kind != "matmul" or args[1].data.ndim > 2
        registered.append((kind, expected, out._rebuild is not None))

    _wrap_rebuilding_ops(monkeypatch, check)
    session_loss(**_tiny_batch(model, seed=29))
    # Every LayerNorm, GELU and batched product registers one, and so does a
    # Linear whose input has one; the product with its 2-D weight does not.
    assert {kind for kind, _, _ in registered} == {"layer_norm", "gelu", "matmul", "linear"}
    assert all(has == expected for _, expected, has in registered)
    assert {expected for kind, expected, _ in registered if kind == "linear"} == {True, False}
    registered.clear()
    with ad.no_grad():
        session_loss(**_tiny_batch(model, seed=29))
    assert registered and not any(has for _, _, has in registered)


def test_concat_outputs_are_not_kept(monkeypatch):
    # The embeddings' weight gradients read their concatenated inputs through
    # the concat's rebuild, which joins the message, the rounds' shared slot
    # arrays and the SNR embedding again.
    outputs = []
    concat = ad.concat

    def recorded(tensors):
        out = concat(tensors)
        outputs.append((out._rebuild is not None, weakref.ref(out.data)))
        return out

    monkeypatch.setattr(ad, "concat", recorded)
    loss = session_loss(**_tiny_batch(AfcModel(AfcConfig.tiny(), seed=34), seed=35))
    assert outputs and all(ref() is None for _, ref in outputs)
    assert all(rebuilt for rebuilt, _ in outputs)
    assert np.isfinite(loss.item())


def test_each_rebuild_runs_at_most_once_per_backward(monkeypatch):
    # A LayerNorm output feeds q, k and v and their weight gradients: without
    # the per-backward cache it would be rebuilt seven times (v twice).
    runs = []
    set_rebuild = ad._set_rebuild

    def counted(t, compute):
        i = len(runs)
        runs.append(0)

        def compute_counted():
            runs[i] += 1
            return compute()

        set_rebuild(t, compute_counted)

    monkeypatch.setattr(ad, "_set_rebuild", counted)
    loss = session_loss(**_tiny_batch(AfcModel(AfcConfig.tiny(), seed=32), seed=33))
    assert runs and not any(runs)
    loss.backward()
    assert max(runs) == 1
    loss.backward()
    assert max(runs) == 2


def test_dropped_model_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        model = AfcModel(AfcConfig.tiny(), seed=25)
        session_loss(**_tiny_batch(model, seed=26)).backward()
        weights = [weakref.ref(p.data) for _, p in model.parameters()]
        grads = [weakref.ref(p.grad) for _, p in model.parameters()]
        del model
        assert all(ref() is None for ref in weights + grads)
    finally:
        gc.enable()


def test_default_full_forward_tape_bytes():
    cfg = AfcConfig.default_full()
    model = AfcModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, (64, cfg.k))
    targets = bits_to_block_targets(bits, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = block_cross_entropy(session_graph(model, bits, np.full(cfg.rounds, 3.0), rng), targets)
        live = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        step_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    # 150.3 MB when every intermediate lived until the step ended, 81.5 MB
    # when the tape kept LayerNorm and GELU outputs and attention mixes,
    # 55.7 MB when it kept q, k, v and the feed-forward up-projections, 32.1
    # MB when the embeddings kept their (B, blocks, features) inputs; 28.2
    # MB since those are rebuilt from the inputs' parts, in float64; 14.8 MB
    # in float32.
    assert live <= 16e6, live
    # Backward adds the gradients and the outputs it rebuilds: 35.8 MB while
    # each concat's gradient slices were views of the whole; 29.9 MB in
    # float64; 15.6 MB in float32.
    assert step_peak <= 17e6, step_peak


def test_backward_twice_gives_identical_gradients():
    model = AfcModel(AfcConfig.tiny(), seed=23)
    loss = session_loss(**_tiny_batch(model, seed=24))
    loss.backward()
    first = {name: p.grad for name, p in model.parameters()}
    model.zero_grad()
    loss.backward()
    for name, p in model.parameters():
        assert np.array_equal(_bits(p.grad), _bits(first[name])), name


# -- layers against op-by-op numpy references ------------------------------------


def _sub(params, prefix):
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _prefixed(prefix, grads):
    return {prefix + k: v for k, v in grads.items()}


def linear_reference(x, p):
    w, b = p["weight"], p["bias"]

    def back(g):
        g2 = g.reshape(-1, g.shape[-1])
        return g @ w.T, {"weight": x.reshape(-1, x.shape[-1]).T @ g2, "bias": g2.sum(0)}

    return x @ w + b, back


def layer_norm_module_reference(x, p, eps=1e-5):
    gamma, beta = p["gamma"], p["beta"]

    def back(g):
        _, dx, dgamma, dbeta = layer_norm_reference(x, gamma, beta, eps, g)
        return dx, {"gamma": dgamma, "beta": dbeta}

    return layer_norm_reference(x, gamma, beta, eps, np.zeros_like(x))[0], back


def attention_reference(x, p):
    q, back_q = linear_reference(x, _sub(p, "wq."))
    k, back_k = linear_reference(x, _sub(p, "wk."))
    v, back_v = linear_reference(x, _sub(p, "wv."))
    scale = 1.0 / np.sqrt(x.shape[-1])
    s = q @ np.swapaxes(k, -1, -2) * scale
    e = np.exp(s - s.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    o = probs @ v
    y, back_o = linear_reference(o, _sub(p, "wo."))

    def back(g):
        d_o, grads = back_o(g)
        grads = _prefixed("wo.", grads)
        d_p = d_o @ np.swapaxes(v, -1, -2)
        d_v = np.swapaxes(probs, -1, -2) @ d_o
        d_s = probs * (d_p - (d_p * probs).sum(-1, keepdims=True)) * scale
        d_q = d_s @ k
        d_k = np.swapaxes(d_s, -1, -2) @ q
        d_x = 0.0
        for name, d, back_w in (("wq.", d_q, back_q), ("wk.", d_k, back_k), ("wv.", d_v, back_v)):
            dx_w, gw = back_w(d)
            d_x = d_x + dx_w
            grads.update(_prefixed(name, gw))
        # q . b_k shifts a whole score row, which softmax ignores.
        grads["wk.bias"] = np.zeros_like(grads["wk.bias"])
        return d_x, grads

    return y, back


def feed_forward_reference(x, p):
    from scipy.special import ndtr

    u, back_up = linear_reference(x, _sub(p, "up."))
    cdf = ndtr(u)
    y, back_down = linear_reference(u * cdf, _sub(p, "down."))

    def back(g):
        d_a, grads = back_down(g)
        pdf = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        d_x, g_up = back_up(d_a * (cdf + u * pdf))
        return d_x, _prefixed("down.", grads) | _prefixed("up.", g_up)

    return y, back


def transformer_layer_reference(x, p):
    h1, back_ln1 = layer_norm_module_reference(x, _sub(p, "ln1."))
    a, back_attn = attention_reference(h1, _sub(p, "attn."))
    x1 = x + a
    h2, back_ln2 = layer_norm_module_reference(x1, _sub(p, "ln2."))
    f, back_ff = feed_forward_reference(h2, _sub(p, "ff."))

    def back(g):
        d_h2, g_ff = back_ff(g)
        d_x1_ln, g_ln2 = back_ln2(d_h2)
        d_x1 = g + d_x1_ln
        d_h1, g_attn = back_attn(d_x1)
        d_x_ln, g_ln1 = back_ln1(d_h1)
        grads = _prefixed("ln1.", g_ln1) | _prefixed("attn.", g_attn)
        return d_x1 + d_x_ln, grads | _prefixed("ln2.", g_ln2) | _prefixed("ff.", g_ff)

    return x1 + f, back


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("make, reference", [
    (lambda rng: Linear(16, 32, rng), linear_reference),
    (lambda rng: SelfAttention(16, rng), attention_reference),
    (lambda rng: TransformerLayer(16, 32, rng), transformer_layer_reference),
])
def test_layers_match_op_by_op_reference(make, reference):
    rng = np.random.default_rng(8)
    module = make(rng)
    for _, p in module.parameters():
        p.data = 0.5 * rng.standard_normal(p.shape) + (1.0 if p.data.ndim == 1 else 0.0)
    x = rng.standard_normal((8, 16, 16))
    params = {name: p.data for name, p in module.parameters()}
    want, back = reference(x, params)
    g = rng.standard_normal(want.shape)
    want_dx, want_grads = back(g)

    tx = Tensor(x, requires_grad=True)
    out = module(tx)
    (out * Tensor(g)).sum().backward()
    assert rel_err(out.data, want) <= FUSED_RTOL
    assert rel_err(tx.grad, want_dx) <= FUSED_RTOL
    scale = np.abs(want_dx).max()
    assert sorted(want_grads) == sorted(params)
    for name, p in module.parameters():
        ref = want_grads[name]
        assert p.grad.shape == ref.shape, name
        # An exactly zero gradient is compared on the input gradient's scale.
        denom = np.abs(ref).max() or scale
        assert np.abs(p.grad - ref).max() <= FUSED_RTOL * denom, name
