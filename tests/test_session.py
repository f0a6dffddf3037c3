"""The session protocol on its one engine, afc.session_graph.

Round t's encoder may use feedback from rounds <= t - L only (L = 1 is the
synchronous setting, L = 2 the default pipelined one), and with a sparse
window only the newest window + 1 of those. encode_round_graph masks every
other feedback slot before it enters the graph; session_graph feeds it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbclab import autodiff as ad
from fbclab.afc import AfcConfig, AfcModel, session_graph
from fbclab.autodiff import Tensor


def _pm(rng, batch, cfg):
    return Tensor(1.0 - 2.0 * rng.integers(0, 2, (batch, cfg.num_blocks, cfg.block_size)))


def _recorded_session(cfg, seed, **kwargs):
    """Run session_graph and return, per round, the feedback list the encoder
    got and the feedback tensor generated after that round (None if none)."""
    model = AfcModel(cfg, seed=seed)
    encode, generate = model.encode_round_graph, model.generate_feedback_graph
    given_fb, generated = [], [None] * cfg.rounds

    def encode_recording(t, bits_pm, past, feedback, snr_db):
        given_fb.append(list(feedback))
        return encode(t, bits_pm, past, feedback, snr_db)

    def generate_recording(t, received, snr_db):
        generated[t] = generate(t, received, snr_db)
        return generated[t]

    model.encode_round_graph = encode_recording
    model.generate_feedback_graph = generate_recording
    rng = np.random.default_rng(seed)
    with ad.no_grad():
        session_graph(model, rng.integers(0, 2, (3, cfg.k)), np.full(cfg.rounds, 5.0), rng, **kwargs)
    return given_fb, generated


def test_synchronous_lag_echoes_previous_round():
    cfg = AfcConfig.tiny(rounds=4, feedback_lag=1)
    given_fb, generated = _recorded_session(cfg, seed=0)
    # with L = 1 and ideal feedback, round t gets exactly what round t-1 fed back
    assert given_fb[0] == []
    for t in range(1, cfg.rounds):
        assert len(given_fb[t]) == t
        assert given_fb[t][-1] is generated[t - 1]
    # and feedback after the last round is never generated
    assert generated[-1] is None

    noisy_fb, noisy_gen = _recorded_session(cfg, seed=0, feedback_snr_db=20.0)
    for t in range(1, cfg.rounds):
        assert noisy_fb[t][-1] is not noisy_gen[t - 1]
        assert noisy_fb[t][-1].shape == noisy_gen[t - 1].shape


def test_lag_two_consumed_rounds():
    cfg = AfcConfig.tiny(rounds=9, feedback_lag=2)
    model = AfcModel(cfg, seed=1)
    rng = np.random.default_rng(1)
    bits_pm = _pm(rng, 1, cfg)
    past = [Tensor(rng.standard_normal((1, cfg.num_blocks))) for _ in range(cfg.rounds)]
    for t in range(cfg.rounds):
        fb = [
            Tensor(rng.standard_normal((1, cfg.num_blocks)), requires_grad=True)
            for _ in range(cfg.rounds - 1)
        ]
        out = model.encode_round_graph(t, bits_pm, past[:t], fb, 0.0)
        (out * out).sum().backward()
        consumed = [tau for tau, f in enumerate(fb) if f.grad is not None and np.abs(f.grad).max() > 0]
        assert consumed == list(range(0, t - 1))


def test_lag_equal_to_horizon_sees_no_feedback():
    cfg = AfcConfig.tiny(rounds=5, feedback_lag=5)
    given_fb, generated = _recorded_session(cfg, seed=2, feedback_snr_db=20.0)
    assert given_fb == [[]] * cfg.rounds
    assert generated == [None] * cfg.rounds


@settings(max_examples=200, deadline=None)
@given(
    rounds=st.integers(1, 6),
    lag=st.integers(1, 7),
    window=st.none() | st.integers(0, 3),
    data=st.data(),
    seed=st.integers(0, 1000),
)
def test_lag_enforcement_property(rounds, lag, window, data, seed):
    cfg = AfcConfig.tiny(rounds=rounds, feedback_lag=lag, sparse_ff_window=window)
    t = data.draw(st.integers(0, rounds - 1), label="t")
    model = AfcModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    bits_pm = _pm(rng, 2, cfg)
    past = [Tensor(rng.standard_normal((2, cfg.num_blocks))) for _ in range(t)]
    feedback = [Tensor(rng.standard_normal((2, cfg.num_blocks))) for _ in range(rounds - 1)]
    newest = t - lag
    oldest = 0 if window is None else newest - window
    # every slot the encoder may not read carries an absurd value instead
    poisoned = [
        f if oldest <= tau <= newest else Tensor(np.full((2, cfg.num_blocks), (-1) ** tau * 1e9))
        for tau, f in enumerate(feedback)
    ]
    with ad.no_grad():
        clean = model.encode_round_graph(t, bits_pm, past, feedback, 1.0).data
        dirty = model.encode_round_graph(t, bits_pm, past, poisoned, 1.0).data
    assert clean.tobytes() == dirty.tobytes()
