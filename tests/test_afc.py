import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import ndtr

from fbclab import autodiff as ad
from fbclab.afc import (
    AfcConfig,
    AfcModel,
    _active_inputs,
    bits_to_block_targets,
    encoder_param_count,
    encoder_session_flops,
    feedback_window,
    load_checkpoint,
    logits_to_bits,
    save_checkpoint,
    session_graph,
    session_loss,
)
from fbclab.autodiff import Tensor
from fbclab.errors import ConfigError, NumericalFailure, ProtocolViolation
from fbclab.layers import SnrMlp


TINY = AfcConfig.tiny()


def _rand_received(rng, batch, cfg, rounds=None):
    rounds = cfg.rounds if rounds is None else rounds
    return [Tensor(rng.standard_normal((batch, cfg.num_blocks))) for _ in range(rounds)]


def _pm(bits, cfg):
    """(B, K) 0/1 bits -> the +-1 message Tensor encode_round_graph takes."""
    return Tensor(1.0 - 2.0 * np.asarray(bits).reshape(-1, cfg.num_blocks, cfg.block_size))


def _embed(model, snr_db):
    with ad.no_grad():
        return model.snr_embed_graph(snr_db).data


# -- SNR embedding -------------------------------------------------------------


def test_snr_embedding_hand_computed_at_zero():
    rng = np.random.default_rng(0)
    mlp = SnrMlp(2, rng)
    w1 = np.array([[0.5, -1.0]])
    b1 = np.array([0.25, 0.75])
    w2 = np.array([[1.0, 2.0], [-0.5, 0.0]])
    b2 = np.array([0.1, -0.2])
    mlp.fc1.weight.data, mlp.fc1.bias.data = w1, b1
    mlp.fc2.weight.data, mlp.fc2.bias.data = w2, b2
    out = mlp(Tensor(np.array([[0.0]]))).data[0]
    hidden = b1 * ndtr(b1)  # gelu of the bias path
    assert np.allclose(out, hidden @ w2 + b2, atol=1e-12)


def test_snr_embedding_deterministic_and_shared():
    model = AfcModel(TINY, seed=1)
    a = _embed(model, 3.0)
    assert np.array_equal(a, _embed(model, 3.0))
    assert a.shape == (1, 1, TINY.snr_emb_dim)
    # one embedding per session, each the one its SNR alone gets
    batch = _embed(model, np.array([3.0, -1.0, 3.0]))
    assert batch.shape == (3, 1, TINY.snr_emb_dim)
    assert np.allclose(batch[[0, 2]], a, rtol=1e-12, atol=0)
    assert np.allclose(batch[1], _embed(model, -1.0), rtol=1e-12, atol=0)


def test_snr_embedding_lipschitz_bound():
    model = AfcModel(TINY, seed=2)
    w1 = model.snr_mlp.fc1.weight.data
    w2 = model.snr_mlp.fc2.weight.data
    gelu_lip = 1.13  # max |d gelu/dx| is about 1.084
    lip = np.linalg.norm(w1, 2) * gelu_lip * np.linalg.norm(w2, 2)
    eps = 1e-3
    for gamma in (-5.0, 0.0, 4.2):
        d = np.linalg.norm(_embed(model, gamma + eps) - _embed(model, gamma))
        assert d <= lip * eps * (1 + 1e-6)


def test_snr_embedding_rejects_nonfinite():
    model = AfcModel(TINY, seed=0)
    bits = np.zeros((2, TINY.k), dtype=np.int64)
    for bad in (np.nan, np.inf, -np.inf):
        one_bad_round = np.zeros((2, TINY.rounds))
        one_bad_round[1, 3] = bad
        for snrs in (np.full(TINY.rounds, bad), one_bad_round):
            with pytest.raises(NumericalFailure, match="uplink SNRs must be finite"):
                session_graph(model, bits, snrs, np.random.default_rng(0))


# -- encoder -------------------------------------------------------------------


def test_zero_weights_give_message_independent_codeword():
    model = AfcModel(TINY, seed=3)
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)
    rng = np.random.default_rng(4)
    out = []
    for _ in range(2):
        bits_pm = _pm(rng.integers(0, 2, (1, TINY.k)), TINY)
        with ad.no_grad():
            out.append(model.encode_round_graph(0, bits_pm, [], [], 1.0).data)
    assert np.array_equal(out[0], out[1])


def test_lag_masking_mutation_invariance():
    cfg = AfcConfig.tiny(rounds=6)
    model = AfcModel(cfg, seed=5)
    rng = np.random.default_rng(6)
    t = 4
    bits_pm = Tensor(1.0 - 2.0 * rng.integers(0, 2, (2, cfg.num_blocks, cfg.block_size)))
    past = [Tensor(rng.standard_normal((2, cfg.num_blocks))) for _ in range(t)]
    legal = {i: Tensor(rng.standard_normal((2, cfg.num_blocks))) for i in range(t - cfg.feedback_lag + 1)}
    base = model.encode_round_graph(t, bits_pm, past, legal, 0.0).data
    # arbitrary mutations of feedback newer than t - L change nothing
    mutated = dict(legal)
    mutated[t - 1] = Tensor(1e6 * np.ones((2, cfg.num_blocks)))
    mutated[t] = Tensor(-1e6 * np.ones((2, cfg.num_blocks)))
    out = model.encode_round_graph(t, bits_pm, past, mutated, 0.0).data
    assert np.array_equal(base, out)


def test_power_normalization_contract():
    model = AfcModel(TINY, seed=7)
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, (32, TINY.k))
    logits = session_graph(model, bits, np.zeros(TINY.rounds), rng)
    assert logits.shape == (32, TINY.num_blocks, TINY.classes)
    # re-run and capture one round's codeword power through the state API
    bits_pm = Tensor(1.0 - 2.0 * bits.reshape(32, TINY.num_blocks, TINY.block_size))
    cw = model.encode_round_graph(0, bits_pm, [], {}, 0.0)
    power = float((cw.data**2).mean())
    assert 0.9 <= power <= 1.1


def test_sparse_window_jacobian_outside_is_zero():
    cfg = AfcConfig.tiny(rounds=6, sparse_ff_window=1)
    model = AfcModel(cfg, seed=9)
    rng = np.random.default_rng(10)
    t = 5  # newest usable fb = 3, window keeps {2, 3}, so round 0..1 are dark
    bits_pm = Tensor(1.0 - 2.0 * rng.integers(0, 2, (1, cfg.num_blocks, cfg.block_size)))
    past = [Tensor(rng.standard_normal((1, cfg.num_blocks))) for _ in range(t)]
    fb = [
        Tensor(rng.standard_normal((1, cfg.num_blocks)), requires_grad=True)
        for _ in range(t - cfg.feedback_lag + 1)
    ]
    out = model.encode_round_graph(t, bits_pm, past, fb, 0.0)
    (out * out).sum().backward()
    assert fb[0].grad is None
    assert fb[1].grad is None
    assert fb[2].grad is not None and np.abs(fb[2].grad).max() > 0
    assert fb[3].grad is not None and np.abs(fb[3].grad).max() > 0


def test_unconsumable_feedback_slot_weights_get_zero_grad():
    cfg = AfcConfig.tiny()  # rounds=5, lag=2 -> slots 3..(rounds-2) never usable
    model = AfcModel(cfg, seed=11)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, (4, cfg.k))
    session_loss(model, bits, np.zeros(cfg.rounds), rng).backward()
    g = model.enc_embed.weight.grad
    fb_slot_base = cfg.block_size + (cfg.rounds - 1)
    usable = cfg.rounds - 1 - cfg.feedback_lag
    for tau in range(cfg.rounds - 1):
        row = g[fb_slot_base + tau]
        if tau > usable:
            assert np.all(row == 0.0), f"slot {tau} should be structurally dark"
        else:
            assert np.abs(row).max() > 0


def test_round_and_state_validation():
    model = AfcModel(TINY, seed=13)
    bits_pm = _pm(np.zeros((1, TINY.k)), TINY)
    zeros = Tensor(np.zeros((1, TINY.num_blocks)))
    with pytest.raises(ProtocolViolation, match="outside"):
        model.encode_round_graph(TINY.rounds, bits_pm, [zeros] * TINY.rounds, [], 0.0)
    with pytest.raises(ProtocolViolation, match="past codewords"):
        model.encode_round_graph(1, bits_pm, [], [], 0.0)
    with pytest.raises(ProtocolViolation, match="receptions"):
        model.generate_feedback_graph(2, [zeros] * 2, 0.0)
    with pytest.raises(ProtocolViolation, match="receptions"):
        model.decode_graph([zeros] * (TINY.rounds - 1), [0.0])


def test_feedback_generator_contract():
    model = AfcModel(TINY, seed=30)
    rng = np.random.default_rng(31)
    received = [rng.standard_normal((1, TINY.num_blocks)) for _ in range(3)]

    def feedback(scale=1.0):
        with ad.no_grad():
            emb = model.snr_embed_graph(1.5)
            return model.generate_feedback_graph(2, [Tensor(scale * r) for r in received], emb).data

    fb = feedback()
    assert fb.shape == (1, TINY.num_blocks)
    assert 0.9 <= (fb**2).mean() <= 1.1
    assert np.array_equal(fb, feedback())
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)
    assert np.array_equal(feedback(), feedback(3.0))


def test_wrong_message_length_rejected():
    model = AfcModel(TINY, seed=32)
    for bits in (np.zeros((2, TINY.k + 1), dtype=int), np.zeros(TINY.k, dtype=int)):
        with pytest.raises(ProtocolViolation, match="bits must be"):
            session_graph(model, bits, np.zeros(TINY.rounds), np.random.default_rng(0))


# -- decoder -------------------------------------------------------------------


def test_block_permutation_equivariance():
    model = AfcModel(TINY, seed=14)  # no positional parameters by default
    rng = np.random.default_rng(15)
    received = _rand_received(rng, 2, TINY)
    embs = [model.snr_embed_graph(snr) for snr in (0.0, 2.0, -1.0, 4.0, 1.0)]
    logits = model.decode_graph(received, embs).data
    perm = np.array([2, 0, 3, 1])
    permuted = [Tensor(r.data[:, perm]) for r in received]
    logits_p = model.decode_graph(permuted, embs).data
    assert np.allclose(logits_p, logits[:, perm], atol=1e-12)


def test_argmax_invariant_to_constant_logit_shift():
    rng = np.random.default_rng(16)
    logits = rng.standard_normal((3, 4, 8))
    shifted = logits + 7.5
    assert np.array_equal(logits_to_bits(logits), logits_to_bits(shifted))


def test_block_bit_mappings_round_trip():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, (5, TINY.k))
    targets = bits_to_block_targets(bits, TINY)
    assert targets.shape == (5, TINY.num_blocks)
    # The loss's class order and the PER readout agree: one-hot logits on
    # each block's target read back as the block's bits.
    one_hot = np.eye(2**TINY.block_size)[targets]
    assert np.array_equal(logits_to_bits(one_hot), bits)


def test_smoke_training_beats_random_guessing():
    from fbclab.training import CurriculumConfig, TrainConfig, train

    cfg = AfcConfig.tiny()
    model = AfcModel(cfg, seed=18)
    train(
        model,
        CurriculumConfig(),
        TrainConfig(steps=200, batch_size=32, seed=18, noiseless_uplink=True, fixed_snr_db=5.0),
    )
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, (256, cfg.k))
    with ad.no_grad():
        logits = session_graph(model, bits, np.full(cfg.rounds, 5.0), rng, noiseless_uplink=True)
    targets = bits_to_block_targets(bits, cfg)
    accuracy = (logits.data.argmax(axis=-1) == targets).mean()
    assert accuracy > 1.0 / cfg.classes + 0.1


# -- session engine --------------------------------------------------------------


@pytest.mark.parametrize("cfg", [AfcConfig.default_full(), AfcConfig.default_light()])
def test_session_embeds_each_snr_once_per_side(monkeypatch, cfg):
    # The transmitter embeds its round's SNR; the receiver embeds each round's
    # SNR once for its feedback generator and its decoder.
    calls = [0]
    embed = AfcModel.snr_embed_graph

    def counted(self, snr_db):
        calls[0] += 1
        return embed(self, snr_db)

    monkeypatch.setattr(AfcModel, "snr_embed_graph", counted)
    rng = np.random.default_rng(0)
    with ad.no_grad():
        session_graph(AfcModel(cfg, seed=0), rng.integers(0, 2, (2, cfg.k)), np.zeros(cfg.rounds), rng)
    assert calls[0] == 2 * cfg.rounds == 18


def test_per_sample_snr_matrix_matches_shared_grid():
    cfg = AfcConfig.tiny()
    model = AfcModel(cfg, seed=24)
    rng1, rng2 = np.random.default_rng(25), np.random.default_rng(25)
    bits = np.random.default_rng(26).integers(0, 2, (4, cfg.k))
    shared = session_graph(model, bits, np.full(cfg.rounds, 3.0), rng1)
    matrix = session_graph(model, bits, np.full((4, cfg.rounds), 3.0), rng2)
    assert np.allclose(shared.data, matrix.data)


# -- complexity and checkpoints --------------------------------------------------


def _measured_encoder_flops(monkeypatch, config, sessions=4):
    """2 x the matmul MACs made inside encode_round_graph, per session."""
    depth, macs = [0], [0]
    encode, matmul = AfcModel.encode_round_graph, Tensor.__matmul__

    def counted_encode(*args, **kwargs):
        depth[0] += 1
        try:
            return encode(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_matmul(a, b):
        if depth[0]:
            b_shape = b.data.shape if isinstance(b, Tensor) else np.shape(b)
            batch = int(np.prod(np.broadcast_shapes(a.data.shape[:-2], b_shape[:-2])))
            macs[0] += batch * a.data.shape[-2] * a.data.shape[-1] * b_shape[-1]
        return matmul(a, b)

    monkeypatch.setattr(AfcModel, "encode_round_graph", counted_encode)
    monkeypatch.setattr(Tensor, "__matmul__", counted_matmul)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (sessions, config.k))
    with ad.no_grad():
        session_graph(
            AfcModel(config, seed=0), bits, np.full((sessions, config.rounds), 4.0), rng
        )
    return 2 * macs[0] / sessions


@pytest.mark.parametrize(
    "cfg, analytic",
    [(AfcConfig.default_full(), 1604384), (AfcConfig.default_light(), 285984)],
)
def test_counted_encoder_macs_match_analytic_flops(monkeypatch, cfg, analytic):
    # The input embedding multiplies only the present slots' columns, so the
    # encoder runs exactly the MACs the analytic count states. Before the
    # structured projection it also multiplied the zero columns: 1645344 and
    # 309024 FLOPs per session.
    assert encoder_session_flops(cfg) == analytic
    assert _measured_encoder_flops(monkeypatch, cfg) == analytic


def test_active_inputs_follow_the_feedback_window():
    for lag in (1, 2, 3, 9, 12):
        for window in (None, 0, 1, 2, 5):
            cfg = AfcConfig(feedback_lag=lag, sparse_ff_window=window)
            for t in range(cfg.rounds):
                fb = feedback_window(cfg, t)
                oldest = 0 if window is None else t - lag - window
                assert list(fb) == [tau for tau in range(cfg.rounds) if oldest <= tau <= t - lag]
                assert _active_inputs(cfg, t) == cfg.block_size + t + len(fb) + cfg.snr_emb_dim


def test_doubling_width_predicted_exactly():
    base = AfcConfig.tiny()
    double = AfcConfig.tiny(d_model=base.d_model * 2, ff_dim=base.ff_dim * 2)
    predicted = encoder_param_count(double)
    model = AfcModel(double, seed=0)
    enum = sum(p.size for n, p in model.parameters() if n.startswith(("snr_mlp", "enc_")))
    assert predicted == enum


def test_single_linear_layer_accounting():
    # a x b linear with bias: a*b + b params, 2*a*b flops per application
    from fbclab.afc import _linear_params

    assert _linear_params(7, 3) == 7 * 3 + 3


def test_config_validation():
    with pytest.raises(ConfigError):
        AfcConfig(enc_layers=5, dec_layers=2)
    with pytest.raises(ConfigError):
        AfcConfig(sparse_ff_window=-1)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = AfcModel(TINY, seed=27)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    assert clone.config == model.config
    for (n1, p1), (n2, p2) in zip(model.parameters(), clone.parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()
    save_checkpoint(clone, tmp_path / "again.ckpt")
    assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()



def test_checkpoint_of_float64_weights_loads_as_float32(tmp_path):
    with ad.float64():
        model = AfcModel(TINY, seed=27)
    save_checkpoint(model, tmp_path / "f64.ckpt")
    clone = load_checkpoint(tmp_path / "f64.ckpt")
    for (_, p64), (_, p32) in zip(model.parameters(), clone.parameters()):
        assert p64.data.dtype == np.float64 and p32.data.dtype == np.float32
        assert np.array_equal(p32.data, p64.data.astype(np.float32))
    # From there on the weights are float32 values, which float64 holds exactly.
    save_checkpoint(clone, tmp_path / "a.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.ckpt").read_bytes() != (tmp_path / "f64.ckpt").read_bytes()

def test_checkpoint_corruption_detected(tmp_path):
    model = AfcModel(TINY, seed=28)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ConfigError):
        load_checkpoint(__file__)
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ConfigError):
        load_checkpoint(truncated)
    padded = tmp_path / "long.ckpt"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ConfigError):
        load_checkpoint(padded)
    # The 12-byte magic and fewer than the 4 length bytes after it.
    for keep in (12, 13, 15):
        truncated.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ConfigError, match="truncated in the header"):
            load_checkpoint(truncated)


def _sealed(body: bytes) -> bytes:
    """A checkpoint's bytes before its digest, followed by their SHA-256."""
    return body + hashlib.sha256(body).digest()


def test_checkpoint_config_errors_name_the_key(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(AfcModel(TINY, seed=29), path)
    raw = path.read_bytes()
    head = len(b"FBCLAB-CKPT\x02")
    (size,) = struct.unpack("<I", raw[head:head + 4])
    config = json.loads(raw[head + 4:head + 4 + size])
    weights = raw[head + 4 + size:-32]

    def with_config(blob: bytes):
        # The edited config, then the digest sealed again over it.
        edited = tmp_path / "edited.ckpt"
        edited.write_bytes(_sealed(raw[:head] + struct.pack("<I", len(blob)) + blob + weights))
        return edited

    assert load_checkpoint(with_config(json.dumps(config).encode())).config == TINY
    with pytest.raises(ConfigError, match=r"^checkpoint\.config\.old_key: unknown key$"):
        load_checkpoint(with_config(json.dumps({**config, "old_key": 1}).encode()))
    with pytest.raises(ConfigError, match=r"^checkpoint\.config\.d_model: expected int"):
        load_checkpoint(with_config(json.dumps({**config, "d_model": "8"}).encode()))
    with pytest.raises(ConfigError, match=r"^checkpoint\.config\.d_model: must be >= 1, got 0$"):
        load_checkpoint(with_config(json.dumps({**config, "d_model": 0}).encode()))
    with pytest.raises(ConfigError, match=r"^checkpoint\.config\.fb_layers: must be >= 1, got 0$"):
        load_checkpoint(with_config(json.dumps({**config, "fb_layers": 0}).encode()))
    with pytest.raises(ConfigError, match=r"^checkpoint\.config: invalid JSON"):
        load_checkpoint(with_config(b'{"block_size": 3,'))
    with pytest.raises(ConfigError, match=r"^checkpoint\.config: expected an object"):
        load_checkpoint(with_config(b"[3]"))


@pytest.mark.parametrize("where", ["weight", "config", "digest"])
def test_checkpoint_flipped_bit_detected(where, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(AfcModel(TINY, seed=30), path)
    raw = bytearray(path.read_bytes())
    (size,) = struct.unpack("<I", raw[12:16])
    start = 16 + size
    middle = start + (len(raw) - 32 - start) // 16 * 8
    # The exponent byte of the middle weight, a byte of the config echo, or
    # the last byte of the digest.
    index = {"weight": middle + 7, "config": 20, "digest": -1}[where]
    raw[index] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="^checkpoint digest mismatch"):
        load_checkpoint(path)


def test_checkpoint_format_version_one_named(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(AfcModel(TINY, seed=31), path)
    # Version 1 had the same layout with version byte 1 and no digest.
    path.write_bytes(b"FBCLAB-CKPT\x01" + path.read_bytes()[12:-32])
    with pytest.raises(
        ConfigError, match=r"^checkpoint format version 1: this build reads version 2$"
    ):
        load_checkpoint(path)


def test_checkpoint_built_from_the_documented_layout_loads_bit_exact(tmp_path):
    # The README's layout: magic and version byte, the config echo's length
    # as a little-endian u32, the echo, every weight as little-endian float64
    # in declaration order, then the SHA-256 of all bytes before it.
    model = AfcModel(TINY, seed=32)
    echo = json.dumps(asdict(TINY)).encode()
    weights = b"".join(p.data.astype("<f8").tobytes() for _, p in model.parameters())
    path = tmp_path / "by_hand.ckpt"
    path.write_bytes(_sealed(b"FBCLAB-CKPT\x02" + struct.pack("<I", len(echo)) + echo + weights))
    clone = load_checkpoint(path)
    assert clone.config == TINY
    for (n1, p1), (n2, p2) in zip(model.parameters(), clone.parameters()):
        assert n1 == n2 and p1.data.tobytes() == p2.data.tobytes()
    # A sealed file whose weights do not fill its config.
    path.write_bytes(_sealed(b"FBCLAB-CKPT\x02" + struct.pack("<I", len(echo)) + echo + weights[:-8]))
    needed = len(weights)
    with pytest.raises(
        ConfigError, match=rf"^checkpoint holds {needed - 8} weight bytes, its config needs {needed}$"
    ):
        load_checkpoint(path)
