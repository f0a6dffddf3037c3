"""Attention-based feedback codec with SNR conditioning.

The message is split into blocks of m bits; each round the encoder emits one
real symbol per block (M = num_blocks symbols), conditioning on the message,
its own past codewords, the feedback received up to round t - L, and an
embedding of the current SNR. The decoder returns one feedback symbol per
block after each reception and decodes all blocks jointly after the last
round. A lightweight encoder variant shrinks the encoder stack and feature
width and restricts how far back in the feedback history the encoder looks
(the sparse window), while the decoder keeps its full capacity.

Feedback newer than t - L, and older than the sparse window when one is set,
is replaced by zeros before it enters the graph, so encoder outputs are
structurally independent of it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import noise_sigma
from .errors import ConfigError, NumericalFailure, ProtocolViolation
from .layers import Linear, Module, SnrMlp, TransformerStack
from .results import atomic_write

_CKPT_MAGIC = b"FBCLAB-CKPT\x01"
_NORM_EPS = 1e-8


@dataclass
class AfcConfig:
    block_size: int = 3
    num_blocks: int = 16
    rounds: int = 9
    feedback_lag: int = 2
    d_model: int = 16
    ff_dim: int = 32
    enc_layers: int = 2
    dec_layers: int = 4
    fb_layers: int = 2
    snr_emb_dim: int = 16
    lightweight: bool = False
    sparse_ff_window: int | None = None
    use_positions: bool = False

    def __post_init__(self):
        if self.block_size < 1 or self.num_blocks < 1:
            raise ConfigError("block_size and num_blocks must be >= 1")
        if self.rounds < 1 or self.feedback_lag < 1:
            raise ConfigError("rounds and feedback_lag must be >= 1")
        if self.effective_enc_layers > self.dec_layers:
            raise ConfigError("encoder depth must not exceed decoder depth")
        if self.sparse_ff_window is not None and self.sparse_ff_window < 0:
            raise ConfigError("sparse_ff_window must be >= 0")

    # -- derived sizes -------------------------------------------------------

    @property
    def k(self) -> int:
        return self.block_size * self.num_blocks

    @property
    def classes(self) -> int:
        return 2 ** self.block_size

    @property
    def symbols_per_round(self) -> int:
        return self.num_blocks

    @property
    def blocklength(self) -> int:
        return self.rounds * self.num_blocks

    # The lightweight variant halves the encoder stack; the decoder is shared.
    @property
    def enc_d_model(self) -> int:
        return max(2, self.d_model // 2) if self.lightweight else self.d_model

    @property
    def enc_ff_dim(self) -> int:
        return max(2, self.ff_dim // 2) if self.lightweight else self.ff_dim

    @property
    def effective_enc_layers(self) -> int:
        return max(1, self.enc_layers // 2) if self.lightweight else self.enc_layers

    @property
    def enc_in_dim(self) -> int:
        return self.block_size + 2 * (self.rounds - 1) + self.snr_emb_dim

    @property
    def dec_in_dim(self) -> int:
        return self.rounds + self.snr_emb_dim

    # -- factories -----------------------------------------------------------

    @classmethod
    def default_full(cls) -> "AfcConfig":
        return cls()

    @classmethod
    def default_light(cls) -> "AfcConfig":
        return cls(lightweight=True, sparse_ff_window=2)

    @classmethod
    def tiny(cls, **overrides) -> "AfcConfig":
        """Small configuration for gradient checks and smoke training."""
        base = dict(
            block_size=3,
            num_blocks=4,
            rounds=5,
            feedback_lag=2,
            d_model=8,
            ff_dim=12,
            enc_layers=1,
            dec_layers=2,
            fb_layers=1,
            snr_emb_dim=4,
        )
        base.update(overrides)
        return cls(**base)


class AfcModel(Module):
    def __init__(self, config: AfcConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        c = config

        self.snr_mlp = SnrMlp(c.snr_emb_dim, rng)

        self.enc_embed = Linear(c.enc_in_dim, c.enc_d_model, rng)
        self.enc_stack = TransformerStack(
            c.enc_d_model, c.enc_ff_dim, c.effective_enc_layers, rng
        )
        self.enc_head = Linear(c.enc_d_model, 1, rng)
        if c.use_positions:
            self.enc_pos = Tensor(
                0.02 * rng.standard_normal((c.num_blocks, c.enc_d_model)),
                requires_grad=True,
            )

        self.fb_embed = Linear(c.dec_in_dim, c.d_model, rng)
        self.fb_stack = TransformerStack(c.d_model, c.ff_dim, c.fb_layers, rng)
        self.fb_head = Linear(c.d_model, 1, rng)

        self.dec_embed = Linear(c.dec_in_dim, c.d_model, rng)
        self.dec_stack = TransformerStack(c.d_model, c.ff_dim, c.dec_layers, rng)
        self.dec_head = Linear(c.d_model, c.classes, rng)

    # -- graph-level API (Tensor in, Tensor out) -----------------------------

    def snr_embed_graph(self, snr_db) -> Tensor:
        """(B, 1) or scalar SNR in dB -> (B, 1, emb) embedding."""
        arr = np.asarray(snr_db, dtype=float).reshape(-1, 1, 1)
        return self.snr_mlp(Tensor(arr))

    def encode_round_graph(
        self,
        t: int,
        bits_pm: Tensor,
        past_codewords: list[Tensor],
        feedback: dict[int, Tensor] | list[Tensor],
        snr_db,
    ) -> Tensor:
        """Emit the round-t codeword, (B, num_blocks).

        bits_pm is the +-1 mapped message, (B, num_blocks, block_size).
        past_codewords[tau] and feedback[tau] are (B, num_blocks). Feedback
        outside [t - L - window, t - L] never enters the graph.
        """
        c = self.config
        if not 0 <= t < c.rounds:
            raise ProtocolViolation(f"round {t} outside 0..{c.rounds - 1}")
        if len(past_codewords) < t:
            raise ProtocolViolation(
                f"round {t} needs {t} past codewords, got {len(past_codewords)}"
            )
        batch = bits_pm.shape[0]
        fb_map = (
            {i: f for i, f in enumerate(feedback)}
            if isinstance(feedback, (list, tuple))
            else dict(feedback)
        )

        newest = t - c.feedback_lag
        oldest = 0
        if c.sparse_ff_window is not None:
            oldest = max(0, newest - c.sparse_ff_window)

        zeros = Tensor(np.zeros((batch, c.num_blocks, 1)))
        cw_slots = [
            past_codewords[tau].reshape(batch, c.num_blocks, 1) if tau < t else zeros
            for tau in range(c.rounds - 1)
        ]
        fb_slots = [
            fb_map[tau].reshape(batch, c.num_blocks, 1)
            if oldest <= tau <= newest and tau in fb_map
            else zeros
            for tau in range(c.rounds - 1)
        ]
        emb = self.snr_embed_graph(snr_db) + Tensor(
            np.zeros((batch, c.num_blocks, c.snr_emb_dim))
        )

        q = ad.concat([bits_pm] + cw_slots + fb_slots + [emb], axis=-1)
        x = self.enc_embed(q)
        if c.use_positions:
            x = x + self.enc_pos
        x = self.enc_stack(x)
        sym = self.enc_head(x).reshape(batch, c.num_blocks)
        return power_normalize(sym)

    def _dec_features(self, received: list[Tensor], snr_db, batch: int) -> Tensor:
        c = self.config
        zeros = Tensor(np.zeros((batch, c.num_blocks, 1)))
        slots = [
            received[tau].reshape(batch, c.num_blocks, 1) if tau < len(received) else zeros
            for tau in range(c.rounds)
        ]
        emb = self.snr_embed_graph(snr_db) + Tensor(
            np.zeros((batch, c.num_blocks, c.snr_emb_dim))
        )
        return ad.concat(slots + [emb], axis=-1)

    def generate_feedback_graph(self, t: int, received: list[Tensor], snr_db) -> Tensor:
        """Feedback symbols after reception t, (B, num_blocks)."""
        if len(received) != t + 1:
            raise ProtocolViolation(
                f"feedback for round {t} needs receptions 0..{t}, got {len(received)}"
            )
        batch = received[0].shape[0]
        q = self._dec_features(received, snr_db, batch)
        x = self.fb_stack(self.fb_embed(q))
        fb = self.fb_head(x).reshape(batch, self.config.num_blocks)
        return power_normalize(fb)

    def decode_graph(self, received: list[Tensor], snr_db_rounds) -> Tensor:
        """Per-block class logits after all rounds, (B, num_blocks, 2^m)."""
        c = self.config
        if len(received) != c.rounds:
            raise ProtocolViolation(
                f"final decode needs {c.rounds} receptions, got {len(received)}"
            )
        batch = received[0].shape[0]
        # One shared conditioning vector: the mean embedding over the trace.
        # Accepts one SNR per round, (rounds,), or per sample, (B, rounds).
        snrs = np.atleast_1d(np.asarray(snr_db_rounds, dtype=float))
        per_round = [snrs[..., t] for t in range(snrs.shape[-1])]
        embs = [self.snr_embed_graph(s) for s in per_round]
        emb = embs[0]
        for e in embs[1:]:
            emb = emb + e
        emb = emb * (1.0 / len(embs))
        zeros = Tensor(np.zeros((batch, c.num_blocks, 1)))
        slots = [
            received[tau].reshape(batch, c.num_blocks, 1) if tau < len(received) else zeros
            for tau in range(c.rounds)
        ]
        emb = emb + Tensor(np.zeros((batch, c.num_blocks, c.snr_emb_dim)))
        q = ad.concat(slots + [emb], axis=-1)
        x = self.dec_stack(self.dec_embed(q))
        return self.dec_head(x)


def power_normalize(sym: Tensor) -> Tensor:
    """Scale symbols so the batch-mean per-symbol power is 1."""
    power = (sym * sym).mean()
    return sym / ad.sqrt(power + _NORM_EPS)


# -- bit/block conversions ----------------------------------------------------


def _bits_to_pm_blocks(bits: np.ndarray, config: AfcConfig) -> np.ndarray:
    """(B, K) 0/1 bits -> (B, num_blocks, m) antipodal features."""
    b = np.asarray(bits, dtype=float).reshape(-1, config.num_blocks, config.block_size)
    return 1.0 - 2.0 * b


def bits_to_block_targets(bits: np.ndarray, config: AfcConfig) -> np.ndarray:
    """(B, K) bits -> (B, num_blocks) class indices, MSB first inside a block."""
    b = np.asarray(bits, dtype=np.int64).reshape(-1, config.num_blocks, config.block_size)
    weights = 1 << np.arange(config.block_size - 1, -1, -1)
    return (b * weights).sum(axis=-1)


def block_targets_to_bits(targets: np.ndarray, config: AfcConfig) -> np.ndarray:
    t = np.asarray(targets, dtype=np.int64)
    shifts = np.arange(config.block_size - 1, -1, -1)
    bits = (t[..., None] >> shifts) & 1
    return bits.reshape(t.shape[0], -1)


def logits_to_bits(logits: np.ndarray) -> np.ndarray:
    """(B, num_blocks, 2^m) logits -> (B, K) hard bits via per-block argmax."""
    n_classes = logits.shape[-1]
    m = int(np.log2(n_classes))
    idx = logits.argmax(axis=-1)
    shifts = np.arange(m - 1, -1, -1)
    bits = (idx[..., None] >> shifts) & 1
    return bits.reshape(logits.shape[0], -1)


# -- end-to-end differentiable session ----------------------------------------


def session_graph(
    model: AfcModel,
    bits: np.ndarray,
    snr_db_rounds: np.ndarray,
    rng: np.random.Generator,
    noiseless_uplink: bool = False,
    noiseless_feedback: bool = True,
    feedback_snr_db: float = 20.0,
) -> Tensor:
    """Run a whole batched session inside the autodiff graph.

    This is the lab's one session engine: training, PER sweeps and the
    benchmark all run it. Round t's encoder is handed every feedback
    reception so far, and encode_round_graph masks all but rounds
    t - L - window .. t - L. Noise enters additively as constants, so
    gradients flow through the channel to every round's encoder and feedback
    generator. A non-finite uplink SNR, or feedback SNR on a noisy feedback
    channel, raises NumericalFailure. Returns the final per-block logits,
    (B, num_blocks, 2^m).
    """
    c = model.config
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != c.k:
        raise ProtocolViolation(f"bits must be (B, {c.k})")
    batch = bits.shape[0]
    snrs = np.asarray(snr_db_rounds, dtype=float)
    if snrs.ndim <= 1:
        snrs = np.broadcast_to(snrs.ravel(), (c.rounds,))
    elif snrs.shape != (batch, c.rounds):
        raise ProtocolViolation(f"per-sample SNRs must be ({batch}, {c.rounds})")
    if not np.isfinite(snrs).all():
        raise NumericalFailure("uplink SNRs must be finite")
    if not noiseless_feedback and not np.isfinite(feedback_snr_db):
        raise NumericalFailure(f"feedback_snr_db must be finite, got {feedback_snr_db}")

    def round_snr(t):
        return snrs[t] if snrs.ndim == 1 else snrs[:, t]

    bits_pm = Tensor(_bits_to_pm_blocks(bits, c))
    codewords: list[Tensor] = []
    received: list[Tensor] = []
    fb_received: list[Tensor] = []

    for t in range(c.rounds):
        snr_t = round_snr(t)
        cw = model.encode_round_graph(t, bits_pm, codewords, fb_received, snr_t)
        if noiseless_uplink:
            y = cw
        else:
            sigma = np.atleast_1d(noise_sigma(snr_t))[:, None]
            y = cw + Tensor(sigma * rng.standard_normal((batch, c.num_blocks)))
        codewords.append(cw)
        received.append(y)

        # Feedback that no later round can consume is never generated.
        if t <= c.rounds - 1 - c.feedback_lag:
            fb = model.generate_feedback_graph(t, received, snr_t)
            if noiseless_feedback:
                fb_received.append(fb)
            else:
                fb_sigma = noise_sigma(feedback_snr_db)
                fb_received.append(
                    fb + Tensor(fb_sigma * rng.standard_normal((batch, c.num_blocks)))
                )

    return model.decode_graph(received, snrs)


def block_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true block classes."""
    return ad.cross_entropy(logits, targets)


def forward_backward(
    model: AfcModel,
    bits: np.ndarray,
    snr_db_rounds,
    rng: np.random.Generator,
    noiseless_uplink: bool = False,
    noiseless_feedback: bool = True,
    feedback_snr_db: float = 20.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """One training step's forward and backward pass.

    Returns the scalar loss and a name -> gradient map covering every
    trainable weight. Raises NumericalFailure on a non-finite loss.
    """
    model.zero_grad()
    logits = session_graph(
        model,
        bits,
        snr_db_rounds,
        rng,
        noiseless_uplink=noiseless_uplink,
        noiseless_feedback=noiseless_feedback,
        feedback_snr_db=feedback_snr_db,
    )
    targets = bits_to_block_targets(bits, model.config)
    loss = block_cross_entropy(logits, targets)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalFailure(f"session loss is non-finite ({value})")
    loss.backward()
    grads = {}
    for name, p in model.parameters():
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
    return value, grads


# -- complexity accounting -----------------------------------------------------


def _linear_params(i: int, o: int) -> int:
    return i * o + o


def _stack_params(d: int, ff: int, layers: int) -> int:
    per_layer = 2 * (2 * d) + 4 * _linear_params(d, d) + _linear_params(d, ff) + _linear_params(ff, d)
    return layers * per_layer + 2 * d  # final layer norm


def encoder_param_count(config: AfcConfig) -> int:
    """Closed-form parameter count of everything the transmitter runs."""
    c = config
    n = _linear_params(1, c.snr_emb_dim) + _linear_params(c.snr_emb_dim, c.snr_emb_dim)
    n += _linear_params(c.enc_in_dim, c.enc_d_model)
    n += _stack_params(c.enc_d_model, c.enc_ff_dim, c.effective_enc_layers)
    n += _linear_params(c.enc_d_model, 1)
    if c.use_positions:
        n += c.num_blocks * c.enc_d_model
    return n


def _active_inputs(config: AfcConfig, t: int) -> int:
    """Input columns that are structurally non-zero when encoding round t."""
    c = config
    fb_hi = t - c.feedback_lag
    if fb_hi < 0:
        n_fb = 0
    else:
        fb_lo = 0 if c.sparse_ff_window is None else max(0, fb_hi - c.sparse_ff_window)
        n_fb = fb_hi - fb_lo + 1
    return c.block_size + t + n_fb + c.snr_emb_dim


def encoder_session_flops(config: AfcConfig) -> int:
    """FLOPs for all encoding rounds of one session, 2 per multiply-accumulate.

    Counts the linear-algebra MACs (projections, attention products, feed
    forward, embedding, head, SNR MLP); the input embedding skips columns
    that are structurally zero in the given round.
    """
    c = config
    d, ff, nb = c.enc_d_model, c.enc_ff_dim, c.num_blocks
    macs = 0
    per_layer = 4 * nb * d * d + 2 * nb * nb * d + 2 * nb * d * ff
    mlp = c.snr_emb_dim + c.snr_emb_dim * c.snr_emb_dim
    for t in range(c.rounds):
        macs += nb * _active_inputs(c, t) * d
        macs += c.effective_enc_layers * per_layer
        macs += nb * d  # output head
        macs += mlp
    return 2 * macs


def count_complexity(config: AfcConfig) -> dict:
    """Parameter and per-session FLOP budget of the transmitter-side model."""
    model_params = encoder_param_count(config)
    return {
        "params": model_params,
        "flops_per_session": encoder_session_flops(config),
    }


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(model: AfcModel, path) -> None:
    """Versioned header, config echo, then raw little-endian float64 weights."""
    cfg_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    parts = [_CKPT_MAGIC, struct.pack("<I", len(cfg_blob)), cfg_blob]
    parts += [np.ascontiguousarray(p.data, dtype="<f8").tobytes() for _, p in model.parameters()]
    atomic_write(path, b"".join(parts))


def load_checkpoint(path) -> AfcModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ConfigError("not a codec checkpoint (bad magic)")
        (cfg_len,) = struct.unpack("<I", fh.read(4))
        config = AfcConfig(**json.loads(fh.read(cfg_len).decode("utf-8")))
        model = AfcModel(config, seed=0)
        for name, p in model.parameters():
            raw = fh.read(8 * p.size)
            if len(raw) != 8 * p.size:
                raise ConfigError(f"checkpoint truncated at parameter {name}")
            p.data = np.frombuffer(raw, dtype="<f8").reshape(p.shape).copy()
        if fh.read(1):
            raise ConfigError("trailing bytes after the last parameter")
    return model
