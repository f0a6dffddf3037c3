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
never enters the graph, so encoder outputs are structurally independent of
it; `feedback_window` states that rule once, for the encoder and for the
FLOP count. One input builder serves the encoder, the feedback generator and
the decoder: the optional message, one column per present slot and the SNR
embedding broadcast to every block. A missing or masked slot has no column,
and each input embedding multiplies only the rows of its weight that the
present columns stand for, so the encoder runs exactly the multiply-
accumulates `encoder_session_flops` counts. The transmitter embeds its
round's SNR itself; the receiver embeds each round's SNR once and shares it
between the feedback generator and the decoder.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import noise_sigma
from .errors import ConfigError, NumericalFailure, ProtocolViolation
from .keys import bounded, check_bounds, check_keys, field_key, reported
from .layers import Linear, Module, SnrMlp, TransformerStack
from .results import atomic_write

_CKPT_NAME, _CKPT_VERSION = b"FBCLAB-CKPT", 2
_CKPT_MAGIC = _CKPT_NAME + bytes([_CKPT_VERSION])
_CKPT_DIGEST = hashlib.sha256().digest_size
_NORM_EPS = 1e-8


@dataclass
class AfcConfig:
    block_size: int = bounded(1, default=3)
    num_blocks: int = bounded(1, default=16)
    rounds: int = bounded(1, default=9)
    feedback_lag: int = bounded(1, default=2)
    d_model: int = bounded(1, default=16)
    ff_dim: int = bounded(1, default=32)
    enc_layers: int = bounded(1, default=2)
    dec_layers: int = bounded(1, default=4)
    fb_layers: int = bounded(1, default=2)
    snr_emb_dim: int = bounded(1, default=16)
    lightweight: bool = False
    sparse_ff_window: int | None = bounded(0, default=None)

    def __post_init__(self):
        check_bounds(self)
        if self.effective_enc_layers > self.dec_layers:
            depth = self.effective_enc_layers
            raise ConfigError(f"enc_layers: encoder depth {depth} exceeds dec_layers {self.dec_layers}")

    # -- derived sizes -------------------------------------------------------

    @property
    def k(self) -> int:
        return self.block_size * self.num_blocks

    @property
    def classes(self) -> int:
        return 2 ** self.block_size

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
        outside feedback_window(config, t) never enters the graph.
        """
        c = self.config
        if not 0 <= t < c.rounds:
            raise ProtocolViolation(f"round {t} outside 0..{c.rounds - 1}")
        if len(past_codewords) < t:
            raise ProtocolViolation(
                f"round {t} needs {t} past codewords, got {len(past_codewords)}"
            )
        fb = dict(enumerate(feedback)) if isinstance(feedback, (list, tuple)) else feedback
        window = feedback_window(c, t)
        slots = [past_codewords[tau] if tau < t else None for tau in range(c.rounds - 1)]
        slots += [fb.get(tau) if tau in window else None for tau in range(c.rounds - 1)]
        x = self.enc_embed(*self._features(bits_pm, slots, self.snr_embed_graph(snr_db)))
        x = self.enc_stack(x)
        sym = self.enc_head(x).reshape(bits_pm.shape[0], c.num_blocks)
        return power_normalize(sym)

    def generate_feedback_graph(self, t: int, received: list[Tensor], emb: Tensor) -> Tensor:
        """Feedback symbols after reception t, (B, num_blocks).

        emb is the receiver's embedding of round t's SNR, from snr_embed_graph.
        """
        c = self.config
        if len(received) != t + 1:
            raise ProtocolViolation(
                f"feedback for round {t} needs receptions 0..{t}, got {len(received)}"
            )
        slots = received + [None] * (c.rounds - len(received))
        x = self.fb_stack(self.fb_embed(*self._features(None, slots, emb)))
        fb = self.fb_head(x).reshape(received[0].shape[0], c.num_blocks)
        return power_normalize(fb)

    def decode_graph(self, received: list[Tensor], embs: list[Tensor]) -> Tensor:
        """Per-block class logits after all rounds, (B, num_blocks, 2^m).

        embs holds the receiver's embedding of every round's SNR, from
        snr_embed_graph; the decoder conditions on their mean.
        """
        c = self.config
        if len(received) != c.rounds:
            raise ProtocolViolation(
                f"final decode needs {c.rounds} receptions, got {len(received)}"
            )
        emb = embs[0]
        for e in embs[1:]:
            emb = emb + e
        emb = emb * (1.0 / len(embs))
        x = self.dec_stack(self.dec_embed(*self._features(None, received, emb)))
        return self.dec_head(x)

    def _features(
        self, head: Tensor | None, slots: list[Tensor | None], emb: Tensor
    ) -> tuple[Tensor, list[int] | None]:
        """The input of all three networks, (B, num_blocks, features), and the
        rows of the embedding weight that its features stand for.

        Concatenates the optional head (the encoder's message, (B,
        num_blocks, m)), one column per present (B, num_blocks) slot and the
        (B or 1, 1, emb) SNR embedding, which `concat` broadcasts to every
        block. A slot that is None has no column, so the embedding neither
        stores nor multiplies zeros for it: the rows are those of the head,
        of the present slots and of the embedding, in that order, or None
        when every slot is present.
        """
        present = [i for i, s in enumerate(slots) if s is not None]
        columns = [slots[i].reshape(slots[i].shape + (1,)) for i in present]
        x = ad.concat(([] if head is None else [head]) + columns + [emb])
        if len(present) == len(slots):
            return x, None
        width = 0 if head is None else head.shape[-1]
        emb_row = width + len(slots)
        rows = [*range(width), *(width + i for i in present)]
        return x, rows + list(range(emb_row, emb_row + emb.shape[-1]))


# The key table of a `model` override and of a checkpoint's config echo. It
# states no bound: AfcConfig checks its own when built, after every other key.
MODEL_KEYS = {
    f.name: field_key(AfcConfig, f.name, "see AfcConfig", minimum=None) for f in fields(AfcConfig)
}


def feedback_window(config: AfcConfig, t: int) -> range:
    """Feedback rounds the encoder reads at round t: t - L - window .. t - L.

    Without a sparse window every round up to t - L; empty while t < L. The
    encoder's masking and the FLOP count both follow this one rule.
    """
    newest = t - config.feedback_lag
    window = config.sparse_ff_window
    return range(0 if window is None else max(0, newest - window), newest + 1)


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
    feedback_snr_db: float | None = None,
) -> Tensor:
    """Run a whole batched session inside the autodiff graph.

    This is the lab's one session engine: training, PER sweeps and the
    benchmark all run it. Round t's encoder is handed every feedback
    reception so far, and encode_round_graph masks all but rounds
    t - L - window .. t - L. Noise enters additively as constants, so
    gradients flow through the channel to every round's encoder and feedback
    generator. Feedback is ideal when feedback_snr_db is None, else AWGN at
    that SNR. A non-finite uplink or feedback SNR raises NumericalFailure.
    Returns the final per-block logits, (B, num_blocks, 2^m).
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
    if feedback_snr_db is not None and not np.isfinite(feedback_snr_db):
        raise NumericalFailure(f"feedback_snr_db must be finite, got {feedback_snr_db}")

    def round_snr(t):
        return snrs[t] if snrs.ndim == 1 else snrs[:, t]

    bits_pm = Tensor(_bits_to_pm_blocks(bits, c))
    codewords: list[Tensor] = []
    received: list[Tensor] = []
    embs: list[Tensor] = []  # the receiver's SNR embeddings, one per round
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
        embs.append(model.snr_embed_graph(snr_t))

        # Feedback that no later round can consume is never generated.
        if t <= c.rounds - 1 - c.feedback_lag:
            fb = model.generate_feedback_graph(t, received, embs[t])
            if feedback_snr_db is None:
                fb_received.append(fb)
            else:
                fb_sigma = noise_sigma(feedback_snr_db)
                fb_received.append(
                    fb + Tensor(fb_sigma * rng.standard_normal((batch, c.num_blocks)))
                )

    return model.decode_graph(received, embs)


def block_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true block classes."""
    return ad.cross_entropy(logits, targets)


def session_loss(
    model: AfcModel,
    bits: np.ndarray,
    snr_db_rounds,
    rng: np.random.Generator,
    noiseless_uplink: bool = False,
    feedback_snr_db: float | None = None,
) -> Tensor:
    """The scalar loss of one batched session: session_graph, then
    block_cross_entropy against the block targets. Raises NumericalFailure
    on a non-finite loss."""
    logits = session_graph(
        model,
        bits,
        snr_db_rounds,
        rng,
        noiseless_uplink=noiseless_uplink,
        feedback_snr_db=feedback_snr_db,
    )
    loss = block_cross_entropy(logits, bits_to_block_targets(bits, model.config))
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalFailure(f"session loss is non-finite ({value})")
    return loss


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
    return n + _linear_params(c.enc_d_model, 1)


def _active_inputs(config: AfcConfig, t: int) -> int:
    """Input columns that are structurally non-zero when encoding round t."""
    c = config
    return c.block_size + t + len(feedback_window(c, t)) + c.snr_emb_dim


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
    """Header, config echo and the weights as little-endian float64, then the
    SHA-256 of all three. A float32 weight is stored exactly, so a codec's
    checkpoint reloads to the same values and saves to the same bytes."""
    cfg_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    weights = [np.ascontiguousarray(p.data, dtype="<f8").tobytes() for _, p in model.parameters()]
    body = b"".join([_CKPT_MAGIC, struct.pack("<I", len(cfg_blob)), cfg_blob, *weights])
    atomic_write(path, body + hashlib.sha256(body).digest())


def load_checkpoint(path) -> AfcModel:
    """The codec a checkpoint holds, in the codec's dtype, or a ConfigError.
    Checks the magic, the digest (any cut, added or flipped byte), the
    config, then the weight byte count the config implies. Weights saved
    from the codec's dtype load bit-exact."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"checkpoint: cannot read {path}: {exc}") from exc
    version = raw[len(_CKPT_NAME):len(_CKPT_MAGIC)] if raw.startswith(_CKPT_NAME) else b""
    if version != bytes([_CKPT_VERSION]):
        raise ConfigError(
            f"checkpoint format version {version[0]}: this build reads version {_CKPT_VERSION}"
            if version else "not a codec checkpoint (bad magic)"
        )
    header = len(_CKPT_MAGIC) + 4
    if len(raw) < header + _CKPT_DIGEST:
        raise ConfigError("checkpoint truncated in the header")
    body = raw[:-_CKPT_DIGEST]
    if hashlib.sha256(body).digest() != raw[-_CKPT_DIGEST:]:
        raise ConfigError("checkpoint digest mismatch: the file is corrupt or cut short")
    offset = header + struct.unpack_from("<I", body, len(_CKPT_MAGIC))[0]
    try:
        values = json.loads(body[header:offset].decode("utf-8"))
    except ValueError as exc:  # JSON or UTF-8
        raise ConfigError(f"checkpoint.config: invalid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError("checkpoint.config: expected an object")
    check_keys(values, MODEL_KEYS, "checkpoint.config")
    model = AfcModel(reported("checkpoint.config", AfcConfig, **values), seed=0)
    held, needed = len(body) - offset, 8 * sum(p.size for _, p in model.parameters())
    if held != needed:
        raise ConfigError(f"checkpoint holds {held} weight bytes, its config needs {needed}")
    flat = np.frombuffer(body, "<f8", offset=offset)
    for _, p in model.parameters():
        p.data, flat = flat[:p.size].reshape(p.shape).astype(p.data.dtype), flat[p.size:]
    return model
