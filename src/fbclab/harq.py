"""HARQ with Chase combining over the convolutional mother code.

Every attempt retransmits the full rate-1/3 codeword; the receiver sums the
channel LLRs of all receptions before re-running Viterbi. Acknowledgment is
genie-aided by default (decoded bits compared with the truth); a CRC-16 check
can be enabled instead, in which case the CRC is carried inside the K info
bits.

The CRC register is linear over GF(2) and starts at 0xFFFF, so the CRC of a
K-bit block is the affine map crc(d) = (d @ A + c) mod 2, with A and c built
once per K. One matrix product checks or tags a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import noise_sigma
from .convcode import (
    bpsk_llr,
    conv_encode,
    modulate_bpsk,
    viterbi_decode_batch,
)
from .errors import ConfigError

CRC16_POLY = 0x1021  # CCITT
CRC16_LEN = 16


@dataclass
class HarqConfig:
    k: int = 47
    max_attempts: int = 3
    use_crc16: bool = False

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.use_crc16 and self.k <= CRC16_LEN:
            raise ConfigError("k must exceed the CRC-16 length")


def crc16(bits: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT remainders of (..., K) bit vectors, MSB first: (..., 16)."""
    bits = np.asarray(bits, dtype=np.int64)
    a, c = _crc_map(bits.shape[-1])
    return (bits @ a + c) & 1


@lru_cache(maxsize=8)
def _crc_map(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The CRC of k bits as an affine GF(2) map, crc(d) = (d @ A + c) mod 2.

    Shifting bit d_i into the register multiplies it by x^16 and then by x
    once per later bit, so row i of A is x^(16 + k-1-i) mod the generator
    (crc(e_i) xor crc(0)); the 0xFFFF preset shifted k times gives c = crc(0).
    """

    def times_x(reg: int) -> int:
        reg <<= 1
        return (reg ^ CRC16_POLY) & 0xFFFF if reg & 0x10000 else reg

    rows, reg, preset = [], CRC16_POLY, 0xFFFF  # CRC16_POLY = x^16 mod the generator
    for _ in range(k):
        rows.insert(0, reg)
        reg, preset = times_x(reg), times_x(preset)
    shifts = np.arange(CRC16_LEN - 1, -1, -1)
    a = (np.array(rows, dtype=np.int64).reshape(k, 1) >> shifts) & 1
    return a, (preset >> shifts) & 1


@lru_cache(maxsize=8)
def _generator_matrix(k: int) -> np.ndarray:
    """GF(2) generator matrix of the zero-tail code, built from impulses."""
    rows = [conv_encode(np.eye(k, dtype=np.int64)[i]) for i in range(k)]
    return np.array(rows, dtype=np.float64)


def conv_encode_batch(bits: np.ndarray) -> np.ndarray:
    """Encode a (B, K) bit matrix via the generator matrix (linearity).

    The product runs through BLAS in float64, where numpy has no BLAS path
    for int64. Each entry counts at most K ones, an integer far below 2^53,
    so every summation order gives it exactly and the parity is exact.
    """
    bits = np.asarray(bits, dtype=np.float64)
    return (bits @ _generator_matrix(bits.shape[1])).astype(np.int64) & 1


def _draw_payload(config: HarqConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    if config.use_crc16:
        data = rng.integers(0, 2, (n, config.k - CRC16_LEN))
        return np.concatenate([data, crc16(data)], axis=1)
    return rng.integers(0, 2, (n, config.k))


def harq_cc_trial_batch(
    config: HarqConfig, snr_db: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Run n independent HARQ sessions; returns per-trial success flags."""
    bits = _draw_payload(config, rng, n)
    symbols = modulate_bpsk(conv_encode_batch(bits))
    sigma = noise_sigma(snr_db)

    combined = np.zeros_like(symbols)
    success = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    for _ in range(config.max_attempts):
        received = symbols + sigma * rng.standard_normal(symbols.shape)
        combined += bpsk_llr(received, snr_db)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        decoded = viterbi_decode_batch(combined[idx])
        if config.use_crc16:
            ok = np.all(crc16(decoded[:, :-CRC16_LEN]) == decoded[:, -CRC16_LEN:], axis=1)
        else:
            ok = np.all(decoded == bits[idx], axis=1)
        success[idx[ok]] = True
        active[idx[ok]] = False
    return success


def harq_trial_fn(config: HarqConfig):
    """Adapter for measure_per."""

    def trial(snr_db: float, rng: np.random.Generator, n: int) -> np.ndarray:
        return harq_cc_trial_batch(config, snr_db, rng, n)

    return trial


def uncoded_bpsk_trial_fn(k: int):
    """Single-shot uncoded BPSK packets, for the closed-form PER oracle."""

    def trial(snr_db: float, rng: np.random.Generator, n: int) -> np.ndarray:
        bits = rng.integers(0, 2, (n, k))
        sigma = noise_sigma(snr_db)
        y = modulate_bpsk(bits) + sigma * rng.standard_normal((n, k))
        return np.all((y < 0).astype(np.int64) == bits, axis=1)

    return trial


def effective_snr_db(llrs: np.ndarray, bits: np.ndarray) -> float:
    """Post-detection SNR estimated from LLR statistics.

    For BPSK channel LLRs the sign-corrected LLR has mean 2/sigma^2 and
    variance 4/sigma^2, so mean^2/variance equals the linear SNR.
    """
    corrected = np.asarray(llrs, dtype=float) * modulate_bpsk(bits)
    m = corrected.mean()
    v = corrected.var()
    return float(10.0 * np.log10(m * m / v))
