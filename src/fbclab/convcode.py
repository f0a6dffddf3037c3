"""Rate-1/3 convolutional mother code with soft-decision Viterbi decoding.

Feedforward code, constraint length 7, generators (133, 171, 165) octal,
zero-tail terminated. Stands in for the heavyweight mother codes of
production HARQ stacks at the same minimum rate of ~1/3.

LLR convention: positive LLR means bit 0 is more likely. For BPSK (0 -> +1,
1 -> -1) over AWGN with noise variance sigma^2 the channel LLR is 2*y/sigma^2.

The batched Viterbi keeps its path metrics state-major, shape (64, B). The two
predecessors of next state ns are 2*(ns & 31) and 2*(ns & 31) + 1, so each
add-compare-select step reads them as the strided views pm[0::2] and pm[1::2]
instead of gathering. Branch correlations are summed in a fixed order, not by
a BLAS product, and ties go to the 0-branch, so decisions are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError, ProtocolViolation

GENERATORS = (0o133, 0o171, 0o165)
CONSTRAINT_LEN = 7
TAIL_BITS = CONSTRAINT_LEN - 1
RATE_INV = len(GENERATORS)

_N_STATES = 1 << TAIL_BITS


def _build_trellis():
    # state s holds the previous TAIL_BITS inputs, most recent in the MSB.
    # On input b the full register is (b << TAIL_BITS) | s.
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    out_idx = np.zeros((_N_STATES, 2), dtype=np.int64)  # 3-bit output pattern
    for s in range(_N_STATES):
        for b in (0, 1):
            reg = (b << TAIL_BITS) | s
            pattern = 0
            for g in GENERATORS:
                pattern = (pattern << 1) | (bin(reg & g).count("1") & 1)
            next_state[s, b] = reg >> 1
            out_idx[s, b] = pattern
    return next_state, out_idx


_NEXT_STATE, _OUT_IDX = _build_trellis()

# _BRANCH[b, j] is the output pattern on the branch from state 2j into next
# state (b << 5) | j. Every generator taps the oldest register bit, so the
# branch from 2j + 1 emits the complement pattern, whose correlation is the
# exact negative.
_BRANCH = _OUT_IDX[(np.arange(_N_STATES // 2) << 1)[None, :], np.arange(2)[:, None]]


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode a bit vector; output has 3*(len(bits)+6) coded bits."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size == 0:
        raise InputDomainError("conv_encode expects a non-empty 1-D bit vector")
    if not np.isin(bits, (0, 1)).all():
        raise InputDomainError("conv_encode input must be 0/1 valued")
    padded = np.concatenate([bits.astype(np.int64), np.zeros(TAIL_BITS, dtype=np.int64)])
    out = np.empty(RATE_INV * padded.size, dtype=np.int64)
    s = 0
    for i, b in enumerate(padded):
        pattern = _OUT_IDX[s, b]
        out[3 * i] = (pattern >> 2) & 1
        out[3 * i + 1] = (pattern >> 1) & 1
        out[3 * i + 2] = pattern & 1
        s = _NEXT_STATE[s, b]
    return out


def viterbi_decode_batch(llrs: np.ndarray) -> np.ndarray:
    """Maximum-likelihood decode of zero-tail codewords from channel LLRs.

    llrs has shape (B, 3*(K+6)), one codeword per row; returns the (B, K)
    message bits. Rows are decoded independently.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.ndim != 2 or llrs.shape[1] % RATE_INV != 0:
        raise ProtocolViolation(
            f"LLR vector length {llrs.shape[-1]} is not a multiple of {RATE_INV}"
        )
    n_steps = llrs.shape[1] // RATE_INV
    if n_steps <= TAIL_BITS:
        raise ProtocolViolation("codeword too short for a zero-tail trellis")
    n_batch = llrs.shape[0]
    half = _N_STATES // 2

    # Correlation of every step with each 3-bit output pattern, shape
    # (steps, 8, B), summed in the fixed order (+-l0 +-l1) +-l2: products by
    # +-1 are exact, so no BLAS build can move a decision. The complement
    # pattern q ^ 7 correlates to exactly -corr[q].
    l0, l1, l2 = np.ascontiguousarray(
        llrs.reshape(n_batch, n_steps, RATE_INV).transpose(2, 1, 0)
    )
    corr = np.empty((n_steps, 8, n_batch))
    for q, head in enumerate((l0 + l1, l0 - l1)):  # patterns 00x and 01x
        np.add(head, l2, out=corr[:, 2 * q])
        np.subtract(head, l2, out=corr[:, 2 * q + 1])
    np.negative(corr[:, 3::-1], out=corr[:, 4:])

    # Add-compare-select: next state (b, j) extends predecessor 2j (pm[0::2])
    # by branch[b, j] or 2j + 1 (pm[1::2]) by -branch[b, j]. New metrics go to
    # the spare buffer, which then swaps with pm. np.maximum equals the
    # survivor select up to the sign of a tied zero, which no comparison sees.
    pm = np.full((_N_STATES, n_batch), -1e30)
    pm[0] = 0.0
    spare = np.empty_like(pm)
    branch = np.empty((2, half, n_batch))
    survivor = np.empty((n_steps, 2, half, n_batch), dtype=bool)
    for t in range(n_steps):
        corr[t].take(_BRANCH, 0, branch, "clip")
        via0 = spare.reshape(2, half, n_batch)
        np.add(pm[0::2], branch, out=via0)
        np.subtract(pm[1::2], branch, out=branch)
        np.greater(branch, via0, out=survivor[t])  # ties -> predecessor 0, the 0-branch
        np.maximum(via0, branch, out=via0)
        pm, spare = spare, pm

    # Zero tail forces the final state to 0.
    survivor = survivor.reshape(n_steps, _N_STATES, n_batch)
    state = np.zeros(n_batch, dtype=np.int64)
    decoded = np.empty((n_batch, n_steps), dtype=np.int64)
    cols = np.arange(n_batch)
    for t in range(n_steps - 1, -1, -1):
        decoded[:, t] = state >> (TAIL_BITS - 1)
        state = ((state & (half - 1)) << 1) | survivor[t][state, cols]
    return decoded[:, : n_steps - TAIL_BITS]


def modulate_bpsk(bits: np.ndarray) -> np.ndarray:
    """Map bits to antipodal unit-power symbols: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def bpsk_llr(received: np.ndarray, snr_db: float) -> np.ndarray:
    """Channel LLRs for BPSK over AWGN at the given SNR (unit signal power)."""
    sigma2 = 10.0 ** (-snr_db / 10.0)
    return 2.0 * np.asarray(received, dtype=float) / sigma2
