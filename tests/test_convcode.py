from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbclab.convcode import (
    GENERATORS,
    TAIL_BITS,
    conv_encode,
    modulate_bpsk,
    viterbi_decode_batch,
)
from fbclab.errors import InputDomainError, ProtocolViolation


def test_all_zero_input():
    out = conv_encode(np.zeros(20, dtype=int))
    assert out.size == 3 * 26
    assert not out.any()


def test_impulse_response_matches_generators():
    # a single leading 1 walks through the register: step i output k is tap i
    # of generator k (MSB = the current bit)
    out = conv_encode(np.eye(7, dtype=int)[0])
    for i in range(7):
        for k, g in enumerate(GENERATORS):
            assert out[3 * i + k] == (g >> (6 - i)) & 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30 - 1), st.integers(0, 2**30 - 1))
def test_code_linearity(a_int, b_int):
    a = np.array([(a_int >> i) & 1 for i in range(30)])
    b = np.array([(b_int >> i) & 1 for i in range(30)])
    assert np.array_equal(conv_encode(a ^ b), conv_encode(a) ^ conv_encode(b))


def test_round_trip_noiseless():
    rng = np.random.default_rng(0)
    for k in (5, 47, 48):
        bits = rng.integers(0, 2, k)
        llr = modulate_bpsk(conv_encode(bits)) * 4.0
        assert np.array_equal(viterbi_decode_batch(llr[None])[0], bits)


def test_llr_positive_scaling_invariance():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, (4, 47))
    llr = modulate_bpsk(conv_encode_rows(bits)) * 2.0 + 0.3 * rng.standard_normal((4, 3 * 53))
    assert np.array_equal(viterbi_decode_batch(llr), viterbi_decode_batch(llr * 7.25))


def test_single_flip_corrected():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 47)
    llr = modulate_bpsk(conv_encode(bits)) * 8.0
    llr[31] = -llr[31]
    assert np.array_equal(viterbi_decode_batch(llr[None])[0], bits)


def test_batch_matches_single():
    # A row decodes to the same bits alone as inside a batch of noisy codewords.
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, (8, 30))
    llrs = modulate_bpsk(conv_encode_rows(bits)) + rng.standard_normal((8, 108))
    dec_batch = viterbi_decode_batch(llrs)
    for i in range(len(llrs)):
        assert np.array_equal(viterbi_decode_batch(llrs[i : i + 1])[0], dec_batch[i])


def test_length_validation():
    with pytest.raises(ProtocolViolation):
        viterbi_decode_batch(np.ones((2, 10)))
    with pytest.raises(ProtocolViolation):
        viterbi_decode_batch(np.ones(3 * (TAIL_BITS + 1)))
    with pytest.raises(ProtocolViolation):
        viterbi_decode_batch(np.ones((1, 3 * TAIL_BITS)))
    with pytest.raises(InputDomainError):
        conv_encode(np.array([0, 1, 2]))
    with pytest.raises(InputDomainError):
        conv_encode(np.zeros((2, 3), dtype=int))


def conv_encode_rows(bits):
    return np.stack([conv_encode(row) for row in bits])


@lru_cache(maxsize=None)
def _reference_viterbi(llrs: tuple) -> list:
    """Scalar add-compare-select and traceback over one zero-tail codeword.

    State s holds the last six inputs, newest in the MSB; on input b the
    register is (b << 6) | s, it emits the parities of register & generator,
    and the next state is the register >> 1.
    The survivor comes from predecessor 2j + 1 only when its metric is
    strictly larger: ties go to predecessor 2j, the 0-branch.
    """
    n_steps = len(llrs) // 3
    n_states = 1 << TAIL_BITS
    signs = [
        [1 - 2 * (bin(reg & g).count("1") & 1) for g in GENERATORS] for reg in range(2 * n_states)
    ]
    metric = [0.0] + [float("-inf")] * (n_states - 1)
    history = []
    for t in range(n_steps):
        step = llrs[3 * t : 3 * t + 3]
        new_metric = [0.0] * n_states
        chosen = [0] * n_states
        for ns in range(n_states):
            b = ns >> (TAIL_BITS - 1)
            scores = []
            for p in (2 * (ns & (n_states // 2 - 1)), 2 * (ns & (n_states // 2 - 1)) + 1):
                corr = 0.0
                for llr, sign in zip(step, signs[(b << TAIL_BITS) | p]):
                    corr += llr * sign
                scores.append((metric[p] + corr, p))
            take1 = scores[1][0] > scores[0][0]
            new_metric[ns], chosen[ns] = scores[take1]
        metric = new_metric
        history.append(chosen)
    state, bits = 0, []
    for chosen in reversed(history):
        bits.append(state >> (TAIL_BITS - 1))
        state = chosen[state]
    return bits[::-1][: n_steps - TAIL_BITS]


@pytest.mark.parametrize("n_batch,k", [(1, 47), (7, 47), (500, 5)])
def test_batch_matches_scalar_reference_on_ties(n_batch, k):
    rng = np.random.default_rng(n_batch)
    n = 3 * (k + TAIL_BITS)
    bits = rng.integers(0, 2, (n_batch, k))
    noisy = modulate_bpsk(conv_encode_rows(bits))
    noisy += rng.standard_normal(noisy.shape)
    cases = [
        np.zeros((n_batch, n)),                    # every comparison is a tie
        rng.integers(-2, 3, (n_batch, n)) * 0.5,   # half-integer LLRs, many ties
        np.round(2 * noisy) / 2,                   # quantised noisy codewords
    ]
    for llrs in cases:
        decoded = viterbi_decode_batch(llrs)
        assert decoded.shape == (n_batch, k)
        for row, llr in zip(decoded, llrs):
            assert row.tolist() == _reference_viterbi(tuple(llr.tolist()))
