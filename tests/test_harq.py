import numpy as np
import pytest

from fbclab import harq
from fbclab.convcode import bpsk_llr, modulate_bpsk
from fbclab.errors import ConfigError
from fbclab.harq import (
    CRC16_LEN,
    HarqConfig,
    _draw_payload,
    conv_encode_batch,
    crc16,
    effective_snr_db,
    harq_cc_trial_batch,
    harq_trial_fn,
)
from fbclab.per import measure_per


def test_batch_encode_matches_generator_definition():
    from fbclab.convcode import conv_encode

    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (5, 31))
    batch = conv_encode_batch(bits)
    for row_in, row_out in zip(bits, batch):
        assert np.array_equal(conv_encode(row_in), row_out)


def test_noiseless_success_first_attempt():
    # With a budget of one attempt, every success is a first-attempt success.
    ok = harq_cc_trial_batch(HarqConfig(k=47, max_attempts=1), 40.0, np.random.default_rng(0), 20)
    assert ok.all()


def test_very_low_snr_rarely_succeeds():
    cfg = HarqConfig(k=47, max_attempts=2)
    ok = harq_cc_trial_batch(cfg, -20.0, np.random.default_rng(1), 1000)
    assert ok.mean() < 0.01


def test_more_attempts_never_hurt():
    grid = [0.0, 2.0, 4.0]
    p1 = measure_per(harq_trial_fn(HarqConfig(max_attempts=1)), grid,
                     max_trials=1500, target_errors=80, seed=5, batch_size=300)
    p3 = measure_per(harq_trial_fn(HarqConfig(max_attempts=3)), grid,
                     max_trials=1500, target_errors=80, seed=5, batch_size=300)
    for a, b in zip(p3, p1):
        assert a.ci_low <= b.ci_high  # PER(A=3) <= PER(A=1) up to CI overlap


@pytest.mark.parametrize("replicas", [2, 4])
def test_chase_combining_mrc_gain(replicas):
    # combining A equal-SNR replicas raises the effective SNR by 10*log10(A)
    rng = np.random.default_rng(10 + replicas)
    snr_db = 2.0
    bits = rng.integers(0, 2, 100_000)
    symbols = modulate_bpsk(bits)
    sigma = 10 ** (-snr_db / 20)
    llrs = [
        bpsk_llr(symbols + sigma * rng.standard_normal(bits.size), snr_db)
        for _ in range(replicas)
    ]
    single = effective_snr_db(llrs[0], bits)
    combined = effective_snr_db(np.sum(llrs, axis=0), bits)
    assert abs(single - snr_db) < 0.5
    assert abs(combined - (snr_db + 10 * np.log10(replicas))) < 0.5


def test_crc16_detects_state():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, 31)
    tag = crc16(data)
    assert tag.shape == (16,)
    assert np.array_equal(tag, crc16(data))
    flipped = data.copy()
    flipped[5] ^= 1
    assert not np.array_equal(crc16(flipped), tag)


def _crc16_bit_serial(bits):
    """CRC-16/CCITT-FALSE shifted in one bit at a time: poly 0x1021, preset 0xFFFF."""
    reg = 0xFFFF
    for b in bits:
        reg ^= int(b) << 15
        reg = ((reg << 1) ^ 0x1021) & 0xFFFF if reg & 0x8000 else (reg << 1) & 0xFFFF
    return [(reg >> i) & 1 for i in range(15, -1, -1)]


@pytest.mark.parametrize("k", [1, 16, 31, 47])
def test_crc16_batch_matches_bit_serial_reference(k):
    data = np.random.default_rng(k).integers(0, 2, (40, k))
    tags = crc16(data)
    assert tags.shape == (40, CRC16_LEN)
    for row, tag in zip(data, tags):
        assert tag.tolist() == _crc16_bit_serial(row)
        assert np.array_equal(crc16(row), tag)


def test_crc16_catalogue_check_value():
    # CRC-16/CCITT-FALSE of ASCII "123456789", fed MSB first, is 0x29B1.
    bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    assert int("".join(str(b) for b in crc16(bits)), 2) == 0x29B1


def test_crc_payload_rows_pass_the_check():
    cfg = HarqConfig(k=47, use_crc16=True)
    payload = _draw_payload(cfg, np.random.default_rng(6), 200)
    assert payload.shape == (200, 47)
    for row in payload:
        assert row[-CRC16_LEN:].tolist() == _crc16_bit_serial(row[:-CRC16_LEN])


def test_crc16_mode_runs():
    cfg = HarqConfig(k=47, max_attempts=2, use_crc16=True)
    first = HarqConfig(k=47, max_attempts=1, use_crc16=True)
    assert harq_cc_trial_batch(first, 30.0, np.random.default_rng(4), 20).all()
    ok = harq_cc_trial_batch(cfg, 30.0, np.random.default_rng(5), 50)
    assert ok.all()


def test_crc_acked_session_with_wrong_bits_is_an_error(monkeypatch):
    # A decoder that returns, for each session, the sent payload with its
    # first data bit flipped and its CRC recomputed: every check passes.
    cfg = HarqConfig(k=47, max_attempts=3, use_crc16=True)
    sent = _draw_payload(cfg, np.random.default_rng(4), 20)  # the batch's first draw
    wrong = sent.copy()
    wrong[:, 0] ^= 1
    wrong[:, -CRC16_LEN:] = crc16(wrong[:, :-CRC16_LEN])
    decoded_sessions = []

    def decode(llrs):
        decoded_sessions.append(len(llrs))
        return wrong[: len(llrs)]

    monkeypatch.setattr(harq, "viterbi_decode_batch", decode)
    ok = harq_cc_trial_batch(cfg, 30.0, np.random.default_rng(4), 20)
    assert not ok.any()
    assert decoded_sessions == [20]  # every session stops at its (false) ACK


def test_config_validation():
    with pytest.raises(ConfigError, match=r"^max_attempts: must be >= 1, got 0$"):
        HarqConfig(max_attempts=0)
    with pytest.raises(ConfigError, match=r"^k: the CRC-16 needs k > 16, got 10$"):
        HarqConfig(k=10, use_crc16=True)
