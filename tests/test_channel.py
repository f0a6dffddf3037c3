import numpy as np
import pytest

from fbclab import autodiff as ad
from fbclab.afc import AfcConfig, AfcModel, session_graph
from fbclab.channel import (
    FixedTrace,
    MeanRevertingTrace,
    PiecewiseTrace,
    noise_sigma,
    read_trace_csv,
    sample_trace_kind,
    trace_value_at,
    write_trace_csv,
)
from fbclab.errors import ConfigError, NumericalFailure

TINY = AfcConfig.tiny()


def _uplink(snr_db, sessions, seed, model_seed=0, **kwargs):
    """Every round's codewords and receptions in one session_graph run: (rounds, B, M) each."""
    model = AfcModel(TINY, seed=model_seed)
    encode, decode = model.encode_round_graph, model.decode_graph
    sent, received = [], []

    def encode_recording(*args):
        cw = encode(*args)
        sent.append(cw.data)
        return cw

    def decode_recording(rx, snrs):
        received.extend(y.data for y in rx)
        return decode(rx, snrs)

    model.encode_round_graph, model.decode_graph = encode_recording, decode_recording
    bits = np.random.default_rng(seed + 1).integers(0, 2, (sessions, TINY.k))
    with ad.no_grad():
        session_graph(
            model, bits, np.full(TINY.rounds, snr_db), np.random.default_rng(seed), **kwargs
        )
    return np.array(sent), np.array(received)


def _trace(kind, duration_ms, seed=0):
    return sample_trace_kind(kind, duration_ms, np.random.default_rng(seed))


def test_noise_sigma_matches_snr_rule():
    snrs = np.array([-5.0, 0.0, 3.5, 20.0])
    for s in snrs:
        assert noise_sigma(s) ** 2 == pytest.approx(10 ** (-s / 10), rel=1e-12)
    assert np.allclose(noise_sigma(snrs), [noise_sigma(s) for s in snrs], rtol=1e-15, atol=0)


def test_noiseless_identity():
    sent, received = _uplink(-3.0, 8, seed=0, noiseless_uplink=True)
    assert np.array_equal(received, sent)


def test_zero_db_noise_variance():
    sent, received = _uplink(0.0, 5000, seed=1)
    noise = received - sent
    # variance should be 1 within 3 standard errors of the sample variance
    se = np.sqrt(2.0 / noise.size)
    assert abs(noise.var() - 1.0) < 3 * se


@pytest.mark.parametrize("snr_db", [6.0, -3.0])
def test_empirical_snr_close(snr_db):
    sent, received = _uplink(snr_db, 5000, seed=2)
    noise = received - sent
    measured = 10 * np.log10(np.mean(sent**2) / np.mean(noise**2))
    assert abs(measured - snr_db) < 0.1


def test_noise_power_invariant_3se():
    for i, snr in enumerate((-5.0, 0.0, 7.0)):
        sent, received = _uplink(snr, 2000, seed=10 + i)
        target = 10 ** (-snr / 10)
        resid = received - sent
        se = target * np.sqrt(2.0 / resid.size)
        assert abs(resid.var() - target) < 3 * se


def test_determinism_and_linearity():
    sent1, y1 = _uplink(3.0, 16, seed=7)
    _, y2 = _uplink(3.0, 16, seed=7)
    assert np.array_equal(y1, y2)
    # other codewords (another model) get the same additive noise realization
    sent3, y3 = _uplink(3.0, 16, seed=7, model_seed=1)
    assert not np.allclose(sent1, sent3)
    assert np.allclose(y3 - sent3, y1 - sent1, rtol=0, atol=1e-12)


def test_nonfinite_input_rejected():
    bits = np.zeros((2, TINY.k), dtype=np.int64)
    model = AfcModel(TINY, seed=0)
    with pytest.raises(NumericalFailure, match="uplink"):
        session_graph(model, bits, np.full(TINY.rounds, np.inf), np.random.default_rng(0),
                      noiseless_uplink=True)
    with pytest.raises(NumericalFailure, match="feedback_snr_db"):
        session_graph(model, bits, np.zeros(TINY.rounds), np.random.default_rng(0),
                      noiseless_feedback=False, feedback_snr_db=np.nan)
    # ideal feedback never reads its SNR
    session_graph(model, bits, np.zeros(TINY.rounds), np.random.default_rng(0),
                  noiseless_feedback=True, feedback_snr_db=np.nan)


def test_fixed_trace_constant():
    trace = _trace(FixedTrace(0.0), 10.0)
    assert len(trace) == 10
    assert all(v == 0.0 for _, v in trace)


def test_mean_reverting_monotone_drift():
    kind = MeanRevertingTrace(mean_db=0.0, reversion_rate=0.01, volatility=0.0, start_db=12.0)
    trace = _trace(kind, 500.0, seed=3)
    values = np.array([v for _, v in trace])
    assert np.all(np.diff(values) < 0)
    assert values[-1] > 0.0  # approaches but never crosses the mean
    # and from below
    kind2 = MeanRevertingTrace(0.0, 0.01, 0.0, start_db=-9.0)
    v2 = np.array([v for _, v in _trace(kind2, 500.0, seed=3)])
    assert np.all(np.diff(v2) > 0)


def test_trace_seed_reproducibility_and_length():
    kind = MeanRevertingTrace(mean_db=5.0)
    a = _trace(kind, 103.0, seed=11)
    b = _trace(kind, 103.0, seed=11)
    assert a == b
    assert len(a) == int(np.ceil(103.0 / kind.step_ms))
    c = _trace(kind, 103.0, seed=12)
    assert a != c


def test_dispersion_calibration_100ms_window():
    # default process: median swing over a 100 ms window is about 2 dB
    rng = np.random.default_rng(0)
    kind = MeanRevertingTrace(mean_db=0.0)
    ranges = []
    for _ in range(1000):
        vals = np.array([v for _, v in sample_trace_kind(kind, 100.0, rng)])
        ranges.append(vals.max() - vals.min())
    med = np.median(ranges)
    assert 1.6 < med < 2.5, med


def test_piecewise_trace():
    kind = PiecewiseTrace([(0.0, 0.0), (10.0, 10.0)])
    trace = _trace(kind, 10.0)
    assert trace[0][1] == 0.0
    assert trace[5][1] == pytest.approx(5.0)
    with pytest.raises(ConfigError):
        PiecewiseTrace([])
    with pytest.raises(ConfigError):
        PiecewiseTrace([(0.0, 1.0), (0.0, 2.0)])


def test_trace_value_interpolation():
    trace = [(0.0, 0.0), (10.0, 5.0)]
    assert trace_value_at(trace, 4.0) == pytest.approx(2.0)
    assert trace_value_at(trace, -5.0) == 0.0
    assert trace_value_at(trace, 99.0) == 5.0


def test_trace_csv_round_trip(tmp_path):
    trace = _trace(MeanRevertingTrace(2.0), 20.0, seed=5)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "time_ms,snr_db"
    back = read_trace_csv(path)
    assert len(back) == len(trace)
    for (t1, v1), (t2, v2) in zip(trace, back):
        assert abs(t1 - t2) < 1e-6 and abs(v1 - v2) < 1e-6
