import numpy as np
import pytest

from fbclab import autodiff as ad
from fbclab.afc import AfcConfig, AfcModel, session_graph
from fbclab.channel import (
    MeanRevertingTrace,
    PiecewiseTrace,
    noise_sigma,
    sample_trace_kind,
    sample_traces,
    trace_value_at,
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


# float64: the same-noise check subtracts codewords at atol 1e-12.
@pytest.mark.usefixtures("float64")
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
    for snr in (np.nan, np.inf):
        with pytest.raises(NumericalFailure, match="feedback_snr_db"):
            session_graph(model, bits, np.zeros(TINY.rounds), np.random.default_rng(0),
                          feedback_snr_db=snr)
    # ideal feedback, the default, has no SNR to check
    session_graph(model, bits, np.zeros(TINY.rounds), np.random.default_rng(0))


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
    assert len(a) == 103  # one read per ms
    c = _trace(kind, 103.0, seed=12)
    assert a != c


def test_trace_steps_match_exact_transition_at_uneven_reads():
    # A trace started at its mean has Var X(t) = s^2 (1 - e^{-2 r t}) / (2 r)
    # and Cov(X(s), X(t)) = e^{-r (t - s)} Var X(s), so each step between reads
    # has an exact variance whatever the spacing; interpolating a coarser
    # grid would flatten the short steps.
    kind = MeanRevertingTrace(mean_db=0.0, volatility=2.0)
    times = np.array([0.0, 0.7, 5.0, 5.1, 40.0])
    n = 20000
    steps = np.diff(sample_traces(kind, times, np.random.default_rng(4), n), axis=1)
    r, s2 = kind.reversion_rate, kind.volatility**2
    var = s2 * (1.0 - np.exp(-2.0 * r * times)) / (2.0 * r)
    exact = var[1:] + var[:-1] - 2.0 * np.exp(-r * np.diff(times)) * var[:-1]
    standard_errors = exact * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(steps.var(axis=0, ddof=1) - exact) < 4 * standard_errors)


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
