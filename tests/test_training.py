import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import kstest, norm

from fbclab import autodiff as ad
from fbclab.afc import AfcConfig, AfcModel, logits_to_bits, save_checkpoint, session_graph
from fbclab.channel import MeanRevertingTrace, PiecewiseTrace, sample_traces
from fbclab.errors import ConfigError, NumericalFailure
from fbclab.experiments import ExperimentConfig, run_experiment
from fbclab.per import measure_per, usable_cpus
from fbclab.training import (
    Adam,
    CurriculumConfig,
    ExponentialDecay,
    GaussianAnchor,
    LinearDecay,
    TrainConfig,
    mixture_cdf,
    neural_trial_fn,
    sample_train_snr,
    train,
    write_history_csv,
)

TINY = AfcConfig.tiny()


def _draws(cfg, k, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([sample_train_snr(k, cfg, rng) for _ in range(n)])


def test_alpha_schedule_shape():
    cfg = CurriculumConfig(total_steps=100)
    alphas = [cfg.alpha(k) for k in range(0, 101, 5)]
    assert alphas[0] == 1.0
    assert alphas[-1] == 0.0
    assert all(a >= b for a, b in zip(alphas, alphas[1:]))

    exp = CurriculumConfig(schedule=ExponentialDecay(0.05), total_steps=100)
    assert exp.alpha(0) == 1.0
    assert exp.alpha(100) < 0.01


def test_degenerate_mixture_alpha_one_is_orig():
    cfg = CurriculumConfig(
        GaussianAnchor(10.0, 1.0), GaussianAnchor(-10.0, 1.0),
        LinearDecay(k_start=0, k_end=100), sigma_p=0.0, total_steps=100,
    )
    draws = _draws(cfg, 0, 50_000)
    assert kstest(draws, lambda x: norm.cdf(x, 10.0, 1.0)).pvalue > 0.01
    draws_end = _draws(cfg, 100, 50_000, seed=1)
    assert kstest(draws_end, lambda x: norm.cdf(x, -10.0, 1.0)).pvalue > 0.01


def test_mixture_moments_midpoint():
    # alpha = 0.5, N(10,1) and N(0,1) anchors, sigma_p = 1:
    # mean 5, variance 0.25*100 + 1 + 1 = 27
    cfg = CurriculumConfig(
        GaussianAnchor(10.0, 1.0), GaussianAnchor(0.0, 1.0),
        LinearDecay(0, 100), sigma_p=1.0, total_steps=100,
    )
    draws = _draws(cfg, 50, 100_000)
    se_mean = np.sqrt(27.0 / draws.size)
    assert abs(draws.mean() - 5.0) < 3 * se_mean
    # SE of the sample variance of a mixture, via the fourth moment
    fourth = np.mean((draws - draws.mean()) ** 4)
    se_var = np.sqrt((fourth - 27.0**2) / draws.size)
    assert abs(draws.var() - 27.0) < 3 * se_var


@pytest.mark.parametrize("k_frac", [0.0, 0.5, 1.0])
def test_ks_against_analytic_mixture_cdf(k_frac):
    cfg = CurriculumConfig(
        GaussianAnchor(8.0, 1.0), GaussianAnchor(0.0, 2.0),
        LinearDecay(0, 1000), sigma_p=0.7, total_steps=1000,
    )
    k = int(k_frac * 1000)
    draws = _draws(cfg, k, 100_000, seed=int(10 * k_frac))
    res = kstest(draws, lambda x: mixture_cdf(x, cfg.alpha(k), cfg))
    assert res.pvalue > 0.01


def test_perturbation_only_variance():
    cfg = CurriculumConfig(
        GaussianAnchor(3.0, 0.0), GaussianAnchor(3.0, 0.0),
        LinearDecay(0, 10), sigma_p=1.5, total_steps=10,
    )
    draws = _draws(cfg, 5, 100_000)
    var = 1.5**2
    se = np.sqrt(2.0 * var**2 / draws.size)
    assert abs(draws.var() - var) < 3 * se
    assert abs(draws.mean() - 3.0) < 3 * np.sqrt(var / draws.size)


def test_train_smoke_halves_loss_noiseless():
    model = AfcModel(TINY, seed=0)
    hist = train(
        model,
        CurriculumConfig(),
        TrainConfig(steps=500, batch_size=32, seed=0, noiseless_uplink=True, fixed_snr_db=8.0),
    )
    assert hist[-1].loss < 0.5 * hist[0].loss


def test_train_determinism_and_checkpoint_bytes(tmp_path):
    histories, blobs = [], []
    for _ in range(2):
        model = AfcModel(TINY, seed=3)
        hist = train(
            model, CurriculumConfig(total_steps=40),
            TrainConfig(steps=40, batch_size=8, seed=3),
        )
        histories.append([h.loss for h in hist])
        path = tmp_path / f"run{len(blobs)}.ckpt"
        save_checkpoint(model, path)
        blobs.append(path.read_bytes())
    assert histories[0] == histories[1]
    assert blobs[0] == blobs[1]


# Losses of the run below, computed with LayerNorm and cross-entropy as
# chains of primitive ops. Float reassociation moves them by ~1e-16; a changed
# draw order or a wrong fused backward moves them far more.
PINNED_TINY_LOSSES = [
    2.0551778945234287, 2.087100390582652, 1.8276476338786025,
    1.9567022027813414, 1.8743220353168948, 1.9453315802817643,
    1.9104694155403374, 1.8410857118744095, 1.9525903820943562,
    1.9162741059129984, 1.9244720206375936, 1.8033056560241012,
    1.7967556698520966, 1.931509561577775, 1.7436874124376414,
    1.7869546797127027, 1.8352286084554388, 1.6782802771484593,
    1.6475820865340016, 1.7757111598116406, 1.7881098442787287,
    1.7718370381286368, 1.7669335336019316, 1.6663009912063182,
    1.7534020823964518, 1.771842751472876, 1.763831544819091,
    1.6679667599910148, 1.7193906883870762, 1.5825180126958467,
]


def test_seeded_trajectory_matches_pinned_losses():
    model = AfcModel(TINY, seed=11)
    hist = train(
        model, CurriculumConfig(total_steps=30), TrainConfig(steps=30, batch_size=32, seed=11)
    )
    losses = np.array([h.loss for h in hist])
    assert losses.shape == (30,)
    np.testing.assert_allclose(losses, PINNED_TINY_LOSSES, rtol=1e-9, atol=0)


def test_fixed_snr_mode_bypasses_curriculum():
    model = AfcModel(TINY, seed=4)
    hist = train(
        model,
        CurriculumConfig(GaussianAnchor(50.0, 0.0), GaussianAnchor(50.0, 0.0)),
        TrainConfig(steps=10, batch_size=4, seed=4, fixed_snr_db=0.0),
    )
    assert all(h.mean_snr_db == 0.0 for h in hist)


def test_nonfinite_weights_abort_with_step_index():
    model = AfcModel(TINY, seed=5)
    model.enc_head.weight.data[0, 0] = np.nan
    with pytest.raises(NumericalFailure, match="step 0"):
        train(model, CurriculumConfig(), TrainConfig(steps=3, batch_size=4, seed=5))


def test_failed_train_run_leaves_history_and_manifest(tmp_path, monkeypatch):
    # The weights turn non-finite after step 1, so step 2's loss is NaN.
    original_step = Adam.step

    def poisoning_step(self, model, grads):
        original_step(self, model, grads)
        if self.t == 2:
            model.enc_head.weight.data[0, 0] = np.nan

    params = {"model": dataclasses.asdict(TINY), "steps": 4, "batch_size": 4}
    clean = run_experiment(ExperimentConfig("train", params, 5, str(tmp_path / "clean")))
    assert "status" not in clean and "failed_step" not in clean
    monkeypatch.setattr(Adam, "step", poisoning_step)
    with pytest.raises(NumericalFailure, match="step 2"):
        run_experiment(ExperimentConfig("train", params, 5, str(tmp_path / "failed")))

    failed = tmp_path / "failed"
    assert sorted(p.name for p in failed.iterdir()) == ["history.csv", "manifest.json"]
    lines = (failed / "history.csv").read_text().splitlines()
    assert lines == (tmp_path / "clean" / "history.csv").read_text().splitlines()[:3]
    manifest = json.loads((failed / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["failed_step"] == 2
    assert "step 2" in manifest["error"]
    assert manifest["outputs"] == ["history.csv"]
    same = {k: v for k, v in clean.items() if k not in ("created_utc", "outputs")}
    assert {k: manifest[k] for k in same} == same


def test_history_csv_format(tmp_path):
    model = AfcModel(TINY, seed=6)
    hist = train(model, CurriculumConfig(total_steps=5), TrainConfig(steps=5, batch_size=4, seed=6))
    path = tmp_path / "history.csv"
    write_history_csv(hist, path)
    assert len(path.read_text().splitlines()) == 6


def test_untrained_per_is_near_random_guessing():
    model = AfcModel(TINY, seed=7)
    points = measure_per(neural_trial_fn(model), [0.0, 20.0], max_trials=512, target_errors=512,
                         seed=7, batch_size=256, threads=usable_cpus())
    expected = 1.0 - (1.0 / TINY.classes) ** TINY.num_blocks
    for p in points:
        assert p.per > expected - 0.05


def test_adam_matches_reference_step():
    class Holder:
        def __init__(self):
            from fbclab.autodiff import Tensor

            self.w = Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def parameters(self):
            return [("w", self.w)]

    h = Holder()
    opt = Adam(h, TrainConfig(learning_rate=0.1))
    g = np.array([0.5, -1.0])
    opt.step(h, {"w": g})
    # the first bias-corrected Adam step moves each weight by -lr * sign(g)
    assert np.allclose(h.w.data, np.array([1.0, -2.0]) - 0.1 * np.sign(g), atol=1e-6)


def test_config_validation():
    with pytest.raises(ConfigError, match=r"^sigma_p: must be >= 0, got -1\.0$"):
        CurriculumConfig(sigma_p=-1.0)
    with pytest.raises(ConfigError, match=r"^batch_size: must be >= 1, got 0$"):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match=r"^std_db: must be >= 0, got -1\.0$"):
        GaussianAnchor(0.0, -1.0)
    with pytest.raises(ConfigError, match=r"^rate: must be > 0, got 0\.0$"):
        ExponentialDecay(0.0)


# The per-session reference for channel.sample_traces: one trace at a time,
# one scalar transition per interval between reads.
def _reference_trace(kind, times_ms, rng):
    if isinstance(kind, PiecewiseTrace):
        ts = np.array([t for t, _ in kind.points])
        vs = np.array([v for _, v in kind.points])
        return np.interp(times_ms, ts, vs)
    theta, sigma = kind.reversion_rate, kind.volatility
    x = kind.mean_db if kind.start_db is None else kind.start_db
    values = np.empty(len(times_ms))
    noise = rng.standard_normal(len(times_ms))
    for i, t in enumerate(times_ms):
        values[i] = x
        if i + 1 < len(times_ms):
            dt = times_ms[i + 1] - t
            decay = np.exp(-theta * dt)
            if theta > 0:
                step_sd = sigma * np.sqrt((1.0 - np.exp(-2.0 * theta * dt)) / (2.0 * theta))
            else:
                step_sd = sigma * np.sqrt(dt)
            x = x * decay + kind.mean_db * (1.0 - decay) + step_sd * noise[i]
    return values


def _reference_snrs(kind, times_ms, rng, n):
    return np.array([_reference_trace(kind, times_ms, rng) for _ in range(n)])


TRACE_KINDS = [
    pytest.param(PiecewiseTrace([(0.0, -2.0), (2.5, 4.0), (4.0, 1.0)]), id="piecewise"),
    pytest.param(PiecewiseTrace([(1.0, 5.0)]), id="piecewise-one-point"),
    pytest.param(MeanRevertingTrace(1.0, volatility=0.9), id="mean-reverting"),
    pytest.param(MeanRevertingTrace(1.0, volatility=0.9, start_db=-4.0), id="start-db"),
    pytest.param(MeanRevertingTrace(2.0, reversion_rate=0.0, volatility=0.4), id="no-reversion"),
    pytest.param(MeanRevertingTrace(2.0, volatility=0.0, start_db=9.0), id="no-volatility"),
    pytest.param(MeanRevertingTrace(-1.0, reversion_rate=0.3), id="fast-reversion"),
]


@pytest.mark.parametrize("spacing_ms", [1.0, 0.7])
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_batched_traces_match_per_session_reference(kind, spacing_ms):
    rounds, n = TINY.rounds, 37
    times = np.arange(rounds) * spacing_ms
    ref_rng, rng = np.random.default_rng(21), np.random.default_rng(21)
    expected = _reference_snrs(kind, times.tolist(), ref_rng, n)
    snrs = sample_traces(kind, times, rng, n)
    assert snrs.shape == (n, rounds)
    assert np.array_equal(snrs.view(np.uint64), expected.view(np.uint64))
    assert rng.random() == ref_rng.random()


def test_neural_trial_matches_per_session_reference():
    # Two one-bit blocks, so that even an untrained codec gets both outcomes.
    config = AfcConfig.tiny(block_size=1, num_blocks=2)
    model = AfcModel(config, seed=8)
    kind = MeanRevertingTrace(4.0, volatility=2.0, start_db=-2.0)
    ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
    n = 300
    snrs = _reference_snrs(kind, [float(t) for t in range(config.rounds)], ref_rng, n)
    bits = ref_rng.integers(0, 2, (n, config.k))
    with ad.no_grad():
        logits = session_graph(model, bits, snrs, ref_rng)
    expected = np.all(logits_to_bits(logits.data) == bits, axis=1)

    trial = neural_trial_fn(model, uplink_trace=lambda snr_db: kind)
    got = trial(4.0, rng, n)
    assert 0 < expected.sum() < n
    assert np.array_equal(got, expected)
    assert rng.random() == ref_rng.random()
