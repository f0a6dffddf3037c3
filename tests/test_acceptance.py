"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 3 plays every cell of the grid delta in [1,30] x delta_tilde in
[0,15] x T in [2,12] (5280 cells) through the event simulator and requires
both modes to equal their closed forms. It also checks the pipelined total
against the lock-step total on every cell, as the pinned closed forms state
it: async <= sync wherever delta >= 2, and async = sync + min_forward exactly
at delta = 1, where the min-forward floor charges a slot the serial schedule
never pays.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import kstest

from fbclab import autodiff as ad
from fbclab.afc import (
    AfcConfig,
    AfcModel,
    count_complexity,
    encoder_param_count,
)
from fbclab.autodiff import Tensor
from fbclab.convcode import bpsk_llr, modulate_bpsk
from fbclab.harq import HarqConfig, effective_snr_db, harq_trial_fn
from fbclab.per import measure_per, usable_cpus
from fbclab.pipeline import (
    TimingParams,
    async_delta_prime,
    async_latency,
    latency_reduction,
    latency_sweep,
    simulate_timeline,
    sync_forward_share,
    sync_latency,
)
from fbclab.training import (
    CurriculumConfig,
    GaussianAnchor,
    LinearDecay,
    TrainConfig,
    mixture_cdf,
    neural_trial_fn,
    sample_train_snr,
    train,
)

P_REF = TimingParams(10, 4, 9)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_01_latency_closed_forms():
    sync, asyn = sync_latency(P_REF), async_latency(P_REF)
    red = latency_reduction(P_REF)
    ok = sync == 122 and asyn == 69 and round(red, 3) == 0.434
    assert _report(1, "latency closed forms (122 / 69 / 43.4%)", ok,
                   f"sync={sync} async={asyn} reduction={red:.4%}")


def test_criterion_02_delta_prime_and_sweeps(tmp_path):
    from fbclab.pipeline import SweepRow
    from fbclab.results import emit_results, parse_results

    checks = [async_delta_prime(P_REF) == 3]
    for d in range(1, 31):
        for dt in range(0, 16):
            if d <= dt + 2:
                checks.append(async_delta_prime(TimingParams(d, dt, 9)) == 1.0)
    p_slow_fb = TimingParams(10, 8, 9)
    red = 100 * latency_reduction(p_slow_fb)
    checks.append(abs(red - 46.1) <= 0.5)

    # shapes are asserted from the emitted CSVs, not the in-memory rows
    emit_results(latency_sweep(range(1, 31), [4], 9), tmp_path / "fwd.csv", SweepRow)
    emit_results(latency_sweep([10], range(0, 16), 9), tmp_path / "fb.csv", SweepRow)
    fwd = [r for r in parse_results(tmp_path / "fwd.csv", SweepRow) if r.mode == "async"]
    dpr = [r.delta_prime_ms for r in fwd]
    tot = [r.total_ms for r in fwd]
    checks.append(all(b >= a for a, b in zip(dpr, dpr[1:])))
    checks.append(all(b >= a for a, b in zip(tot, tot[1:])))
    fb = [r for r in parse_results(tmp_path / "fb.csv", SweepRow) if r.mode == "async"]
    fb_dpr = [r.delta_prime_ms for r in fb]
    fb_tot = [r.total_ms for r in fb]
    checks.append(all(b <= a for a, b in zip(fb_dpr, fb_dpr[1:])) and fb_dpr[-1] == 1)
    checks.append(all(b >= a for a, b in zip(fb_tot, fb_tot[1:])))

    ok = all(checks)
    assert _report(2, "delta-prime, floor, 46.1% point, sweep CSV shapes", ok,
                   f"dprime(10,4)={async_delta_prime(P_REF)} reduction(10,8)={red:.1f}%")


def test_criterion_03_simulator_oracle_and_dominance():
    cells = 0
    mismatches = []
    unexpected = []
    for d in range(1, 31):
        for dt in range(0, 16):
            for rounds in range(2, 13):
                cells += 1
                p = TimingParams(d, dt, rounds)
                s, a = sync_latency(p), async_latency(p)
                if simulate_timeline(p, "sync").total_latency != s:
                    mismatches.append((d, dt, rounds, "sync"))
                if simulate_timeline(p, "async").total_latency != a:
                    mismatches.append((d, dt, rounds, "async"))
                expected = a - s == p.min_forward if d == 1 else a <= s
                if not expected:
                    unexpected.append((d, dt, rounds, a - s))
    ok = cells == 5280 and not mismatches and not unexpected
    detail = (f"cells={cells} oracle mismatches={len(mismatches)}"
              f" unexpected async-sync={len(unexpected)}")
    if mismatches:
        detail += f"; first mismatches (delta, delta_tilde, T, mode): {mismatches[:5]}"
    if unexpected:
        detail += f"; first unexpected (delta, delta_tilde, T, async-sync): {unexpected[:5]}"
    assert _report(3, "event simulator equals closed forms; async <= sync for delta >= 2,"
                   " async = sync + min_forward at delta = 1", ok, detail)


def test_criterion_04_coverage_pipeline():
    from fbclab.analysis import coverage_report, density_ratio

    d_neural = density_ratio(1.70)
    d_turbo = density_ratio(1.70 / 1.38)
    report = coverage_report("neural-fb-vs-polar-harq", 8.6, 3, reported_distance_ratio=1.70)
    ok = (
        abs(d_neural - 0.35) / 0.35 <= 0.02
        and abs(d_turbo - 0.66) / 0.66 <= 0.02
        and "note" in report
        and report["formula_distance_ratio"] == pytest.approx(1.935, abs=1e-3)
    )
    assert _report(4, "coverage densities (0.346 / 0.659) with surfaced discrepancy", ok,
                   f"density={d_neural:.4f} turbo-relative={d_turbo:.4f}")


def test_criterion_05_forward_share():
    share = sync_forward_share(P_REF)
    ok = round(100 * share, 1) == 73.8
    assert _report(5, "lock-step forward share 73.8%", ok, f"share={share:.4%}")


def test_criterion_06_complexity_accounting():
    full_cfg, light_cfg = AfcConfig.default_full(), AfcConfig.default_light()
    full, light = count_complexity(full_cfg), count_complexity(light_cfg)
    p_red = 1 - light["params"] / full["params"]
    f_red = 1 - light["flops_per_session"] / full["flops_per_session"]

    def enum(cfg):
        model = AfcModel(cfg, seed=0)
        return sum(p.size for n, p in model.parameters() if n.startswith(("snr_mlp", "enc_")))

    exact = all(encoder_param_count(c) == enum(c) for c in (full_cfg, light_cfg, AfcConfig.tiny()))
    ok = p_red >= 0.40 and f_red >= 0.30 and exact
    assert _report(6, "lightweight reductions (params >= 40%, flops >= 30%), exact counter", ok,
                   f"params -{p_red:.1%} flops -{f_red:.1%} counter==enumeration: {exact}")


def test_criterion_07_gradient_correctness():
    from fbclab.gradcheck import run_gradient_checks

    results = run_gradient_checks(seed=0)
    ok = results["passed"]
    assert _report(7, "finite-difference gradients < 1e-4 on every layer and the session", ok,
                   f"max rel err={results['max_rel_error']:.2e}")


def test_criterion_08_curriculum_statistics():
    cfg = CurriculumConfig(
        GaussianAnchor(10.0, 1.0), GaussianAnchor(0.0, 1.0), LinearDecay(0, 1000),
        sigma_p=1.0, total_steps=1000,
    )
    rng = np.random.default_rng(0)
    draws = np.array([sample_train_snr(500, cfg, rng) for _ in range(100_000)])
    se_mean = np.sqrt(27.0 / draws.size)
    fourth = np.mean((draws - draws.mean()) ** 4)
    se_var = np.sqrt((fourth - 27.0**2) / draws.size)
    moments_ok = abs(draws.mean() - 5.0) < 3 * se_mean and abs(draws.var() - 27.0) < 3 * se_var

    ks_ok = True
    for k in (0, 500, 1000):
        sample = np.array([sample_train_snr(k, cfg, rng) for _ in range(100_000)])
        p = kstest(sample, lambda x: mixture_cdf(x, cfg.alpha(k), cfg)).pvalue
        ks_ok = ks_ok and p > 0.01
    ok = moments_ok and ks_ok
    assert _report(8, "curriculum mixture moments and KS fits", ok,
                   f"mean={draws.mean():.3f} var={draws.var():.3f} ks_ok={ks_ok}")


def test_criterion_09_chase_gain_and_harq_monotonicity():
    rng = np.random.default_rng(1)
    snr_db = 2.0
    bits = rng.integers(0, 2, 100_000)
    symbols = modulate_bpsk(bits)
    sigma = 10 ** (-snr_db / 20)
    gain_ok = True
    details = []
    for a in (2, 4):
        llrs = [bpsk_llr(symbols + sigma * rng.standard_normal(bits.size), snr_db)
                for _ in range(a)]
        eff = effective_snr_db(np.sum(llrs, axis=0), bits)
        target = snr_db + 10 * np.log10(a)
        details.append(f"A={a}: {eff:.2f} vs {target:.2f}")
        gain_ok = gain_ok and abs(eff - target) <= 0.5

    grid = [0.0, 2.0, 4.0, 6.0]
    p1 = measure_per(harq_trial_fn(HarqConfig(max_attempts=1)), grid,
                     max_trials=2500, target_errors=100, seed=2, batch_size=500)
    p3 = measure_per(harq_trial_fn(HarqConfig(max_attempts=3)), grid,
                     max_trials=2500, target_errors=100, seed=2, batch_size=500)
    attempts_ok = all(a.ci_low <= b.ci_high for a, b in zip(p3, p1))
    snr_ok = all(
        pts[i + 1].ci_low <= pts[i].ci_high
        for pts in (p1, p3)
        for i in range(len(grid) - 1)
    )
    ok = gain_ok and attempts_ok and snr_ok
    assert _report(9, "chase MRC gain (+-0.5 dB) and HARQ monotonicity", ok,
                   "; ".join(details) + f"; attempts_ok={attempts_ok} snr_ok={snr_ok}")


MID_CFG = AfcConfig(
    block_size=3, num_blocks=8, rounds=6, d_model=16, ff_dim=32,
    enc_layers=2, dec_layers=3, fb_layers=2, snr_emb_dim=8,
)
TRAIN_STEPS = 2500
EVAL_GRID = [0.0, 2.0, 4.0, 6.0, 8.0]


def _trained(curriculum, config):
    """A MID_CFG codec from seed 7, trained: module-level, so a spawned worker can run it."""
    model = AfcModel(MID_CFG, seed=7)
    train(model, curriculum, config)
    return model


@pytest.fixture(scope="module")
def trained_models():
    curriculum = CurriculumConfig(
        GaussianAnchor(8.0, 1.0), GaussianAnchor(0.0, 1.0), LinearDecay(),
        sigma_p=1.0, total_steps=TRAIN_STEPS,
    )
    curricula = (curriculum, CurriculumConfig())
    configs = (
        TrainConfig(steps=TRAIN_STEPS, batch_size=64, seed=7),
        TrainConfig(steps=TRAIN_STEPS, batch_size=64, seed=7, fixed_snr_db=0.0),
    )
    # The two trainings run side by side, in spawned processes: a process
    # forked while its OpenBLAS threads run can hang.
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return tuple(pool.map(_trained, curricula, configs))


def test_criterion_10_training_robustness(trained_models):
    tiny = AfcConfig.tiny()
    smoke_model = AfcModel(tiny, seed=0)
    hist = train(
        smoke_model, CurriculumConfig(),
        TrainConfig(steps=500, batch_size=32, seed=0, noiseless_uplink=True, fixed_snr_db=8.0),
    )
    smoke_ok = hist[-1].loss < 0.5 * hist[0].loss

    cur, fix = (
        measure_per(neural_trial_fn(model), EVAL_GRID, max_trials=1500, target_errors=75, seed=11,
                    batch_size=256, threads=usable_cpus())
        for model in trained_models
    )
    monotone_ok = all(
        cur[i + 1].ci_low <= cur[i].ci_high for i in range(len(EVAL_GRID) - 1)
    )
    at6 = EVAL_GRID.index(6.0)
    fixed_not_better = not (fix[at6].ci_high < cur[at6].ci_low)

    ok = smoke_ok and monotone_ok and fixed_not_better
    curve = " ".join(f"{p.snr_db:.0f}dB:{p.per:.3f}" for p in cur)
    assert _report(
        10, "training smoke + curriculum robustness", ok,
        f"loss {hist[0].loss:.2f}->{hist[-1].loss:.2f}; curriculum PER [{curve}]; "
        f"fixed@6dB={fix[at6].per:.3f} vs curriculum@6dB={cur[at6].per:.3f}",
    )


def test_criterion_11_lag_masking_and_sparse_window():
    cfg = AfcConfig.tiny(rounds=6, sparse_ff_window=1)
    model = AfcModel(cfg, seed=5)
    rng = np.random.default_rng(6)
    t = 5
    bits_pm = Tensor(1.0 - 2.0 * rng.integers(0, 2, (2, cfg.num_blocks, cfg.block_size)))
    past = [Tensor(rng.standard_normal((2, cfg.num_blocks))) for _ in range(t)]
    legal = {i: Tensor(rng.standard_normal((2, cfg.num_blocks)))
             for i in range(t - cfg.feedback_lag + 1)}
    base = model.encode_round_graph(t, bits_pm, past, legal, 0.0).data
    mutated = dict(legal)
    mutated[t - 1] = Tensor(np.full((2, cfg.num_blocks), 1e9))
    mutated[t] = Tensor(np.full((2, cfg.num_blocks), -1e9))
    mask_ok = np.array_equal(
        base, model.encode_round_graph(t, bits_pm, past, mutated, 0.0).data
    )

    fb = [Tensor(rng.standard_normal((1, cfg.num_blocks)), requires_grad=True)
          for i in range(t - cfg.feedback_lag + 1)]
    out = model.encode_round_graph(
        t, Tensor(bits_pm.data[:1]), [Tensor(p.data[:1]) for p in past], fb, 0.0
    )
    (out * out).sum().backward()
    # window=1, lag=2, t=5: rounds {2,3} feed the graph, rounds {0,1} must not
    jac_ok = (
        fb[0].grad is None and fb[1].grad is None
        and fb[2].grad is not None and np.abs(fb[2].grad).max() > 0
        and fb[3].grad is not None and np.abs(fb[3].grad).max() > 0
    )
    ok = mask_ok and jac_ok
    assert _report(11, "lag masking bit-identical; sparse-window Jacobian zero", ok,
                   f"mask_ok={mask_ok} jacobian_ok={jac_ok}")
