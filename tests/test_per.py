import sys
import threading
import time

import pytest
from scipy.stats import norm

from fbclab import experiments
from fbclab.afc import AfcConfig, AfcModel, save_checkpoint
from fbclab.channel import MeanRevertingTrace
from fbclab.errors import ConfigError
from fbclab.experiments import ExperimentConfig, run_experiment
from fbclab.harq import HarqConfig, harq_trial_fn, uncoded_bpsk_trial_fn
from fbclab.per import measure_per, read_per_csv, write_per_csv
from fbclab.training import neural_trial_fn


def test_uncoded_bpsk_matches_closed_form():
    # PER = 1 - (1 - Q(1))^K at 0 dB for K uncoded antipodal bits
    k = 48
    expected = 1.0 - (1.0 - norm.sf(1.0)) ** k
    (point,) = measure_per(
        uncoded_bpsk_trial_fn(k), [0.0], max_trials=20_000, target_errors=15_000, seed=0
    )
    assert point.ci_low <= expected <= point.ci_high
    assert point.per == pytest.approx(expected, abs=0.01)


def test_noiseless_per_zero():
    (point,) = measure_per(
        uncoded_bpsk_trial_fn(24), [60.0], max_trials=500, target_errors=10, seed=1
    )
    assert point.errors == 0 and point.per == 0.0 and point.trials == 500


def test_early_stopping_at_target_errors():
    (point,) = measure_per(
        uncoded_bpsk_trial_fn(48), [0.0], max_trials=100_000, target_errors=50,
        seed=2, batch_size=25,
    )
    assert point.errors >= 50
    assert point.trials < 100_000


def _tiny_neural_trial():
    model = AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8)
    return neural_trial_fn(model, uplink_trace=MeanRevertingTrace)


@pytest.mark.parametrize(
    "make_trial",
    [
        lambda: uncoded_bpsk_trial_fn(16),
        lambda: harq_trial_fn(HarqConfig(k=24, use_crc16=True)),
        _tiny_neural_trial,
    ],
    ids=["uncoded", "harq-cc", "neural"],
)
def test_points_do_not_depend_on_the_thread_count(make_trial):
    # Several batches per point and a short switch interval, so points on
    # more threads than cores interleave their trial calls; each point must
    # still read only its own stream.
    grid = [-8.0, -5.0, -2.0, 1.0]
    trial = make_trial()
    serial = measure_per(trial, grid, max_trials=300, target_errors=301, seed=3, batch_size=100)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = measure_per(
            trial, grid, max_trials=300, target_errors=301, seed=3, batch_size=100,
            threads=len(grid),
        )
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert [p.snr_db for p in serial] == grid
    assert 0 < sum(p.errors for p in serial) < sum(p.trials for p in serial)


def test_neural_sweep_writes_the_same_bytes_on_one_thread_and_two(tmp_path, monkeypatch):
    save_checkpoint(AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8), tmp_path / "m.ckpt")
    params = {"scheme": "neural", "checkpoint": str(tmp_path / "m.ckpt"),
              "snr_grid": [-2.0, 6.0, 2.0], "max_trials": 300, "target_errors": 301,
              "batch_size": 100, "uplink_trace": {"kind": "mean-reverting"}}
    written = []
    for threads in (1, 2):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: threads)
        run_experiment(ExperimentConfig("per-sweep", params, 1000, str(tmp_path / str(threads))))
        written.append((tmp_path / str(threads) / "per.csv").read_bytes())
    assert written[0] == written[1]


def _failing_trial(failures: dict, started: set, ok_delay_s: float = 0.0):
    """Uncoded trials that record every point they start. At a point in
    failures, {snr: (delay_s, exception)}, they sleep delay_s and raise;
    elsewhere they sleep ok_delay_s and run."""
    trial = uncoded_bpsk_trial_fn(8)

    def run(snr_db, rng, n):
        started.add(snr_db)
        if snr_db in failures:
            delay_s, exc = failures[snr_db]
            time.sleep(delay_s)
            raise exc
        time.sleep(ok_delay_s)
        return trial(snr_db, rng, n)

    return run


@pytest.mark.parametrize("threads", [1, 4])
def test_earliest_failing_point_raises(threads):
    # Point 3 fails first in time; point 1, first in grid order, wins.
    before = threading.active_count()
    failures = {1.0: (0.1, ValueError("point 1")), 3.0: (0.0, KeyError("point 3"))}
    with pytest.raises(ValueError, match="point 1"):
        measure_per(_failing_trial(failures, set()), [0.0, 1.0, 2.0, 3.0], threads=threads)
    assert threading.active_count() == before


def test_failure_cancels_queued_points():
    before = threading.active_count()
    started = set()
    grid = [float(i) for i in range(8)]
    trial = _failing_trial({0.0: (0.0, ValueError("point 0"))}, started, ok_delay_s=0.3)
    with pytest.raises(ValueError, match="point 0"):
        measure_per(trial, grid, max_trials=100, threads=2)
    # Point 0 fails at once, while point 1 runs; its thread may take point 2
    # before the queue is cancelled, and nothing after point 3 can start.
    assert started <= {0.0, 1.0, 2.0, 3.0}
    assert threading.active_count() == before
    points = measure_per(uncoded_bpsk_trial_fn(8), grid, max_trials=100, threads=2)
    assert [p.snr_db for p in points] == grid
    assert threading.active_count() == before


def test_validation():
    trial = uncoded_bpsk_trial_fn(8)
    with pytest.raises(ConfigError):
        measure_per(trial, [], max_trials=1000)
    with pytest.raises(ConfigError):
        measure_per(trial, [0.0], max_trials=50)
    with pytest.raises(ConfigError):
        measure_per(trial, [0.0], threads=0)


@pytest.mark.parametrize("batch_size", [0, -5])
def test_batch_size_below_one_rejected(batch_size):
    # A batch of no trials never ends the point; such a call must not happen.
    def trial(snr_db, rng, n):
        assert n >= 1, f"asked for a batch of {n} trials"
        return uncoded_bpsk_trial_fn(8)(snr_db, rng, n)

    with pytest.raises(ConfigError, match="^batch_size must be at least 1$"):
        measure_per(trial, [0.0], max_trials=100, batch_size=batch_size)


def test_csv_round_trip(tmp_path):
    points = measure_per(
        uncoded_bpsk_trial_fn(32), [0.0, 2.0], max_trials=300, target_errors=300, seed=4
    )
    path = tmp_path / "per.csv"
    write_per_csv(points, path)
    assert path.read_text().splitlines()[0] == "snr_db,per,ci_low,ci_high,trials,errors"
    back = read_per_csv(path)
    for a, b in zip(points, back):
        assert a.trials == b.trials and a.errors == b.errors
        assert a.per == pytest.approx(b.per, rel=1e-8)
