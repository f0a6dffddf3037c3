"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fbclab import afc, autodiff, experiments  # noqa: E402
from fbclab.afc import AfcConfig  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, load_light_model  # noqa: E402


@pytest.mark.parametrize("config", [AfcConfig.default_full(), AfcConfig.default_light()])
def test_encoder_flops_repeat_and_cover_the_analytic_count(config):
    first = tracing.encoder_flops_crosscheck(config)
    assert tracing.encoder_flops_crosscheck(config) == first
    measured, analytic = first
    assert analytic == afc.encoder_session_flops(config)
    assert measured >= analytic
    # Per session, the count does not depend on how many sessions share the batch.
    assert tracing.encoder_flops_crosscheck(config, sessions=9, seed=5) == first


def test_matmul_macs_broadcasts_batch_dims():
    assert tracing.matmul_macs((4, 16, 8), (8, 3)) == 4 * 16 * 8 * 3
    assert tracing.matmul_macs((2, 1, 5, 6), (3, 6, 7)) == 2 * 3 * 5 * 6 * 7


def test_self_time_excludes_children_and_uninstall_restores():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def parent():
        child()
        time.sleep(0.01)

    child = tracer.wrap("leaf", leaf)
    tracer.begin("t")
    tracer.wrap("parent", parent)()
    snap = tracer.snapshot()
    assert snap["calls"] == {"leaf": 1, "parent": 1}
    assert snap["total_s"]["parent"] >= snap["total_s"]["leaf"] >= 0.02
    assert snap["self_s"]["parent"] == pytest.approx(
        snap["total_s"]["parent"] - snap["total_s"]["leaf"]
    )
    (leaf_span,) = [s for s in tracer.spans if s[3] == "leaf"]
    (parent_span,) = [s for s in tracer.spans if s[3] == "parent"]
    assert leaf_span[2] == parent_span[1]

    originals = (autodiff.Tensor.__matmul__, afc.session_graph, experiments.measure_per)
    tracer.install()
    assert autodiff.Tensor.__matmul__ is not originals[0]
    assert experiments.measure_per is not originals[2]
    tracer.uninstall()
    assert (autodiff.Tensor.__matmul__, afc.session_graph, experiments.measure_per) == originals


def _traced_counts(kind, params, seed, out, sessions, flops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("t")
        experiments.run_experiment(experiments.ExperimentConfig(kind, params, seed, str(out)))
    finally:
        tracer.uninstall()
    return tracing.per_layer_counts(tracer.snapshot(), sessions, flops)


def test_count_metrics_repeat_exactly(tmp_path):
    harq = {
        "scheme": "harq-cc", "harq_use_crc16": True, "snr_grid": [-6.0, 0.0, 3.0],
        "max_trials": 200, "target_errors": 201, "batch_size": 100,
    }
    first = _traced_counts("per-sweep", harq, 3, tmp_path, 400, 0)
    assert _traced_counts("per-sweep", harq, 3, tmp_path, 400, 0) == first
    assert 1.0 <= first["harq.decodes_per_session"] <= 3.0
    assert 0.0 < first["harq.ack_yield"] <= 1.0
    assert first["per.trial_batches"] == 6

    tiny = AfcConfig.tiny()
    train = {"steps": 2, "batch_size": 8, "model": dataclasses.asdict(tiny)}
    flops = afc.encoder_session_flops(tiny)
    first = _traced_counts("train", train, 4, tmp_path, 16, flops)
    assert _traced_counts("train", train, 4, tmp_path, 16, flops) == first
    assert first["afc.encode_calls"] == 2 * tiny.rounds
    assert first["autodiff.tensors_per_step"] > 0


def test_stored_weights_fill_every_light_parameter():
    model = load_light_model()
    assert model.config == AfcConfig.default_light()
    assert all(np.all(np.isfinite(p.data)) for _, p in model.parameters())


def test_workloads_set_up_and_never_stop_early(tmp_path):
    for workload in WORKLOADS.values():
        workload.setup(tmp_path)
        params = experiments.validate_params(workload.kind, workload.params(0))
        if workload.kind == "per-sweep":
            assert params["target_errors"] > params["max_trials"]
