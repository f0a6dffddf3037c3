"""Regenerate the benchmark's stored data. Neither is needed to run the benchmark.

    python3 perfbench/make_data.py weights     # data/default_light.npz + recipe
    python3 perfbench/make_data.py reference   # data/harq_crc_reference.json

weights: AfcConfig.default_light(), model seed 0, the default linear
curriculum (benign anchor 8 dB, harsh anchor 0 dB, sigma_p 1 dB) over
WEIGHT_STEPS Adam steps of batch 64 at learning rate 1e-3, training seed 0.
The weights are stored as a numpy .npz keyed by AfcModel.parameters() names,
so the per-neural-trace workload does not depend on the checkpoint format.

reference: the per-harq-crc sweep run once through run_experiment with
REFERENCE_TRIALS trials per grid point and seed 0.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fbclab.afc import AfcConfig, AfcModel  # noqa: E402
from fbclab.experiments import ExperimentConfig, run_experiment  # noqa: E402
from fbclab.per import read_per_csv  # noqa: E402
from fbclab.training import CurriculumConfig, TrainConfig, train  # noqa: E402

import workloads  # noqa: E402

WEIGHT_STEPS = 2000
REFERENCE_TRIALS = 100_000
RECIPE = workloads.DATA / "default_light_recipe.json"


def make_weights() -> dict:
    model = AfcModel(AfcConfig.default_light(), seed=0)
    history = train(
        model,
        CurriculumConfig(total_steps=WEIGHT_STEPS),
        TrainConfig(steps=WEIGHT_STEPS, batch_size=64, seed=0),
    )
    np.savez(workloads.LIGHT_WEIGHTS, **{name: p.data for name, p in model.parameters()})
    recipe = {
        "config": "AfcConfig.default_light()",
        "model_seed": 0,
        "curriculum": "CurriculumConfig(total_steps=steps): linear alpha 1 -> 0",
        "steps": WEIGHT_STEPS,
        "batch_size": 64,
        "learning_rate": 1e-3,
        "train_seed": 0,
        "final_100_step_mean_loss": float(np.mean([row.loss for row in history[-100:]])),
    }
    RECIPE.write_text(json.dumps(recipe, indent=2, sort_keys=True) + "\n")
    return recipe


def make_reference() -> dict:
    params = dict(
        workloads.PerHarqCrc().params(0),
        max_trials=REFERENCE_TRIALS,
        target_errors=REFERENCE_TRIALS + 1,
    )
    with tempfile.TemporaryDirectory() as out:
        run_experiment(ExperimentConfig("per-sweep", params, 0, out))
        points = read_per_csv(Path(out) / "per.csv")
    reference = {
        "params": params,
        "seed": 0,
        "snr_db": [p.snr_db for p in points],
        "per": [p.per for p in points],
        "trials": REFERENCE_TRIALS,
    }
    workloads.HARQ_REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return reference


if __name__ == "__main__":
    makers = {"weights": make_weights, "reference": make_reference}
    if len(sys.argv) != 2 or sys.argv[1] not in makers:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(makers)}}}")
    print(json.dumps(makers[sys.argv[1]]()))
