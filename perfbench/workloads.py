"""The benchmark's workloads: fixed work per call, set-up, and output checks.

Every workload drives `fbclab.experiments.run_experiment`, the path the
`fbclab` command line takes. One call does a fixed amount of work, so the
call's sessions are known in advance. The PER sweeps set `target_errors`
above `max_trials`, so early stopping never fires and the work does not
depend on the codec's error rate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import binom

from fbclab import experiments
from fbclab.afc import AfcConfig, AfcModel, encoder_session_flops, load_checkpoint, save_checkpoint
from fbclab.per import read_per_csv

DATA = Path(__file__).resolve().parent / "data"
LIGHT_WEIGHTS = DATA / "default_light.npz"
HARQ_REFERENCE = DATA / "harq_crc_reference.json"

TRAIN_STEPS = 20
TRAIN_BATCH = 64
NEURAL_GRID = [0.0, 8.0, 2.0]
NEURAL_TRIALS = 200
HARQ_GRID = [-8.0, -2.0, 2.0]
HARQ_TRIALS = 500
HARQ_MAX_ATTEMPTS = 3
# Tail probability at which a PER check fails: a correct codec fails a point
# about once in a million calls.
ALPHA = 1e-6


def call_seed(seed: int, index: int) -> int:
    """Seed of the index-th call of a run: distinct inputs for every call."""
    return seed * 1000 + index


def load_light_model() -> AfcModel:
    """default_light codec with the stored trained weights, keyed by name."""
    model = AfcModel(AfcConfig.default_light(), seed=0)
    with np.load(LIGHT_WEIGHTS) as stored:
        names = [name for name, _ in model.parameters()]
        if sorted(stored.files) != sorted(names):
            raise ValueError(f"{LIGHT_WEIGHTS.name}: parameter names do not match the codec")
        for name, p in model.parameters():
            if stored[name].shape != p.shape:
                raise ValueError(f"{LIGHT_WEIGHTS.name}: {name} has shape {stored[name].shape}")
            p.data = np.array(stored[name], dtype=np.float64)
    return model


def reference_interval(ref_per: float, ref_trials: int, trials: int) -> tuple[float, float]:
    """PER interval a run of `trials` sessions lands in unless the code changed.

    The reference rate is taken at the ends of its own 95% interval (upper end
    3/ref_trials when it saw no errors), and the run's error count at the
    ALPHA tails of a binomial with that rate.
    """
    half = 1.96 * math.sqrt(ref_per * (1.0 - ref_per) / ref_trials)
    q_lo = max(0.0, ref_per - half)
    q_hi = min(1.0, max(ref_per + half, 3.0 / ref_trials))
    lo = binom.ppf(ALPHA / 2, trials, q_lo)
    hi = binom.isf(ALPHA / 2, trials, q_hi)
    return lo / trials, hi / trials


def more_errors(a: int, b: int) -> float:
    """P-value that a point with `a` errors has a higher PER than one with `b`.

    Both points ran the same number of trials, so under equal PER the split
    of the a + b errors is Binomial(a + b, 1/2). The per.csv confidence
    columns are not used: their normal approximation reads [0, 0] at zero
    errors, which would turn one stray error into a failure.
    """
    return float(binom.sf(a - 1, a + b, 0.5)) if a + b else 1.0


@dataclass
class Workload:
    name: str
    kind: str
    sessions_per_call: int
    codec: AfcConfig | None

    def setup(self, work: Path) -> None:
        """Prepare inputs in `work` and validate the parameters once."""
        experiments.validate_params(self.kind, self.params(0))

    def params(self, seed: int) -> dict:
        raise NotImplementedError

    def analytic_flops(self) -> int:
        return encoder_session_flops(self.codec) if self.codec else 0

    def check(self, out: Path, seed: int, counts: dict | None) -> list[str]:
        """Failure messages for one call's outputs; empty when all hold."""
        raise NotImplementedError


class TrainFull(Workload):
    def __init__(self):
        super().__init__("train-full", "train", TRAIN_STEPS * TRAIN_BATCH, AfcConfig.default_full())

    def params(self, seed):
        return {"steps": TRAIN_STEPS, "batch_size": TRAIN_BATCH, "alpha_schedule": "linear"}

    def check(self, out, seed, counts):
        with open(out / "history.csv", newline="") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        if len(losses) != TRAIN_STEPS:
            return [f"history has {len(losses)} rows, expected {TRAIN_STEPS}"]
        failures = []
        if not all(math.isfinite(v) for v in losses):
            failures.append("non-finite loss in history")
        tenth = max(1, TRAIN_STEPS // 10)
        first, last = np.mean(losses[:tenth]), np.mean(losses[-tenth:])
        if not last < first:
            failures.append(f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}")
        model = load_checkpoint(out / "model.ckpt")
        if model.config != self.codec:
            failures.append("checkpoint config differs from default_full")
        save_checkpoint(model, out / "reload.ckpt")
        if (out / "reload.ckpt").read_bytes() != (out / "model.ckpt").read_bytes():
            failures.append("checkpoint reload is not bit-exact")
        initial = AfcModel(self.codec, seed=seed)
        if all(
            np.array_equal(p.data, q.data)
            for (_, p), (_, q) in zip(model.parameters(), initial.parameters())
        ):
            failures.append("checkpoint holds the untrained weights")
        return failures


class PerNeuralTrace(Workload):
    def __init__(self):
        grid = experiments.expand_grid(NEURAL_GRID, "snr_grid")
        super().__init__(
            "per-neural-trace", "per-sweep", len(grid) * NEURAL_TRIALS, AfcConfig.default_light()
        )
        self.grid = grid

    def setup(self, work):
        self.checkpoint = work / "default_light.ckpt"
        save_checkpoint(load_light_model(), self.checkpoint)
        super().setup(work)

    def params(self, seed):
        return {
            "scheme": "neural",
            "checkpoint": str(self.checkpoint),
            "uplink_trace": {"kind": "mean-reverting"},
            "snr_grid": NEURAL_GRID,
            "max_trials": NEURAL_TRIALS,
            "target_errors": NEURAL_TRIALS + 1,
        }

    def check(self, out, seed, counts):
        points = read_per_csv(out / "per.csv")
        failures = _grid_failures(points, self.grid, NEURAL_TRIALS)
        for lo, hi in zip(points, points[1:]):
            if more_errors(hi.errors, lo.errors) < ALPHA:
                failures.append(
                    f"PER rises from {lo.per:.4f} at {lo.snr_db:g} dB"
                    f" to {hi.per:.4f} at {hi.snr_db:g} dB"
                )
        if points and more_errors(points[0].errors, points[-1].errors) >= ALPHA:
            failures.append("PER does not fall across the grid: is the codec trained?")
        return failures


class PerHarqCrc(Workload):
    def __init__(self):
        grid = experiments.expand_grid(HARQ_GRID, "snr_grid")
        super().__init__("per-harq-crc", "per-sweep", len(grid) * HARQ_TRIALS, None)
        self.grid = grid

    def setup(self, work):
        self.reference = json.loads(HARQ_REFERENCE.read_text())
        if self.reference["snr_db"] != self.grid:
            raise ValueError(f"{HARQ_REFERENCE.name} holds another SNR grid")
        super().setup(work)

    def params(self, seed):
        return {
            "scheme": "harq-cc",
            "harq_use_crc16": True,
            "harq_max_attempts": HARQ_MAX_ATTEMPTS,
            "snr_grid": HARQ_GRID,
            "max_trials": HARQ_TRIALS,
            "target_errors": HARQ_TRIALS + 1,
        }

    def check(self, out, seed, counts):
        points = read_per_csv(out / "per.csv")
        failures = _grid_failures(points, self.grid, HARQ_TRIALS)
        n_ref = self.reference["trials"]
        for point, ref_per in zip(points, self.reference["per"]):
            lo, hi = reference_interval(ref_per, n_ref, point.trials)
            if not lo <= point.per <= hi:
                failures.append(
                    f"PER {point.per:.5f} at {point.snr_db:g} dB is outside the"
                    f" reference interval [{lo:.5f}, {hi:.5f}]"
                )
        if counts is not None:
            decodes = counts["harq.decodes_per_session"]
            if not 1.0 <= decodes <= HARQ_MAX_ATTEMPTS:
                failures.append(f"{decodes} decodes per session outside [1, {HARQ_MAX_ATTEMPTS}]")
        return failures


def _grid_failures(points, grid, trials) -> list[str]:
    if [p.snr_db for p in points] != grid:
        return [f"PER rows at {[p.snr_db for p in points]}, expected {grid}"]
    return [
        f"{p.trials} trials at {p.snr_db:g} dB, expected {trials}"
        for p in points
        if p.trials != trials
    ]


WORKLOADS = {w.name: w for w in (TrainFull(), PerNeuralTrace(), PerHarqCrc())}
