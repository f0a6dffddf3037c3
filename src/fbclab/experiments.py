"""Experiment orchestration: validated configs in, result files out.

Every experiment kind has a documented table of keys, and a key whose value
is an object carries the table of that object: `model` the AfcConfig fields,
`uplink_trace` its kinds' fields, and `schemes` that of each entry. A key that
sets a library config field takes the field's type, default and bound, and a
runner builds the config from those keys (`keys.field_key`, `keys.built`).
`keys.check_keys` checks the params against these tables and names each fault
by its key path; a library object's own value check is reported under its key
path too. A run then executes and writes its result files and a manifest
recording the config, its hash, the seed, and the package version.
Every file goes through `fbclab.results`, which writes it atomically (temp
file + rename) with the mode a plain `open()` gives. Rerunning with the same
config and seed reproduces result bodies byte for byte; only the manifest
timestamp differs. A train run that hits a non-finite loss still writes the
history of the steps it made and a manifest with `status: "failed"` and the
failing step, then re-raises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .afc import MODEL_KEYS, AfcConfig, AfcModel, count_complexity, load_checkpoint, save_checkpoint
from .analysis import FpgaRow, coverage_report, fpga_report
from .channel import MeanRevertingTrace, PiecewiseTrace
from .errors import ConfigError, NumericalFailure
from .gradcheck import run_gradient_checks
from .harq import HarqConfig, harq_trial_fn, uncoded_bpsk_trial_fn
from .keys import (
    OPTIONAL, REQUIRED, TYPE_CHECKS, ParamSpec, built, check_keys, field_key, finite_number, reported,
)
from .per import measure_per, usable_cpus, write_per_csv
from .pipeline import (
    SweepRow,
    TimelineEvent,
    TimingParams,
    async_delta_prime,
    async_latency,
    latency_reduction,
    latency_sweep,
    simulate_timeline,
    sync_forward_share,
    sync_latency,
)
from .results import canonical, emit_results, write_json
from .training import (
    CurriculumConfig,
    ExponentialDecay,
    LinearDecay,
    TrainConfig,
    neural_trial_fn,
    train,
    write_history_csv,
)

OUTPUT_DIR_ENV = "FBCLAB_OUT"
# A [start, stop, step] grid holds at most this many points: else a mistyped
# step asks for millions of runs, or for more floats than memory holds.
MAX_GRID_POINTS = 10_000


def _chosen(key: str, *choices: str):
    return lambda p: None if p[key] in choices else f"{key} {p[key]!r}"


_HARQ, _NEURAL = (_chosen("scheme", "harq-cc"),), (_chosen("scheme", "neural"),)
_CODED = (_chosen("scheme", "harq-cc", "uncoded"),)
_CURRICULUM = (lambda p: None if p["fixed_snr_db"] is None else "a run at fixed_snr_db",)
_LINEAR = (*_CURRICULUM, _chosen("alpha_schedule", "linear"))
_EXPONENTIAL = (*_CURRICULUM, _chosen("alpha_schedule", "exponential"))
_MEAN_REVERTING, _PIECEWISE = (_chosen("kind", "mean-reverting"),), (_chosen("kind", "piecewise"),)
# The default anchors, whose fields the anchor keys set.
_ORIG, _TARG = CurriculumConfig().p_orig, CurriculumConfig().p_targ

# The keys of an `uplink_trace`: its kind's fields; the grid point sets `mean_db`
# or offsets `points`. No `start_db` (null is no setting) starts at the mean.
TRACE_KEYS = {
    "kind": ParamSpec(
        "string", "mean-reverting", "mean-reverting | piecewise", choices=("mean-reverting", "piecewise")
    ),
    "reversion_rate": field_key(MeanRevertingTrace, "reversion_rate", "1/ms", read_if=_MEAN_REVERTING),
    "volatility": field_key(MeanRevertingTrace, "volatility", "dB/sqrt(ms)", read_if=_MEAN_REVERTING),
    "start_db": field_key(
        MeanRevertingTrace, "start_db", "first read (default: the mean)",
        default=OPTIONAL, read_if=_MEAN_REVERTING,
    ),
    "points": ParamSpec("list", [], "[time_ms, offset_db] pairs, times increasing", read_if=_PIECEWISE),
}

COVERAGE_ENTRY_KEYS = {
    "scheme": ParamSpec("string", REQUIRED, "scheme name"),
    "delta_snr_db": ParamSpec("number", REQUIRED, "SNR gap to the reference in dB"),
    "reported_distance_ratio": ParamSpec(
        "number", OPTIONAL, "published distance ratio to compare", minimum=0, strict=True
    ),
}


TIMING_KEYS = {
    "delta_ms": field_key(
        TimingParams, "delta", "forward interval: encode, then transmit for min(delta_ms, min_forward_ms)"
    ),
    "delta_tilde_ms": field_key(TimingParams, "delta_tilde", "feedback interval"),
    "rounds": field_key(TimingParams, "rounds", "rounds per session"),
    "min_forward_ms": field_key(TimingParams, "min_forward", "minimum forward air time"),
}
# The closed forms and the sweep compare against a pipelined schedule, which
# needs two rounds; an async timeline checks that itself.
_PIPELINED_ROUNDS = dataclasses.replace(TIMING_KEYS["rounds"], minimum=2)

SCHEMAS: dict[str, dict[str, ParamSpec]] = {
    "latency": {**TIMING_KEYS, "rounds": _PIPELINED_ROUNDS},
    "latency-sweep": {
        "deltas": ParamSpec("list", [1.0, 30.0, 1.0], "forward sweep [start, stop, step] or explicit list"),
        "delta_tildes": ParamSpec("list", [4.0], "feedback sweep [start, stop, step] or explicit list"),
        # the two grids stand for delta_ms and delta_tilde_ms
        "rounds": _PIPELINED_ROUNDS,
        "min_forward_ms": TIMING_KEYS["min_forward_ms"],
    },
    "timeline": {
        **TIMING_KEYS,
        "mode": ParamSpec("string", "async", "sync or async", choices=("sync", "async")),
        "jitter": ParamSpec("dict", None, "extra encode ms per round, e.g. {\"5\": 100}"),
    },
    "coverage": {
        "exponent": ParamSpec("number", 3.0, "path loss exponent", minimum=0, strict=True),
        "schemes": ParamSpec(
            "list",
            [
                {"scheme": "neural-fb-vs-polar-harq", "delta_snr_db": 8.6, "reported_distance_ratio": 1.70},
                {"scheme": "turbo-harq-vs-polar-harq", "delta_snr_db": 1.1, "reported_distance_ratio": 1.70 / 1.38},
            ],
            "schemes to compare; each {scheme, delta_snr_db[, reported_distance_ratio]}",
            keys=COVERAGE_ENTRY_KEYS,
        ),
    },
    "complexity": {
        "model": ParamSpec("dict", None, "overrides applied to both codec variants", keys={
            **MODEL_KEYS,  # the two variants set `lightweight` themselves
            "lightweight": dataclasses.replace(
                MODEL_KEYS["lightweight"], read_if=(lambda p: "kind 'complexity'",)
            ),
        }),
    },
    "gradcheck": {
        "model": ParamSpec("dict", None, "overrides for the tiny check model", keys=MODEL_KEYS),
        "step": ParamSpec("number", 1e-5, "finite-difference step", minimum=0, strict=True),
        "tolerance": ParamSpec("number", 1e-4, "max allowed relative error", minimum=0, strict=True),
    },
    "per-sweep": {
        "scheme": ParamSpec(
            "string", "harq-cc", "harq-cc | uncoded | neural", choices=("harq-cc", "uncoded", "neural")
        ),
        "snr_grid": ParamSpec("list", [0.0, 10.0, 2.0], "[start, stop, step] or explicit list"),
        "max_trials": ParamSpec("int", 1_000_000, "trial cap per grid point", minimum=100),
        "target_errors": ParamSpec("int", 100, "early-stop error count per point", minimum=1),
        "batch_size": ParamSpec("int", 200, "trials per Monte-Carlo batch", minimum=1),
        "k": field_key(HarqConfig, "k", "info bits (harq-cc and uncoded schemes)", read_if=_CODED),
        "harq_max_attempts": field_key(HarqConfig, "max_attempts", "attempt budget", read_if=_HARQ),
        "harq_use_crc16": field_key(
            HarqConfig, "use_crc16", "CRC-16 ack instead of genie ack", read_if=_HARQ
        ),
        "checkpoint": ParamSpec("string", None, "codec checkpoint (neural scheme)", read_if=_NEURAL),
        "feedback_snr_db": ParamSpec(
            "number", None, "AWGN feedback SNR (default: ideal feedback)", read_if=_NEURAL
        ),
        "uplink_trace": ParamSpec(
            "dict",
            None,
            "uplink read at the round times, 1 ms apart: {kind: mean-reverting, reversion_rate,"
            " volatility, start_db} (mean: the grid point) or {kind: piecewise, points} (offsets from it)",
            read_if=_NEURAL,
            keys=TRACE_KEYS,
        ),
    },
    "train": {
        "model": ParamSpec("dict", None, "codec config overrides (see AfcConfig)", keys=MODEL_KEYS),
        "steps": field_key(TrainConfig, "steps", "optimizer steps"),
        "batch_size": field_key(TrainConfig, "batch_size", "sessions per step"),
        "learning_rate": field_key(TrainConfig, "learning_rate", "Adam step size"),
        "fixed_snr_db": field_key(TrainConfig, "fixed_snr_db", "train at one SNR, bypassing the curriculum"),
        "noiseless_uplink": field_key(TrainConfig, "noiseless_uplink", "disable uplink noise"),
        "feedback_snr_db": field_key(
            TrainConfig, "feedback_snr_db", "AWGN feedback SNR (default: ideal feedback)"
        ),
        "orig_mean_db": field_key(_ORIG, "mean_db", "benign anchor mean", read_if=_CURRICULUM),
        "orig_std_db": field_key(_ORIG, "std_db", "benign anchor std", read_if=_CURRICULUM),
        "targ_mean_db": field_key(_TARG, "mean_db", "harsh anchor mean", read_if=_CURRICULUM),
        "targ_std_db": field_key(_TARG, "std_db", "harsh anchor std", read_if=_CURRICULUM),
        "sigma_p": field_key(CurriculumConfig, "sigma_p", "perturbation std", read_if=_CURRICULUM),
        "alpha_schedule": ParamSpec(
            "string", "linear", "linear | exponential",
            choices=("linear", "exponential"), read_if=_CURRICULUM,
        ),
        "alpha_start": field_key(LinearDecay, "k_start", "step where linear decay begins", read_if=_LINEAR),
        "alpha_end": field_key(
            LinearDecay, "k_end", "step where linear decay reaches 0 (default: steps)", read_if=_LINEAR
        ),
        "alpha_rate": field_key(ExponentialDecay, "rate", "exponential decay rate", read_if=_EXPONENTIAL),
    },
}

STOCHASTIC_KINDS = ("per-sweep", "train", "gradcheck")

@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int | None = None
    out_dir: str | None = None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_params(kind: str, params: dict) -> dict:
    """`params` checked against its kind's table by `keys.check_keys`."""
    if kind not in SCHEMAS:
        raise ConfigError(f"kind: unknown experiment kind {kind!r}")
    return check_keys(params, SCHEMAS[kind], "params", f"unknown key for kind {kind!r}")


def require_seed(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise ConfigError(f"seed: required for kind {config.kind!r}")
    return config.seed


def expand_grid(spec, name: str, minimum: float | None = None) -> list[float]:
    """A 3-element [start, stop, step] is an inclusive range; else a list.

    Every entry must be a finite number, a range is counted before it is
    built, and every value is at least `minimum` when one is given.
    """
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"params.{name}: expected a non-empty list")
    if not all(finite_number(v) for v in spec):
        raise ConfigError(f"params.{name}: every entry must be a finite number")
    values = [float(v) for v in spec]
    if len(values) == 3:
        start, stop, step = values
        if step <= 0:
            raise ConfigError(f"params.{name}: step must be > 0")
        count = np.floor((stop - start) / step + 1e-9) + 1  # inf when the span or ratio overflows
        if count < 1:
            raise ConfigError(f"params.{name}: empty range")
        if count > MAX_GRID_POINTS:
            raise ConfigError(
                f"params.{name}: {count:.0f} points, more than the {MAX_GRID_POINTS} a grid may hold"
            )
        values = [start + i * step for i in range(int(count))]
    if minimum is not None and min(values) < minimum:
        raise ConfigError(f"params.{name}: every value must be >= {minimum}, got {min(values)}")
    return values


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(
        {"kind": config.kind, "params": canonical(config.params), "seed": config.seed},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _run_latency(p: dict, seed, out: Path) -> list[str]:
    t = built(TimingParams, p, TIMING_KEYS)
    if sync_latency(t) == 0:
        raise ConfigError("params.delta_ms: must be > 0 while delta_tilde_ms is 0: the sync total is 0 ms")
    payload = {
        "delta_ms": t.delta,
        "delta_tilde_ms": t.delta_tilde,
        "rounds": t.rounds,
        "sync_ms": sync_latency(t),
        "async_ms": async_latency(t),
        "delta_prime_ms": async_delta_prime(t),
        "reduction": latency_reduction(t),
        "forward_share_sync": sync_forward_share(t),
    }
    write_json(out / "latency.json", payload)
    return ["latency.json"]


def _run_latency_sweep(p: dict, seed, out: Path) -> list[str]:
    deltas, delta_tildes = (expand_grid(p[k], k, minimum=0) for k in ("deltas", "delta_tildes"))
    rows = latency_sweep(deltas, delta_tildes, p["rounds"], p["min_forward_ms"])
    emit_results(rows, out / "latency_sweep.csv", SweepRow)
    return ["latency_sweep.csv"]


def _run_timeline(p: dict, seed, out: Path) -> list[str]:
    if p["mode"] == "async" and p["rounds"] < 2:
        raise ConfigError(
            f"params.rounds: the pipelined schedule needs rounds >= 2, got {p['rounds']}"
        )
    round_of = {str(t): t for t in range(p["rounds"])}
    jitter = {}
    for key, value in (p["jitter"] or {}).items():
        if key not in round_of:
            raise ConfigError(f"params.jitter.{key}: not a round index in 0..{p['rounds'] - 1}")
        if not (finite_number(value) and value >= 0):
            raise ConfigError(f"params.jitter.{key}: expected a finite number >= 0, got {value!r}")
        jitter[round_of[key]] = float(value)
    tl = simulate_timeline(built(TimingParams, p, TIMING_KEYS), p["mode"], inference_jitter=jitter)
    emit_results(tl.events, out / "timeline.csv", TimelineEvent)
    write_json(
        out / "timeline_summary.json",
        {
            "mode": tl.mode,
            "total_latency_ms": tl.total_latency,
            "skipped_rounds": tl.skipped_rounds,
        },
    )
    return ["timeline.csv", "timeline_summary.json"]


def _run_coverage(p: dict, seed, out: Path) -> list[str]:
    reports = [
        reported(
            f"params.schemes[{i}]",
            coverage_report,
            entry["scheme"],
            float(entry["delta_snr_db"]),
            float(p["exponent"]),
            reported_distance_ratio=entry.get("reported_distance_ratio"),
        )
        for i, entry in enumerate(p["schemes"])
    ]
    write_json(out / "coverage.json", reports)
    return ["coverage.json"]


def _run_complexity(p: dict, seed, out: Path) -> list[str]:
    overrides = p["model"] or {}
    full_cfg = reported("params.model", AfcConfig, **overrides)
    light_cfg = reported("params.model", dataclasses.replace, AfcConfig.default_light(), **overrides)
    full, light = count_complexity(full_cfg), count_complexity(light_cfg)

    def _enc_enumeration(cfg):
        model = AfcModel(cfg, seed=0)
        return sum(
            t.size for name, t in model.parameters() if name.startswith(("snr_mlp", "enc_"))
        )

    payload = {
        "full": full,
        "light": light,
        "param_reduction": 1.0 - light["params"] / full["params"],
        "flop_reduction": 1.0 - light["flops_per_session"] / full["flops_per_session"],
        "counter_matches_enumeration": (
            full["params"] == _enc_enumeration(full_cfg)
            and light["params"] == _enc_enumeration(light_cfg)
        ),
    }
    write_json(out / "complexity.json", payload)
    emit_results(fpga_report(light["flops_per_session"]), out / "fpga.csv", FpgaRow)
    return ["complexity.json", "fpga.csv"]


def _run_gradcheck(p: dict, seed, out: Path) -> list[str]:
    overrides = p["model"]
    custom = reported("params.model", AfcConfig.tiny, **overrides) if overrides else None
    results = run_gradient_checks(seed, p["step"], p["tolerance"], custom)
    write_json(out / "gradcheck.json", results)
    return ["gradcheck.json"]


def _uplink_trace(trace: dict | None):
    """The checked `uplink_trace` parameter as a map from grid SNR to trace
    kind, or None. The grid SNR is a mean-reverting trace's mean and is added
    to a piecewise trace's points: finite [time_ms, offset_db] pairs that
    PiecewiseTrace accepts, or a ConfigError names them.
    """
    if trace is None:
        return None
    if trace.get("kind") != "piecewise":
        at_zero = built(MeanRevertingTrace, trace, TRACE_KEYS, "params.uplink_trace", mean_db=0.0)
        return lambda mean_db: dataclasses.replace(at_zero, mean_db=mean_db)
    points = trace.get("points", [])
    if not all(isinstance(pt, list) and len(pt) == 2 and all(map(finite_number, pt)) for pt in points):
        raise ConfigError("params.uplink_trace.points: expected a list of finite [time_ms, offset_db] pairs")
    offsets = reported("params.uplink_trace", PiecewiseTrace, points).points
    return lambda mean_db: PiecewiseTrace([[t, mean_db + v] for t, v in offsets])


def _run_per_sweep(p: dict, seed: int, out: Path) -> list[str]:
    grid = expand_grid(p["snr_grid"], "snr_grid")
    scheme = p["scheme"]
    if scheme == "harq-cc":
        trial = harq_trial_fn(built(HarqConfig, p, SCHEMAS["per-sweep"]))
    elif scheme == "uncoded":
        trial = uncoded_bpsk_trial_fn(p["k"])
    else:
        uplink_trace = _uplink_trace(p["uplink_trace"])
        if not p["checkpoint"]:
            raise ConfigError("params.checkpoint: required for scheme 'neural'")
        model = load_checkpoint(p["checkpoint"])
        trial = neural_trial_fn(model, feedback_snr_db=p["feedback_snr_db"], uplink_trace=uplink_trace)
    points = measure_per(
        trial,
        grid,
        max_trials=p["max_trials"],
        target_errors=p["target_errors"],
        seed=seed,
        batch_size=p["batch_size"],
        # Codec points spend their time in BLAS and numpy calls long enough
        # to release the interpreter lock, so they run one per CPU; the
        # Viterbi's steps are too short for threads to pay.
        threads=usable_cpus() if scheme == "neural" else 1,
    )
    write_per_csv(points, out / "per.csv")
    return ["per.csv"]


def _curriculum(p: dict) -> CurriculumConfig:
    """The train curriculum; at a fixed SNR, which bypasses it, the default."""
    if p["fixed_snr_db"] is not None:
        return CurriculumConfig()
    table = SCHEMAS["train"]
    schedule = LinearDecay if p["alpha_schedule"] == "linear" else ExponentialDecay
    return built(
        CurriculumConfig, p, table,
        p_orig=built(_ORIG, p, table),
        p_targ=built(_TARG, p, table),
        schedule=built(schedule, p, table),
        total_steps=p["steps"],
    )


def _run_train(p: dict, seed: int, out: Path) -> list[str]:
    model = AfcModel(reported("params.model", AfcConfig, **(p["model"] or {})), seed=seed)
    tc = built(TrainConfig, p, SCHEMAS["train"], seed=seed)
    try:
        history = train(model, _curriculum(p), tc)
    except NumericalFailure as exc:
        # A failed run leaves the steps it made and where it stopped.
        write_history_csv(exc.history, out / "history.csv")
        manifest = _manifest("train", p, seed, ["history.csv"])
        manifest.update(status="failed", failed_step=exc.step, error=str(exc))
        write_json(out / "manifest.json", manifest)
        raise
    write_history_csv(history, out / "history.csv")
    save_checkpoint(model, out / "model.ckpt")
    return ["history.csv", "model.ckpt"]


_RUNNERS = {
    "latency": _run_latency,
    "latency-sweep": _run_latency_sweep,
    "timeline": _run_timeline,
    "coverage": _run_coverage,
    "complexity": _run_complexity,
    "gradcheck": _run_gradcheck,
    "per-sweep": _run_per_sweep,
    "train": _run_train,
}


def default_out_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "results")


def run_experiment(config: ExperimentConfig) -> dict:
    """Validate, run, and write outputs plus a manifest; returns the manifest."""
    seed = config.seed
    if seed is not None and not (TYPE_CHECKS["int"](seed) and seed >= 0):
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
    params = validate_params(config.kind, config.params)
    if config.kind in STOCHASTIC_KINDS:
        seed = require_seed(config)
    out = Path(config.out_dir or default_out_dir())
    outputs = _RUNNERS[config.kind](params, seed, out)
    manifest = _manifest(config.kind, params, seed, outputs)
    write_json(out / "manifest.json", manifest)
    return manifest


def _manifest(kind: str, params: dict, seed, outputs: list[str]) -> dict:
    return {
        "kind": kind,
        "params": canonical(params),
        "seed": seed,
        "config_sha256": config_hash(ExperimentConfig(kind, params, seed)),
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
