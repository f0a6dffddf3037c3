"""Experiment orchestration: validated configs in, result files out.

Every experiment kind has a documented parameter schema. A run validates its
parameters (unknown keys and type errors are reported with their full key
path), executes, and writes its result files and a manifest recording the
config, its hash, the seed, and the package version. Every file goes through
`fbclab.results`, which writes it atomically (temp file + rename) with the
mode a plain `open()` gives. Rerunning with the same config and seed
reproduces result bodies byte for byte; only the manifest timestamp differs.
A train run that hits a non-finite loss still writes the history of the
steps it made and a manifest with `status: "failed"` and the failing step,
then re-raises.
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
from .afc import (
    AfcConfig,
    AfcModel,
    count_complexity,
    load_checkpoint,
    save_checkpoint,
)
from .analysis import coverage_report, fpga_report
from .channel import MeanRevertingTrace, PiecewiseTrace
from .errors import ConfigError, NumericalFailure
from .gradcheck import run_gradient_checks
from .harq import HarqConfig, harq_trial_fn, uncoded_bpsk_trial_fn
from .per import measure_per, write_per_csv
from .pipeline import (
    TimingParams,
    async_delta_prime,
    async_latency,
    latency_reduction,
    latency_sweep,
    simulate_timeline,
    sweep_to_csv,
    sync_forward_share,
    sync_latency,
    timeline_to_csv,
)
from .results import canonical, write_json
from .training import (
    CurriculumConfig,
    ExponentialDecay,
    GaussianAnchor,
    LinearDecay,
    TrainConfig,
    evaluate_robustness,
    neural_trial_fn,
    train,
    write_history_csv,
)

OUTPUT_DIR_ENV = "FBCLAB_OUT"


@dataclass
class ParamSpec:
    type: str  # number | int | bool | string | list | dict
    default: object
    help: str


def _timing_keys() -> dict[str, ParamSpec]:
    return {
        "delta_ms": ParamSpec("number", 10.0, "forward interval (encode + transmit)"),
        "delta_tilde_ms": ParamSpec("number", 4.0, "feedback interval"),
        "tau_enc_ms": ParamSpec("number", None, "encode time; overrides the delta split"),
        "tau_tx_ms": ParamSpec("number", None, "transmit time; overrides the delta split"),
        "tau_fb_ms": ParamSpec("number", None, "feedback time; overrides delta_tilde_ms"),
        "rounds": ParamSpec("int", 9, "rounds per session"),
        "min_forward_ms": ParamSpec("number", 1.0, "minimum forward air time"),
    }


SCHEMAS: dict[str, dict[str, ParamSpec]] = {
    "latency": _timing_keys(),
    "latency-sweep": {
        **_timing_keys(),
        "deltas": ParamSpec("list", [1.0, 30.0, 1.0], "forward sweep [start, stop, step] or explicit list"),
        "delta_tildes": ParamSpec("list", [4.0], "feedback sweep [start, stop, step] or explicit list"),
    },
    "timeline": {
        **_timing_keys(),
        "mode": ParamSpec("string", "async", "sync or async"),
        "feedback_lag": ParamSpec("int", 2, "rounds between a transmission and usable feedback"),
        "jitter": ParamSpec("dict", None, "extra encode ms per round, e.g. {\"5\": 100}"),
    },
    "coverage": {
        "exponent": ParamSpec("number", 3.0, "path loss exponent"),
        "schemes": ParamSpec(
            "list",
            [
                {"scheme": "neural-fb-vs-polar-harq", "delta_snr_db": 8.6, "reported_distance_ratio": 1.70},
                {"scheme": "turbo-harq-vs-polar-harq", "delta_snr_db": 1.1, "reported_distance_ratio": 1.70 / 1.38},
            ],
            "schemes to compare; each {scheme, delta_snr_db[, reported_distance_ratio]}",
        ),
    },
    "complexity": {
        "model": ParamSpec("dict", None, "overrides applied to both codec variants"),
        "fpga": ParamSpec("bool", True, "also emit the FPGA throughput table"),
    },
    "gradcheck": {
        "model": ParamSpec("dict", None, "overrides for the tiny check model"),
        "step": ParamSpec("number", 1e-5, "finite-difference step"),
        "tolerance": ParamSpec("number", 1e-4, "max allowed relative error"),
    },
    "per-sweep": {
        "scheme": ParamSpec("string", "harq-cc", "harq-cc | uncoded | neural"),
        "snr_grid": ParamSpec("list", [0.0, 10.0, 2.0], "[start, stop, step] or explicit list"),
        "max_trials": ParamSpec("int", 1_000_000, "trial cap per grid point"),
        "target_errors": ParamSpec("int", 100, "early-stop error count per point"),
        "batch_size": ParamSpec("int", 200, "trials per Monte-Carlo batch"),
        "k": ParamSpec("int", 47, "info bits (uncoded scheme)"),
        "harq_k": ParamSpec("int", 47, "info bits (harq-cc scheme)"),
        "harq_max_attempts": ParamSpec("int", 3, "attempt budget"),
        "harq_use_crc16": ParamSpec("bool", False, "CRC-16 ack instead of genie ack"),
        "checkpoint": ParamSpec("string", None, "codec checkpoint (neural scheme)"),
        "noiseless_feedback": ParamSpec("bool", True, "ideal feedback channel"),
        "feedback_snr_db": ParamSpec("number", 20.0, "feedback SNR when noisy"),
        "uplink_trace": ParamSpec(
            "dict",
            None,
            "time-varying uplink for the neural scheme: {kind: mean-reverting|piecewise, ...};"
            " the grid point sets the trace mean",
        ),
        "round_period_ms": ParamSpec("number", 1.0, "per-round spacing along the trace"),
    },
    "train": {
        "model": ParamSpec("dict", None, "codec config overrides (see AfcConfig)"),
        "steps": ParamSpec("int", 1000, "optimizer steps"),
        "batch_size": ParamSpec("int", 64, "sessions per step"),
        "learning_rate": ParamSpec("number", 1e-3, "Adam step size"),
        "adam_beta1": ParamSpec("number", 0.9, "Adam first-moment decay"),
        "adam_beta2": ParamSpec("number", 0.999, "Adam second-moment decay"),
        "adam_eps": ParamSpec("number", 1e-8, "Adam epsilon"),
        "fixed_snr_db": ParamSpec("number", None, "train at one SNR, bypassing the curriculum"),
        "noiseless_uplink": ParamSpec("bool", False, "disable uplink noise"),
        "noiseless_feedback": ParamSpec("bool", True, "disable feedback noise"),
        "feedback_snr_db": ParamSpec("number", 20.0, "feedback SNR when noisy"),
        "orig_mean_db": ParamSpec("number", 8.0, "benign anchor mean"),
        "orig_std_db": ParamSpec("number", 1.0, "benign anchor std"),
        "targ_mean_db": ParamSpec("number", 0.0, "harsh anchor mean"),
        "targ_std_db": ParamSpec("number", 1.0, "harsh anchor std"),
        "sigma_p": ParamSpec("number", 1.0, "perturbation std"),
        "alpha_schedule": ParamSpec("string", "linear", "linear | exponential"),
        "alpha_start": ParamSpec("int", 0, "step where linear decay begins"),
        "alpha_end": ParamSpec("int", None, "step where linear decay reaches 0 (default: steps)"),
        "alpha_rate": ParamSpec("number", 0.005, "exponential decay rate"),
        "eval_snr_grid": ParamSpec("list", None, "optional post-training PER grid"),
        "eval_max_trials": ParamSpec("int", 2000, "PER trial cap per point"),
        "eval_target_errors": ParamSpec("int", 100, "PER early-stop errors"),
    },
}

STOCHASTIC_KINDS = ("per-sweep", "train", "gradcheck")

# Where every module tunable surfaces in the schemas; "fixed:" entries are
# derived quantities or deliberate constants. The completeness test walks this.
TUNABLE_REGISTRY: dict[str, dict[str, str]] = {
    "pipeline.TimingParams": {
        "tau_enc": "latency.tau_enc_ms",
        "tau_tx": "latency.tau_tx_ms",
        "tau_fb": "latency.tau_fb_ms",
        "rounds": "latency.rounds",
        "min_forward": "latency.min_forward_ms",
    },
    "harq.HarqConfig": {
        "k": "per-sweep.harq_k",
        "max_attempts": "per-sweep.harq_max_attempts",
        "use_crc16": "per-sweep.harq_use_crc16",
    },
    "afc.AfcConfig": {f.name: "train.model" for f in dataclasses.fields(AfcConfig)},
    "training.TrainConfig": {
        "steps": "train.steps",
        "batch_size": "train.batch_size",
        "learning_rate": "train.learning_rate",
        "adam_beta1": "train.adam_beta1",
        "adam_beta2": "train.adam_beta2",
        "adam_eps": "train.adam_eps",
        "seed": "fixed: top-level --seed option shared by every kind",
        "fixed_snr_db": "train.fixed_snr_db",
        "noiseless_uplink": "train.noiseless_uplink",
        "noiseless_feedback": "train.noiseless_feedback",
        "feedback_snr_db": "train.feedback_snr_db",
    },
    "training.CurriculumConfig": {
        "p_orig": "train.orig_mean_db",
        "p_targ": "train.targ_mean_db",
        "schedule": "train.alpha_schedule",
        "sigma_p": "train.sigma_p",
        "total_steps": "train.steps",
    },
    "channel.MeanRevertingTrace": {
        "mean_db": "per-sweep.snr_grid",
        "reversion_rate": "per-sweep.uplink_trace",
        "volatility": "per-sweep.uplink_trace",
        "step_ms": "per-sweep.uplink_trace",
        "start_db": "per-sweep.uplink_trace",
    },
}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int | None = None
    out_dir: str | None = None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_TYPE_CHECKS = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
}


def validate_params(kind: str, params: dict) -> dict:
    """Fill defaults and type-check; ConfigError messages carry key paths."""
    if kind not in SCHEMAS:
        raise ConfigError(f"kind: unknown experiment kind {kind!r}")
    schema = SCHEMAS[kind]
    for key in params:
        if key not in schema:
            raise ConfigError(f"params.{key}: unknown key for kind {kind!r}")
    out = {}
    for key, spec in schema.items():
        value = params.get(key, spec.default)
        if value is not None and not _TYPE_CHECKS[spec.type](value):
            raise ConfigError(
                f"params.{key}: expected {spec.type}, got {type(value).__name__}"
            )
        out[key] = value
    if kind == "train" or (kind == "gradcheck" and out.get("model")):
        _check_fields("params.model", out.get("model"), AfcConfig)
    if kind == "complexity":
        _check_fields("params.model", out.get("model"), AfcConfig)
    return out


def _check_fields(path: str, overrides: dict | None, dc_type) -> None:
    if not overrides:
        return
    allowed = {f.name for f in dataclasses.fields(dc_type)}
    for key in overrides:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def require_seed(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise ConfigError(f"seed: required for kind {config.kind!r}")
    return config.seed


def expand_grid(spec, name: str) -> list[float]:
    """A 3-element [start, stop, step] is an inclusive range; else a list.

    Every entry must be a finite number.
    """
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"params.{name}: expected a non-empty list")
    if not all(_TYPE_CHECKS["number"](v) and np.isfinite(v) for v in spec):
        raise ConfigError(f"params.{name}: every entry must be a finite number")
    values = [float(v) for v in spec]
    if len(values) == 3:
        start, stop, step = values
        if step <= 0:
            raise ConfigError(f"params.{name}: step must be > 0")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ConfigError(f"params.{name}: empty range")
        return [start + i * step for i in range(n)]
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


def _timing_from_params(p: dict) -> TimingParams:
    taus = [p.get("tau_enc_ms"), p.get("tau_tx_ms"), p.get("tau_fb_ms")]
    if all(v is not None for v in taus):
        return TimingParams(taus[0], taus[1], taus[2], p["rounds"], p["min_forward_ms"])
    if any(v is not None for v in taus):
        raise ConfigError("params.tau_enc_ms: give all three tau_* keys or none")
    return TimingParams.from_deltas(
        p["delta_ms"], p["delta_tilde_ms"], p["rounds"], p["min_forward_ms"]
    )


def _run_latency(p: dict, seed, out: Path) -> list[str]:
    t = _timing_from_params(p)
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
    rows = latency_sweep(
        expand_grid(p["deltas"], "deltas"),
        expand_grid(p["delta_tildes"], "delta_tildes"),
        p["rounds"],
        p["min_forward_ms"],
    )
    sweep_to_csv(rows, out / "latency_sweep.csv")
    return ["latency_sweep.csv"]


def _run_timeline(p: dict, seed, out: Path) -> list[str]:
    jitter = None
    if p["jitter"]:
        try:
            jitter = {int(k): float(v) for k, v in p["jitter"].items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"params.jitter: {exc}") from exc
    tl = simulate_timeline(
        _timing_from_params(p),
        p["mode"],
        inference_jitter=jitter,
        rng=np.random.default_rng(seed or 0),
        feedback_lag=p["feedback_lag"],
    )
    timeline_to_csv(tl, out / "timeline.csv")
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
    reports = []
    for i, entry in enumerate(p["schemes"]):
        if not isinstance(entry, dict) or "scheme" not in entry or "delta_snr_db" not in entry:
            raise ConfigError(
                f"params.schemes[{i}]: need at least scheme and delta_snr_db"
            )
        reports.append(
            coverage_report(
                entry["scheme"],
                float(entry["delta_snr_db"]),
                float(p["exponent"]),
                reported_distance_ratio=entry.get("reported_distance_ratio"),
            )
        )
    write_json(out / "coverage.json", reports)
    return ["coverage.json"]


def _run_complexity(p: dict, seed, out: Path) -> list[str]:
    overrides = dict(p["model"] or {})
    overrides.pop("lightweight", None)
    full_cfg = AfcConfig(**overrides)
    light_overrides = {"sparse_ff_window": 2, **overrides, "lightweight": True}
    light_cfg = AfcConfig(**light_overrides)
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
    outputs = ["complexity.json"]
    if p["fpga"]:
        from .analysis import fpga_report_csv

        fpga_report_csv(fpga_report(light["flops_per_session"]), out / "fpga.csv")
        outputs.append("fpga.csv")
    return outputs


def _run_gradcheck(p: dict, seed, out: Path) -> list[str]:
    overrides = p["model"]
    config = AfcConfig.tiny(**overrides) if overrides else None
    results = run_gradient_checks(seed=seed, h=p["step"], tol=p["tolerance"])
    if config is not None:
        from .gradcheck import check_session_loss

        results["session_loss_custom"] = check_session_loss(config, seed=seed, h=p["step"])
        results["max_rel_error"] = max(results["max_rel_error"], results["session_loss_custom"])
        results["passed"] = bool(results["max_rel_error"] < p["tolerance"])
    write_json(out / "gradcheck.json", results)
    return ["gradcheck.json"]


def _trace_kind(trace_params: dict):
    """The `uplink_trace` parameter as a map from grid SNR to trace kind."""
    kind_name = trace_params.get("kind", "mean-reverting")
    if kind_name == "mean-reverting":
        kwargs = {
            k: trace_params[k]
            for k in ("reversion_rate", "volatility", "step_ms", "start_db")
            if k in trace_params
        }
        return lambda mean_db: MeanRevertingTrace(mean_db=mean_db, **kwargs)
    if kind_name == "piecewise":
        return lambda mean_db: PiecewiseTrace(points=[tuple(pt) for pt in trace_params["points"]])
    raise ConfigError(f"params.uplink_trace.kind: unknown kind {kind_name!r}")


def _run_per_sweep(p: dict, seed: int, out: Path) -> list[str]:
    grid = expand_grid(p["snr_grid"], "snr_grid")
    scheme = p["scheme"]
    if scheme == "harq-cc":
        trial = harq_trial_fn(
            HarqConfig(p["harq_k"], p["harq_max_attempts"], p["harq_use_crc16"])
        )
    elif scheme == "uncoded":
        trial = uncoded_bpsk_trial_fn(p["k"])
    elif scheme == "neural":
        if not p["checkpoint"]:
            raise ConfigError("params.checkpoint: required for scheme 'neural'")
        model = load_checkpoint(p["checkpoint"])
        trial = neural_trial_fn(
            model,
            p["noiseless_feedback"],
            p["feedback_snr_db"],
            _trace_kind(p["uplink_trace"]) if p["uplink_trace"] else None,
            p["round_period_ms"],
        )
    else:
        raise ConfigError(f"params.scheme: unknown scheme {scheme!r}")
    points = measure_per(
        trial,
        grid,
        max_trials=p["max_trials"],
        target_errors=p["target_errors"],
        seed=seed,
        batch_size=p["batch_size"],
    )
    write_per_csv(points, out / "per.csv")
    return ["per.csv"]


def _run_train(p: dict, seed: int, out: Path) -> list[str]:
    model = AfcModel(AfcConfig(**(p["model"] or {})), seed=seed)
    if p["alpha_schedule"] == "linear":
        schedule = LinearDecay(p["alpha_start"], p["alpha_end"])
    elif p["alpha_schedule"] == "exponential":
        schedule = ExponentialDecay(p["alpha_rate"])
    else:
        raise ConfigError(
            f"params.alpha_schedule: expected linear or exponential, got {p['alpha_schedule']!r}"
        )
    curriculum = CurriculumConfig(
        GaussianAnchor(p["orig_mean_db"], p["orig_std_db"]),
        GaussianAnchor(p["targ_mean_db"], p["targ_std_db"]),
        schedule,
        p["sigma_p"],
        p["steps"],
    )
    tc = TrainConfig(
        steps=p["steps"],
        batch_size=p["batch_size"],
        learning_rate=p["learning_rate"],
        adam_beta1=p["adam_beta1"],
        adam_beta2=p["adam_beta2"],
        adam_eps=p["adam_eps"],
        seed=seed,
        fixed_snr_db=p["fixed_snr_db"],
        noiseless_uplink=p["noiseless_uplink"],
        noiseless_feedback=p["noiseless_feedback"],
        feedback_snr_db=p["feedback_snr_db"],
    )
    eval_grid = expand_grid(p["eval_snr_grid"], "eval_snr_grid") if p["eval_snr_grid"] else None
    try:
        history = train(model, curriculum, tc)
    except NumericalFailure as exc:
        # A failed run leaves the steps it made and where it stopped.
        write_history_csv(exc.history, out / "history.csv")
        manifest = _manifest("train", p, seed, ["history.csv"])
        manifest.update(status="failed", failed_step=exc.step, error=str(exc))
        write_json(out / "manifest.json", manifest)
        raise
    write_history_csv(history, out / "history.csv")
    save_checkpoint(model, out / "model.ckpt")
    outputs = ["history.csv", "model.ckpt"]
    if eval_grid:
        points = evaluate_robustness(
            model,
            eval_grid,
            max_trials=p["eval_max_trials"],
            target_errors=p["eval_target_errors"],
            seed=seed,
            noiseless_feedback=p["noiseless_feedback"],
            feedback_snr_db=p["feedback_snr_db"],
        )
        write_per_csv(points, out / "per.csv")
        outputs.append("per.csv")
    return outputs


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
    params = validate_params(config.kind, config.params)
    seed = config.seed
    if config.kind in STOCHASTIC_KINDS:
        seed = require_seed(config)
    out = Path(config.out_dir or default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
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
