import csv
import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbclab import experiments
from fbclab.afc import AfcConfig, AfcModel, save_checkpoint
from fbclab.cli import main
from fbclab.errors import ConfigError
from fbclab.experiments import (
    SCHEMAS,
    ExperimentConfig,
    config_hash,
    expand_grid,
    run_experiment,
    validate_params,
)
from fbclab.keys import OPTIONAL
from fbclab.per import read_per_csv
from fbclab.results import emit_results, parse_results

# The keys each per-sweep scheme reads beyond the common ones, the train keys
# each alpha schedule reads, and the train keys only the curriculum reads.
SCHEME_KEYS = {
    "harq-cc": ("k", "harq_max_attempts", "harq_use_crc16"),
    "uncoded": ("k",),
    "neural": ("checkpoint", "feedback_snr_db", "uplink_trace"),
}
SCHEDULE_KEYS = {"linear": ("alpha_start", "alpha_end"), "exponential": ("alpha_rate",)}
CURRICULUM_KEYS = ("orig_mean_db", "orig_std_db", "targ_mean_db", "targ_std_db", "sigma_p",
                   "alpha_schedule", "alpha_start", "alpha_end", "alpha_rate")


# -- validation -----------------------------------------------------------------


def test_unknown_key_reports_path():
    with pytest.raises(ConfigError, match=r"params\.bogus"):
        validate_params("latency", {"bogus": 1})
    with pytest.raises(ConfigError, match=r"params\.model\.nonsense"):
        validate_params("train", {"model": {"nonsense": 3}})


def test_type_mismatch_reports_path():
    with pytest.raises(ConfigError, match=r"params\.rounds"):
        validate_params("latency", {"rounds": "nine"})
    with pytest.raises(ConfigError, match=r"params\.jitter"):
        validate_params("timeline", {"jitter": [1, 2]})


@pytest.mark.parametrize("field, value, message", [
    ("d_model", "x", "expected int, got str"),
    ("d_model", 2.5, "expected int, got 2.5"),
    ("rounds", True, "expected int, got bool"),
    ("lightweight", 1, "expected bool, got int"),
    ("sparse_ff_window", 1.0, "expected int, got 1.0"),
])
def test_model_field_types_checked(tmp_path, capsys, field, value, message):
    for kind in ("train", "gradcheck", "complexity"):
        with pytest.raises(ConfigError, match=rf"params\.model\.{field}: {message}"):
            validate_params(kind, {"model": {field: value}})
    out = tmp_path / "cli"
    assert main(["complexity", "--model", json.dumps({field: value}), "--out", str(out)]) == 2
    assert f"params.model.{field}" in capsys.readouterr().err
    assert not out.exists()
    validate_params("complexity", {"model": {"sparse_ff_window": None}})


@pytest.mark.parametrize("field, value", [
    ("d_model", 0), ("snr_emb_dim", 0), ("ff_dim", -1), ("rounds", 0), ("enc_layers", 9),
    ("sparse_ff_window", -1), ("enc_layers", 0), ("dec_layers", 0), ("fb_layers", -1),
])
def test_model_sizes_below_one_rejected(tmp_path, capsys, field, value):
    # AfcConfig's own value checks name the field; every kind that builds a
    # codec reports them under params.model.
    texts = {
        ("enc_layers", 9): "encoder depth 9 exceeds dec_layers",
        ("sparse_ff_window", -1): "must be >= 0, got -1",
    }
    message = f"{field}: {texts.get((field, value), f'must be >= 1, got {value}')}"
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        AfcConfig(**{field: value})
    for kind in ("train", "gradcheck", "complexity"):
        _rejected_everywhere(kind, {"model": {field: value}}, ["--model", json.dumps({field: value})],
                             f"params.model.{message}", tmp_path, capsys)


def test_complexity_rejects_lightweight(tmp_path, capsys):
    # complexity runs both variants, so a lightweight override would change
    # nothing but the config hash.
    for value in (True, False):
        model = {"lightweight": value}
        _rejected_everywhere("complexity", {"model": model}, ["--model", json.dumps(model)],
                             "params.model.lightweight: kind 'complexity' does not read it",
                             tmp_path, capsys)


def _null_and_nonfinite_values():
    """(kind, key, value): null for every key whose default is not null, and
    NaN and inf for every number key."""
    for kind, schema in SCHEMAS.items():
        for key, spec in schema.items():
            if spec.default is not None:
                yield kind, key, None
            if spec.type == "number":
                yield kind, key, float("nan")
                yield kind, key, float("inf")


@pytest.mark.parametrize("kind,key,value", list(_null_and_nonfinite_values()))
def test_null_or_nonfinite_value_rejected(kind, key, value, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^params\.{key}: expected "):
        run_experiment(ExperimentConfig(kind, {key: value}, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {key: value}}))  # NaN and Infinity tokens
    runs = [["--config", str(cfg)]]
    if value is not None:
        runs.append(["--" + key.replace("_", "-"), str(value)])
    for flags in runs:
        code = main([kind, *flags, "--seed", "1", "--out", str(tmp_path / "cli")])
        assert code == 2
        assert f"params.{key}: expected " in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()


def test_seed_required_for_stochastic_kinds(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(ExperimentConfig("per-sweep", {"scheme": "uncoded"}, None, str(tmp_path)))
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(ExperimentConfig("train", {}, None, str(tmp_path)))


def test_neural_scheme_needs_checkpoint(tmp_path):
    with pytest.raises(ConfigError, match=r"params\.checkpoint"):
        run_experiment(
            ExperimentConfig("per-sweep", {"scheme": "neural"}, 1, str(tmp_path / "run"))
        )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scheme", ["harq-cc", "uncoded"])
def test_uplink_trace_rejected_for_schemes_that_ignore_it(scheme, tmp_path, capsys):
    trace = {"kind": "mean-reverting", "volatility": 5.0}
    params = {"scheme": scheme, "snr_grid": [0.0], "max_trials": 10, "uplink_trace": trace}
    with pytest.raises(ConfigError, match=rf"params\.uplink_trace: scheme '{scheme}' does not read it"):
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    code = main(["per-sweep", "--scheme", scheme, "--uplink-trace", json.dumps(trace),
                 "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert "params.uplink_trace" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize(
    "scheme,params,key",
    [
        ("harq-cc", {"checkpoint": "/nonexistent.ckpt"}, "checkpoint"),
        ("uncoded", {"feedback_snr_db": -50.0}, "feedback_snr_db"),
        ("uncoded", {"harq_use_crc16": False}, "harq_use_crc16"),
        ("uncoded", {"harq_max_attempts": 2}, "harq_max_attempts"),
        ("neural", {"k": 30, "checkpoint": "/nonexistent.ckpt"}, "k"),
        ("harq-cc", {"feedback_snr_db": -50.0}, "feedback_snr_db"),
    ],
)
def test_foreign_per_sweep_key_rejected(scheme, params, key, tmp_path, capsys):
    # Checked against the keys as given: a key the scheme does not read
    # fails the run before any file, even at its default value.
    params = {"scheme": scheme, "snr_grid": [0.0], "max_trials": 10, **params}
    with pytest.raises(ConfigError, match=rf"params\.{key}: scheme '{scheme}' does not read it"):
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    code = main(["per-sweep", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert f"params.{key}" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_both_baseline_schemes_read_k(tmp_path):
    def per_csv(scheme, **params):
        out = tmp_path / f"{scheme}-{params.get('k')}"
        params = {"scheme": scheme, "snr_grid": [-6.0, 6.0], "max_trials": 200, **params}
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(out)))
        return (out / "per.csv").read_bytes()

    for scheme in ("harq-cc", "uncoded"):
        assert per_csv(scheme, k=47) == per_csv(scheme)
        assert per_csv(scheme, k=30) != per_csv(scheme)
    assert per_csv("harq-cc", k=30) != per_csv("uncoded", k=30)


def test_per_sweep_manifest_holds_only_the_keys_its_scheme_reads(tmp_path):
    save_checkpoint(AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8), tmp_path / "m.ckpt")
    common = {"scheme", "snr_grid", "max_trials", "target_errors", "batch_size"}
    recorded = {}
    for scheme in SCHEME_KEYS:
        params = {"scheme": scheme, "snr_grid": [0.0], "max_trials": 100}
        if scheme == "neural":
            params.update(checkpoint=str(tmp_path / "m.ckpt"))
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(tmp_path / scheme)))
        recorded[scheme] = json.loads((tmp_path / scheme / "manifest.json").read_text())["params"]
        assert set(recorded[scheme]) == common | set(SCHEME_KEYS[scheme])
    assert not {"k", "harq_max_attempts", "harq_use_crc16"} & set(recorded["neural"])
    assert not {"checkpoint", "uplink_trace"} & set(recorded["harq-cc"])


TINY = {"num_blocks": 2, "rounds": 2, "d_model": 4, "ff_dim": 4, "enc_layers": 1,
        "dec_layers": 1, "fb_layers": 1, "snr_emb_dim": 2}


def test_train_manifest_holds_only_the_keys_the_run_reads(tmp_path):
    def recorded(**params):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        params = {"model": TINY, "steps": 2, "batch_size": 2, **params}
        run_experiment(ExperimentConfig("train", params, 1, str(out)))
        return set(json.loads((out / "manifest.json").read_text())["params"])

    schema = set(SCHEMAS["train"])
    assert recorded() == schema - {"alpha_rate"}
    assert recorded(alpha_schedule="exponential", feedback_snr_db=20.0) == schema - {"alpha_start", "alpha_end"}
    assert recorded(fixed_snr_db=5.0) == schema - set(CURRICULUM_KEYS)


@pytest.mark.parametrize(
    "kind,params,key,setting",
    [
        *[("train", {"fixed_snr_db": 5.0, key: value}, key, "a run at fixed_snr_db")
          for key, value in [("orig_mean_db", 2.0), ("orig_std_db", 1.0), ("targ_mean_db", 0.0),
                             ("targ_std_db", 2.0), ("sigma_p", 3.0), ("alpha_schedule", "linear"),
                             ("alpha_start", 0), ("alpha_end", 5), ("alpha_rate", 0.5)]],
    ],
)
def test_key_the_run_does_not_read_rejected(kind, params, key, setting, tmp_path, capsys):
    # Only keys as given count: a default the run skips is not a setting.
    with pytest.raises(ConfigError, match=rf"params\.{key}: {setting} does not read it"):
        run_experiment(ExperimentConfig(kind, params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    code = main([kind, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert f"params.{key}: {setting} does not read it" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize(
    "schedule,key,value",
    [("linear", "alpha_rate", 0.01), ("exponential", "alpha_start", 0), ("exponential", "alpha_end", 5)],
)
def test_foreign_alpha_key_rejected(schedule, key, value, tmp_path, capsys):
    # alpha_start is given at its default: a key as given is a setting.
    params = {"steps": 2, "batch_size": 2, "alpha_schedule": schedule, key: value}
    with pytest.raises(ConfigError, match=rf"params\.{key}: alpha_schedule '{schedule}' does not read it"):
        run_experiment(ExperimentConfig("train", params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    flag = "--" + key.replace("_", "-")
    code = main(["train", "--alpha-schedule", schedule, flag, str(value), "--steps", "2",
                 "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert f"params.{key}: alpha_schedule '{schedule}'" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize(
    "kind,key,value", [("train", "alpha_schedule", "cosine"), ("per-sweep", "scheme", "bogus")]
)
def test_unknown_alpha_schedule_fails_before_any_file(kind, key, value, tmp_path):
    with pytest.raises(ConfigError, match=rf"params\.{key}: unknown {key} '{value}'"):
        run_experiment(ExperimentConfig(kind, {key: value}, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "kind,key,flags",
    [
        ("latency-sweep", "delta_ms", ["--delta-ms", "99"]),
        ("latency-sweep", "delta_tilde_ms", ["--delta-tilde-ms", "3"]),
        ("latency", "tau_enc_ms", ["--tau-enc-ms", "3"]),
        ("timeline", "tau_fb_ms", ["--tau-fb-ms", "3"]),
        ("complexity", "fpga", ["--no-fpga"]),
        # Adam's moment decays and epsilon are constants of the optimizer.
        ("train", "adam_beta1", ["--adam-beta1", "1"]),
        ("train", "adam_beta2", ["--adam-beta2", "0.5"]),
        ("train", "adam_eps", ["--adam-eps", "0"]),
        # The pipelined timeline waits for feedback two rounds back, as its
        # slot grid and closed form assume.
        ("timeline", "feedback_lag", ["--feedback-lag", "3"]),
    ],
)
def test_unread_timing_and_fpga_keys_rejected(kind, key, flags, tmp_path, capsys):
    message = f"params.{key}: unknown key for kind '{kind}'"
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        run_experiment(ExperimentConfig(kind, {key: 3.0}, None, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {key: 3.0}}))
    assert main([kind, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "cli")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()
    with pytest.raises(SystemExit) as exc:
        main([kind, *flags, "--out", str(tmp_path / "cli")])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize(
    "trace,key",
    [
        ({"kind": "mean-reverting", "volatilty": 50}, "volatilty"),
        ({"kind": "mean-reverting", "step_ms": 1.0}, "step_ms"),
        ({"kind": "piecewise"}, "points"),
        ({"kind": "piecewise", "points": [[0.0, 1.0, 2.0]]}, "points"),
        ({"kind": "piecewise", "points": [[1.0, 2.0], [0.0, 3.0]]}, "points"),
        ({"kind": "piecewise", "points": [[0.0, 1.0]], "volatility": 1.0}, "volatility"),
        ({"volatility": "5"}, "volatility"),
        ({"volatility": float("inf")}, "volatility"),
        ({"reversion_rate": -0.1}, "reversion_rate"),
        ({"start_db": None}, "start_db"),
        ({"kind": "fading"}, "kind"),
        ({"mean_db": 3.0}, "mean_db"),
    ],
)
def test_malformed_uplink_trace_rejected(trace, key, tmp_path, capsys):
    params = {"scheme": "neural", "checkpoint": "/nonexistent.ckpt", "uplink_trace": trace}
    with pytest.raises(ConfigError, match=rf"params\.uplink_trace\.{key}: "):
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    code = main(["per-sweep", "--scheme", "neural", "--checkpoint", "/nonexistent.ckpt",
                 "--uplink-trace", json.dumps(trace), "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert f"params.uplink_trace.{key}" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_expand_grid():
    assert expand_grid([0.0, 10.0, 2.0], "g") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert expand_grid([1.5, 2.5], "g") == [1.5, 2.5]
    assert expand_grid([3.0, 3.0, 1.0], "g") == [3.0]
    with pytest.raises(ConfigError):
        expand_grid([], "g")


@pytest.mark.parametrize(
    "grid",
    [[float("nan"), 2.0], [1.0, float("-inf")], [0.0, float("inf"), 1.0],
     [float("nan"), 2.0, 1.0], [0.0, 2.0, float("nan")], [0.0, 2.0, float("inf")],
     ["x", 2.0], ["3", 2.0], [0.0, True, 1.0], [10**400, 2.0]],
)
def test_grid_entries_must_be_finite_numbers(grid):
    with pytest.raises(ConfigError, match=r"params\.g: every entry must be a finite number"):
        expand_grid(grid, "g")


@pytest.mark.parametrize("grid", ["[NaN, 2]", "[0, Infinity, 1]"])
def test_cli_nonfinite_snr_grid_exits_two(grid, tmp_path, capsys):
    code = main(["per-sweep", "--scheme", "uncoded", "--snr-grid", grid, "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "params.snr_grid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- emit/parse -----------------------------------------------------------------


@dataclasses.dataclass
class _Row:
    n: int
    value: float
    mode: str


def test_emit_empty_gives_header_only_csv(tmp_path):
    # Any dataclass is a record: its fields are the header.
    path = tmp_path / "empty.csv"
    emit_results([], path, _Row)
    assert path.read_text() == "n,value,mode\n"
    emit_results([_Row(1, 2.5, "a,b")], path, _Row)
    assert path.read_text().splitlines() == ["n,value,mode", '1,2.5,"a,b"']


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-(10**9), 10**9),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from(["sync", "async", "x", "a,b", 'say "hi"', "two\r\nlines", ""]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_emit_parse_round_trip(rows):
    import tempfile, os

    records = [_Row(n, float(f"{v:.9g}"), s) for n, v, s in rows]
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        emit_results(records, path, _Row)
        assert parse_results(path, _Row) == records
    finally:
        os.unlink(path)


def test_sweep_record_worked_example(tmp_path):
    run_experiment(
        ExperimentConfig(
            "latency-sweep",
            {"deltas": [10.0], "delta_tildes": [4.0]},
            None,
            str(tmp_path),
        )
    )
    lines = (tmp_path / "latency_sweep.csv").read_text().splitlines()
    assert "10,4,async,3,69" in lines


# -- experiment runs -------------------------------------------------------------


def test_latency_experiment_and_manifest(tmp_path):
    manifest = run_experiment(ExperimentConfig("latency", {}, None, str(tmp_path)))
    payload = json.loads((tmp_path / "latency.json").read_text())
    assert payload["sync_ms"] == 122 and payload["async_ms"] == 69
    assert payload["reduction"] == pytest.approx(0.434, abs=5e-4)
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["outputs"] == ["latency.json"]
    assert stored["config_sha256"] == manifest["config_sha256"]
    assert stored["version"]


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_experiment(
            ExperimentConfig(
                "per-sweep",
                {"scheme": "uncoded", "snr_grid": [0.0], "max_trials": 200, "target_errors": 200},
                7,
                str(out),
            )
        )
    assert (a / "per.csv").read_bytes() == (b / "per.csv").read_bytes()
    ha = json.loads((a / "manifest.json").read_text())["config_sha256"]
    hb = json.loads((b / "manifest.json").read_text())["config_sha256"]
    assert ha == hb


def test_config_hash_ignores_key_order():
    h1 = config_hash(ExperimentConfig("latency", {"delta_ms": 10.0, "rounds": 9}, None))
    h2 = config_hash(ExperimentConfig("latency", {"rounds": 9, "delta_ms": 10.0}, None))
    assert h1 == h2


def test_coverage_experiment_defaults(tmp_path):
    run_experiment(ExperimentConfig("coverage", {}, None, str(tmp_path)))
    reports = json.loads((tmp_path / "coverage.json").read_text())
    by_scheme = {r["scheme"]: r for r in reports}
    assert by_scheme["neural-fb-vs-polar-harq"]["density_ratio"] == pytest.approx(0.346, abs=2e-3)
    assert by_scheme["turbo-harq-vs-polar-harq"]["density_ratio"] == pytest.approx(0.659, abs=2e-3)
    assert "note" in by_scheme["neural-fb-vs-polar-harq"]


def test_complexity_experiment(tmp_path):
    run_experiment(ExperimentConfig("complexity", {}, None, str(tmp_path)))
    payload = json.loads((tmp_path / "complexity.json").read_text())
    assert payload["param_reduction"] >= 0.40
    assert payload["flop_reduction"] >= 0.30
    assert payload["counter_matches_enumeration"] is True
    assert (tmp_path / "fpga.csv").exists()


def test_timeline_experiment(tmp_path):
    run_experiment(
        ExperimentConfig("timeline", {"mode": "async", "jitter": {"5": 100}}, 0, str(tmp_path))
    )
    summary = json.loads((tmp_path / "timeline_summary.json").read_text())
    assert summary["skipped_rounds"] == [5]
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "round,kind,time_ms"


def _rejected_everywhere(kind, params, flags, message, tmp_path, capsys):
    """ConfigError from run_experiment and exit 2 from the CLI, both with
    `message` and no output directory."""
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        run_experiment(ExperimentConfig(kind, params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    assert main([kind, *flags, "--seed", "1", "--out", str(tmp_path / "cli")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("entry, key", [
    ({"scheme": "x", "delta_snr_db": float("nan")}, "delta_snr_db"),
    ({"scheme": "x", "delta_snr_db": "1e400"}, "delta_snr_db"),
    ({"scheme": "x"}, "delta_snr_db"),
    ({"scheme": "x", "delta_snr_db": 1.0, "reported_distance_ratio": "abc"}, "reported_distance_ratio"),
    ({"scheme": "x", "delta_snr_db": 1.0, "reported_distance_ratio": 0}, "reported_distance_ratio"),
    ({"scheme": "x", "delta_snr_db": 1.0, "reported_distance_ratio": None}, "reported_distance_ratio"),
    ({"scheme": "x", "delta_snr_db": 1.0, "extra": 2}, "extra"),
    ({"delta_snr_db": 1.0}, "scheme"),
    ({"scheme": 3, "delta_snr_db": 1.0}, "scheme"),
], ids=["delta-nan", "delta-string", "delta-missing", "ratio-string", "ratio-zero", "ratio-null",
        "extra-key", "scheme-missing", "scheme-int"])
def test_malformed_coverage_entry_rejected(entry, key, tmp_path, capsys):
    schemes = [{"scheme": "fine", "delta_snr_db": 3}, entry]
    _rejected_everywhere("coverage", {"schemes": schemes}, ["--schemes", json.dumps(schemes)],
                         f"params.schemes[1].{key}: ", tmp_path, capsys)


@pytest.mark.parametrize("params, message", [
    ({"exponent": 0.001}, "schemes[0].delta_snr_db: 8.6 dB at exponent 0.001 gives a distance ratio of inf"),
    ({"exponent": 0.001, "schemes": [{"scheme": "x", "delta_snr_db": -8.6}]},
     "schemes[0].delta_snr_db: -8.6 dB at exponent 0.001 gives a distance ratio of 0"),
    ({"schemes": [{"scheme": "x", "delta_snr_db": 1.0}, {"scheme": "y", "delta_snr_db": -4700.0}]},
     "schemes[1].delta_snr_db: distance ratio 2.15443e-157 gives a density ratio of inf"),
    ({"schemes": [{"scheme": "x", "delta_snr_db": 1.0, "reported_distance_ratio": 1e200}]},
     "schemes[0].reported_distance_ratio: distance ratio 1e+200 gives a density ratio of 0"),
], ids=["distance-inf", "distance-zero", "density-inf", "reported-density-zero"])
def test_coverage_ratio_beyond_the_floats_is_a_config_error(params, message, tmp_path, capsys):
    # The library used to overflow, divide by zero, or write a density of 0.
    flags = [arg for key, value in params.items() for arg in (f"--{key}", json.dumps(value))]
    _rejected_everywhere("coverage", params, flags,
                         f"params.{message}, not a finite positive float", tmp_path, capsys)


def test_latency_sweep_keeps_its_zero_totals(tmp_path):
    params = {"deltas": [0], "delta_tildes": [0]}
    run_experiment(ExperimentConfig("latency-sweep", params, None, str(tmp_path)))
    rows = list(csv.DictReader((tmp_path / "latency_sweep.csv").read_text().splitlines()))
    assert [(row["mode"], float(row["total_ms"])) for row in rows] == [("sync", 0.0), ("async", 9.0)]


@pytest.mark.parametrize("value", ["nan", "12", True, -100, float("inf"), None])
def test_jitter_must_be_a_finite_non_negative_number(value, tmp_path, capsys):
    jitter = {"5": value}
    _rejected_everywhere("timeline", {"jitter": jitter}, ["--jitter", json.dumps(jitter)],
                         "params.jitter.5: expected a finite number >= 0", tmp_path, capsys)


@pytest.mark.parametrize("key", ["9", "50", "-1", "05", "x"])
def test_jitter_key_must_be_a_round_index(key, tmp_path, capsys):
    jitter = {key: 10}
    _rejected_everywhere("timeline", {"jitter": jitter}, ["--jitter", json.dumps(jitter)],
                         f"params.jitter.{key}: not a round index in 0..8", tmp_path, capsys)


def _domain_case(kind, key, value, message="", **given):
    """A run of `kind` with `key` at `value`, beside the settings `given`,
    rejected with a message that starts `params.<key>: <message>`."""
    return pytest.param(kind, key, value, given, message,
                        id="-".join([kind, key, str(value), *(f"{k}={v}" for k, v in given.items())]))


@pytest.mark.parametrize("kind, key, value, given, message", [
    _domain_case("latency", "rounds", 1),
    _domain_case("latency-sweep", "rounds", 1),
    _domain_case("timeline", "rounds", 1),
    _domain_case("coverage", "exponent", 0.0),
    _domain_case("coverage", "exponent", -3.0),
    _domain_case("latency", "delta_ms", -1),
    _domain_case("latency", "delta_ms", 0, "must be > 0 while delta_tilde_ms is 0", delta_tilde_ms=0),
    _domain_case("latency", "min_forward_ms", -0.5),
    _domain_case("timeline", "delta_tilde_ms", -2),
    _domain_case("latency-sweep", "deltas", [-1, 2]),
    _domain_case("latency-sweep", "delta_tildes", [-2, 4, 1]),
    _domain_case("timeline", "mode", "bogus"),
    _domain_case("per-sweep", "k", 0),
    _domain_case("per-sweep", "k", -2, scheme="uncoded"),
    _domain_case("per-sweep", "k", 0, scheme="uncoded"),
    _domain_case("per-sweep", "k", 16, harq_use_crc16=True),
    _domain_case("per-sweep", "harq_max_attempts", 0),
    _domain_case("per-sweep", "max_trials", 5),
    _domain_case("per-sweep", "target_errors", 0),
    _domain_case("gradcheck", "step", 0),
    _domain_case("gradcheck", "tolerance", -1),
    _domain_case("train", "steps", 0),
    _domain_case("train", "steps", -3, fixed_snr_db=0),
    _domain_case("train", "batch_size", 0),
    _domain_case("train", "learning_rate", 0),
    _domain_case("train", "sigma_p", -1),
    _domain_case("train", "alpha_rate", -0.1, alpha_schedule="exponential"),
])
def test_value_outside_the_domain_is_a_config_error(kind, key, value, given, message, tmp_path,
                                                    capsys):
    # Left to the library, these raise errors that name no key or exit 1,
    # or run on and write results.
    params = {**given, key: value}
    flags = []
    for name, setting in params.items():
        flag = "--" + name.replace("_", "-")
        flags += [flag] if setting is True else [flag, str(setting)]
    _rejected_everywhere(kind, params, flags, f"params.{key}: {message}", tmp_path, capsys)


def test_lock_step_timeline_runs_one_round(tmp_path):
    run_experiment(ExperimentConfig("timeline", {"mode": "sync", "rounds": 1}, None, str(tmp_path)))
    assert json.loads((tmp_path / "timeline_summary.json").read_text())["skipped_rounds"] == []


def test_train_experiment_writes_everything(tmp_path):
    run_experiment(
        ExperimentConfig(
            "train",
            {
                "model": {"num_blocks": 4, "rounds": 3, "d_model": 4, "ff_dim": 6,
                          "enc_layers": 1, "dec_layers": 1, "fb_layers": 1, "snr_emb_dim": 2},
                "steps": 5,
                "batch_size": 4,
            },
            3,
            str(tmp_path),
        )
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "history.csv", "manifest.json", "model.ckpt"
    ]
    from fbclab.afc import load_checkpoint

    model = load_checkpoint(tmp_path / "model.ckpt")
    assert model.config.num_blocks == 4


def test_noiseless_uplink_reaches_the_trainer(tmp_path, monkeypatch):
    seen = []

    def capture(model, curriculum, config):
        seen.append(config.noiseless_uplink)
        return []

    monkeypatch.setattr(experiments, "train", capture)
    for i, given in enumerate([{}, {"noiseless_uplink": True}]):
        run_experiment(ExperimentConfig("train", {"model": TINY, **given}, 1, str(tmp_path / str(i))))
    assert seen == [False, True]


# -- CLI -------------------------------------------------------------------------


def test_cli_latency_exit_zero(tmp_path, capsys):
    code = main(["latency", "--delta-ms", "10", "--delta-tilde-ms", "4", "--rounds", "9",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "latency.json").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "latency", "params": {"delta_ms": 10.0, "delta_tilde_ms": 8.0}}))
    code = main(["latency", "--config", str(cfg), "--delta-tilde-ms", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "latency.json").read_text())
    assert payload["delta_tilde_ms"] == 4.0 and payload["async_ms"] == 69


def test_cli_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"no_such_key": 1}}))
    code = main(["latency", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "no_such_key" in capsys.readouterr().err


def test_cli_missing_seed_exits_two(tmp_path, capsys):
    code = main(["per-sweep", "--scheme", "uncoded", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("doc, flags, message", [
    ({"seed": "x"}, [], "seed: expected a non-negative integer, got 'x'"),
    ({"seed": 1.5}, [], "seed: expected a non-negative integer, got 1.5"),
    ({"seed": True}, [], "seed: expected a non-negative integer, got True"),
    ({}, ["--seed", "-3"], "seed: expected a non-negative integer, got -3"),
    ({"params": [1, 2]}, ["--seed", "1"], "params must be an object"),
    ({"out": 5}, ["--seed", "1"], "out must be a string, got int"),
    ({"params": {"scheme": "uncoded", "batch_size": -5}}, ["--seed", "1"], "batch_size: must be >= 1, got -5"),
])
def test_cli_bad_seed_or_params_exits_two_and_writes_nothing(tmp_path, capsys, doc, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"scheme": "uncoded", "max_trials": 10}, **doc}))
    out = tmp_path / "cli"
    assert main(["per-sweep", "--config", str(cfg), "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [True, -1, 2.0, "3"])
def test_run_experiment_rejects_a_seed_that_is_not_a_non_negative_int(tmp_path, seed):
    with pytest.raises(ConfigError, match="^seed: "):
        run_experiment(ExperimentConfig("latency", {}, seed, str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_cli_checkpoint_with_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8), path)
    raw = path.read_bytes()
    # A key renamed in place, at the same length, so the header's length
    # field still holds; then the digest is sealed again over the edit.
    old, renamed = b'"sparse_ff_window": null', b'"old_key_positions": 0.0'
    assert raw.count(old) == 1 and len(renamed) == len(old)
    body = raw[:-32].replace(old, renamed)
    path.write_bytes(body + hashlib.sha256(body).digest())
    out = tmp_path / "cli"
    code = main(["per-sweep", "--scheme", "neural", "--checkpoint", str(path), "--snr-grid", "[0]",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "checkpoint.config.old_key_positions" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:-100] + bytes([raw[-100] ^ 0x40]) + raw[-99:], "checkpoint digest mismatch"),
    (lambda raw: b"FBCLAB-CKPT\x01" + raw[12:-32],
     "checkpoint format version 1: this build reads version 2"),
], ids=["flipped-weight-bit", "version-1"])
def test_cli_corrupt_or_old_checkpoint_exits_two(edit, message, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8), path)
    path.write_bytes(edit(path.read_bytes()))
    params = {"scheme": "neural", "checkpoint": str(path), "snr_grid": [0.0]}
    flags = ["--scheme", "neural", "--checkpoint", str(path), "--snr-grid", "[0]"]
    _rejected_everywhere("per-sweep", params, flags, message, tmp_path, capsys)


def test_cli_checkpoint_cut_inside_the_header_exits_two(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8), path)
    path.write_bytes(path.read_bytes()[:12])  # the magic alone
    code = main(["per-sweep", "--scheme", "neural", "--checkpoint", str(path), "--snr-grid", "[0]",
                 "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert "checkpoint truncated in the header" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("name", ["no/such.ckpt", "."], ids=["missing", "directory"])
def test_cli_unreadable_checkpoint_exits_two(name, tmp_path, capsys):
    path = tmp_path / name
    params = {"scheme": "neural", "checkpoint": str(path), "snr_grid": [0.0]}
    with pytest.raises(ConfigError, match="^" + re.escape(f"checkpoint: cannot read {path}: ")):
        run_experiment(ExperimentConfig("per-sweep", params, 1, str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    code = main(["per-sweep", "--scheme", "neural", "--checkpoint", str(path), "--snr-grid", "[0]",
                 "--seed", "1", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert f"checkpoint: cannot read {path}" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_cli_kind_mismatch_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "coverage", "params": {}}))
    assert main(["latency", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FBCLAB_OUT", str(tmp_path / "envout"))
    assert main(["latency"]) == 0
    assert (tmp_path / "envout" / "latency.json").exists()


def test_cli_gradcheck_exit_zero(tmp_path):
    assert main(["gradcheck", "--seed", "0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "gradcheck.json").read_text())
    assert payload["passed"] and payload["max_rel_error"] < 1e-4


def test_neural_per_sweep_with_trace(tmp_path):
    tiny = {"num_blocks": 4, "rounds": 3, "d_model": 4, "ff_dim": 6,
            "enc_layers": 1, "dec_layers": 1, "fb_layers": 1, "snr_emb_dim": 2}
    run_experiment(
        ExperimentConfig("train", {"model": tiny, "steps": 3, "batch_size": 4}, 5, str(tmp_path))
    )
    run_experiment(
        ExperimentConfig(
            "per-sweep",
            {
                "scheme": "neural",
                "checkpoint": str(tmp_path / "model.ckpt"),
                "snr_grid": [20.0],
                "max_trials": 128,
                "target_errors": 128,
                "batch_size": 64,
                "uplink_trace": {"kind": "mean-reverting", "volatility": 0.5},
            },
            6,
            str(tmp_path),
        )
    )
    assert read_per_csv(tmp_path / "per.csv")[0].trials == 128
    # A trace point that is not a number fails the run before any result file.
    nan_trace = {"kind": "piecewise", "points": [[0.0, 20.0], [1.0, float("nan")]]}
    with pytest.raises(ConfigError, match=r"params\.uplink_trace\.points"):
        run_experiment(
            ExperimentConfig(
                "per-sweep",
                {"scheme": "neural", "checkpoint": str(tmp_path / "model.ckpt"),
                 "snr_grid": [20.0], "max_trials": 128, "uplink_trace": nan_trace},
                6,
                str(tmp_path / "nan"),
            )
        )
    assert not (tmp_path / "nan").exists()


def test_empty_uplink_trace_is_the_default_trace(tmp_path):
    # `kind` defaults to mean-reverting and every field to its default, so
    # {} is that trace, not the absence of one.
    model = AfcModel(AfcConfig.tiny(block_size=1, num_blocks=2), seed=8)
    save_checkpoint(model, tmp_path / "m.ckpt")

    def per_csv(name, **trace):
        params = {"scheme": "neural", "checkpoint": str(tmp_path / "m.ckpt"), "snr_grid": [0.0],
                  "max_trials": 400, "target_errors": 401, **trace}
        run_experiment(ExperimentConfig("per-sweep", params, 3, str(tmp_path / name)))
        return (tmp_path / name / "per.csv").read_bytes()

    empty = per_csv("empty", uplink_trace={})
    assert empty == per_csv("default", uplink_trace={"kind": "mean-reverting"})
    assert empty != per_csv("none")


def test_every_schema_key_is_documented():
    for kind, schema in SCHEMAS.items():
        for key, spec in schema.items():
            assert spec.help.strip(), f"{kind}.{key} lacks documentation"


# -- schema completeness ----------------------------------------------------------


def test_every_subcommand_has_a_schema():
    assert set(SCHEMAS) == {
        "latency",
        "latency-sweep",
        "timeline",
        "coverage",
        "complexity",
        "gradcheck",
        "per-sweep",
        "train",
    }


def test_every_per_sweep_key_is_common_or_read_by_a_scheme():
    # A new per-sweep key must name the schemes that read it in its read
    # conditions, or the other schemes would ignore it silently.
    common = {"scheme", "snr_grid", "max_trials", "target_errors", "batch_size"}
    read = set().union(*SCHEME_KEYS.values())
    assert not common & read
    assert set(SCHEMAS["per-sweep"]) == common | read
    assert {key for key, spec in SCHEMAS["per-sweep"].items() if spec.read_if} == read
    assert set(SCHEMAS["per-sweep"]["scheme"].choices) == set(SCHEME_KEYS)


class _ReadRecorder(dict):
    """A params dict that records every key read with [] or .get."""

    def __init__(self, params, reads):
        super().__init__(params)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


def test_every_schema_key_is_read(tmp_path, monkeypatch):
    # A schema key no run of its kind reads is a setting the run ignores.
    reads = {kind: set() for kind in SCHEMAS}
    for kind, runner in list(experiments._RUNNERS.items()):
        def recording(p, seed, out, kind=kind, runner=runner):
            return runner(_ReadRecorder(p, reads[kind]), seed, out)
        monkeypatch.setitem(experiments._RUNNERS, kind, recording)

    def run(kind, params, seed=None):
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        run_experiment(ExperimentConfig(kind, params, seed, str(out)))
        return out

    run("latency", {})
    run("latency-sweep", {"deltas": [10.0], "delta_tildes": [4.0]})
    run("timeline", {"jitter": {"1": 5}})
    run("coverage", {})
    run("complexity", {})
    run("gradcheck", {}, 0)
    assert set(SCHEDULE_KEYS) == {"linear", "exponential"}
    assert set(SCHEMAS["train"]["alpha_schedule"].choices) == set(SCHEDULE_KEYS)
    trained = run("train", {"model": TINY, "steps": 2, "batch_size": 2, "alpha_schedule": "linear"}, 1)
    run("train", {"model": TINY, "steps": 2, "batch_size": 2, "alpha_schedule": "exponential",
                  "feedback_snr_db": 20.0}, 1)
    for scheme in SCHEME_KEYS:
        params = {"scheme": scheme, "snr_grid": [20.0], "max_trials": 100, "batch_size": 100}
        if scheme == "neural":
            params.update(checkpoint=str(trained / "model.ckpt"), feedback_snr_db=20.0)
        run("per-sweep", params, 1)
    unread = {kind: sorted(set(SCHEMAS[kind]) - reads[kind]) for kind in SCHEMAS}
    unknown = {kind: sorted(reads[kind] - set(SCHEMAS[kind])) for kind in SCHEMAS}
    assert {kind: keys for kind, keys in unread.items() if keys} == {}
    assert {kind: keys for kind, keys in unknown.items() if keys} == {}


# The fields of the library configs that no key sets: `--seed` sets the
# trainer's seed, `steps` also sets the curriculum's length, the grid point a
# trace's mean, and the runner assembles the anchors and the schedule from the
# keys that set their own fields.
SET_ELSEWHERE = {
    "TrainConfig.seed", "CurriculumConfig.total_steps", "MeanRevertingTrace.mean_db",
    "CurriculumConfig.p_orig", "CurriculumConfig.p_targ", "CurriculumConfig.schedule",
}
# What a key states apart from the field it sets: a pipelined schedule needs
# two rounds, and a trace's start may be left out but not null.
KEY_OVERRIDES = {
    ("latency", "rounds"): {"minimum": 2},
    ("latency-sweep", "rounds"): {"minimum": 2},
    ("per-sweep.uplink_trace", "start_db"): {"default": OPTIONAL},
}
FIELD_TYPES = {"float": "number", "int": "int", "bool": "bool"}


def _key_tables():
    """(where, table) for every level of every kind's params."""
    pending = list(SCHEMAS.items())
    while pending:
        where, table = pending.pop()
        yield where, table
        pending += [(f"{where}.{key}", spec.keys) for key, spec in table.items() if spec.keys]


def test_every_key_states_the_field_it_sets():
    from fbclab.channel import MeanRevertingTrace
    from fbclab.harq import HarqConfig
    from fbclab.pipeline import TimingParams
    from fbclab.training import CurriculumConfig, ExponentialDecay, GaussianAnchor, LinearDecay, TrainConfig

    set_by_keys = set()
    for where, table in _key_tables():
        for key, spec in table.items():
            if spec.sets is None:
                continue
            owner, name = spec.sets
            field = next(f for f in dataclasses.fields(owner) if f.name == name)
            expected = {
                "type": FIELD_TYPES[field.type.removesuffix(" | None")],
                "default": field.default if isinstance(owner, type) else getattr(owner, name),
                # AfcConfig checks its own bounds when a runner builds it.
                "minimum": None if owner is AfcConfig else field.metadata.get("minimum"),
                "strict": field.metadata.get("strict", False),
                **KEY_OVERRIDES.get((where, key), {}),
            }
            assert {attr: getattr(spec, attr) for attr in expected} == expected, f"{where}.{key}"
            set_by_keys.add(f"{(owner if isinstance(owner, type) else type(owner)).__name__}.{name}")
    classes = (TimingParams, HarqConfig, AfcConfig, TrainConfig, CurriculumConfig, GaussianAnchor,
               LinearDecay, ExponentialDecay, MeanRevertingTrace)
    every = {f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)}
    assert sorted(every - set_by_keys - SET_ELSEWHERE) == []
    assert sorted(SET_ELSEWHERE & set_by_keys) == []


def test_built_object_reports_a_field_fault_under_its_key():
    from fbclab.harq import HarqConfig
    from fbclab.keys import built

    table = SCHEMAS["per-sweep"]
    assert built(HarqConfig, {"k": 20, "harq_use_crc16": True}, table) == HarqConfig(20, 3, True)
    with pytest.raises(ConfigError, match=r"^params\.harq_max_attempts: must be >= 1, got 0$"):
        built(HarqConfig, {"harq_max_attempts": 0}, table)
    with pytest.raises(ConfigError, match=r"^params\.k: the CRC-16 needs k > 16, got 16$"):
        built(HarqConfig, {"k": 16, "harq_use_crc16": True}, table)


def test_package_import_leaves_scipy_stats_out():
    # scipy.stats takes most of a second to import, and every CLI call pays
    # for whatever `import fbclab.experiments` pulls in.
    import fbclab

    src = str(Path(fbclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fbclab.experiments; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc-only")
def test_package_import_keeps_freed_buffers_in_heap():
    # Each op result of 128 KiB or more used to be a fresh mmap or heap memory
    # just trimmed back to the OS, so it cost one minor page fault per 4 KiB.
    import fbclab

    src = str(Path(fbclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import resource, fbclab, numpy as np\n"
        "x = np.ones(512 * 1024 // 8)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(200):\n"
        "    y = x * 2.0\n"
        "    z = y + 1.0\n"
        "    del y, z\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert int(out.stdout) < 2000
