import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbclab.cli import main
from fbclab.errors import ConfigError, NumericalFailure
from fbclab.experiments import (
    SCHEMAS,
    TUNABLE_REGISTRY,
    ExperimentConfig,
    config_hash,
    expand_grid,
    run_experiment,
    validate_params,
)
from fbclab.results import emit_results, parse_results


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


def test_seed_required_for_stochastic_kinds(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(ExperimentConfig("per-sweep", {"scheme": "uncoded"}, None, str(tmp_path)))
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(ExperimentConfig("train", {}, None, str(tmp_path)))


def test_neural_scheme_needs_checkpoint(tmp_path):
    with pytest.raises(ConfigError, match=r"params\.checkpoint"):
        run_experiment(
            ExperimentConfig("per-sweep", {"scheme": "neural"}, 1, str(tmp_path))
        )


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
     ["x", 2.0], ["3", 2.0], [0.0, True, 1.0]],
)
def test_grid_entries_must_be_finite_numbers(grid):
    with pytest.raises(ConfigError, match=r"params\.g: every entry must be a finite number"):
        expand_grid(grid, "g")


def test_nonfinite_eval_grid_fails_before_training(tmp_path):
    params = {"model": {"num_blocks": 2, "rounds": 2, "d_model": 4, "ff_dim": 4, "enc_layers": 1,
                        "dec_layers": 1, "fb_layers": 1, "snr_emb_dim": 2},
              "steps": 1, "batch_size": 2, "eval_snr_grid": [0.0, float("nan")]}
    with pytest.raises(ConfigError, match=r"params\.eval_snr_grid"):
        run_experiment(ExperimentConfig("train", params, 1, str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["[NaN, 2]", "[0, Infinity, 1]"])
def test_cli_nonfinite_snr_grid_exits_two(grid, tmp_path, capsys):
    code = main(["per-sweep", "--scheme", "uncoded", "--snr-grid", grid, "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "params.snr_grid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- emit/parse -----------------------------------------------------------------


def test_emit_empty_gives_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], "csv", path)
    assert path.read_text() == "\n"
    emit_results([{"a": 1, "b": 2.5}], "csv", path)
    assert path.read_text().splitlines()[0] == "a,b"


def test_emit_rejects_heterogeneous_records(tmp_path):
    with pytest.raises(ConfigError):
        emit_results([{"a": 1}, {"b": 2}], "csv", tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        emit_results([], "xml", tmp_path / "x.xml")


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-(10**9), 10**9),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from(["sync", "async", "x"]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_emit_parse_round_trip(rows):
    import tempfile, os

    records = [
        {"n": n, "value": float(f"{v:.9g}"), "mode": s} for n, v, s in rows
    ]
    for fmt, suffix in (("csv", ".csv"), ("json", ".json")):
        fd, path = tempfile.mkstemp(suffix=suffix)
        os.close(fd)
        try:
            emit_results(records, fmt, path)
            back = parse_results(path)
            assert back == records
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


def test_train_experiment_writes_everything(tmp_path):
    run_experiment(
        ExperimentConfig(
            "train",
            {
                "model": {"num_blocks": 4, "rounds": 3, "d_model": 4, "ff_dim": 6,
                          "enc_layers": 1, "dec_layers": 1, "fb_layers": 1, "snr_emb_dim": 2},
                "steps": 5,
                "batch_size": 4,
                "eval_snr_grid": [10.0],
                "eval_max_trials": 128,
                "eval_target_errors": 128,
            },
            3,
            str(tmp_path),
        )
    )
    for name in ("history.csv", "model.ckpt", "per.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    from fbclab.afc import load_checkpoint

    model = load_checkpoint(tmp_path / "model.ckpt")
    assert model.config.num_blocks == 4


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
    rows = parse_results(tmp_path / "per.csv")
    assert rows[0]["trials"] == 128
    # A trace point that is not a number fails the run before any result file.
    nan_trace = {"kind": "piecewise", "points": [[0.0, 20.0], [1.0, float("nan")]]}
    with pytest.raises(NumericalFailure):
        run_experiment(
            ExperimentConfig(
                "per-sweep",
                {"scheme": "neural", "checkpoint": str(tmp_path / "model.ckpt"),
                 "snr_grid": [20.0], "max_trials": 128, "uplink_trace": nan_trace},
                6,
                str(tmp_path / "nan"),
            )
        )
    assert list((tmp_path / "nan").iterdir()) == []


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


def test_tunable_registry_covers_dataclasses():
    from fbclab.afc import AfcConfig
    from fbclab.channel import MeanRevertingTrace
    from fbclab.harq import HarqConfig
    from fbclab.pipeline import TimingParams
    from fbclab.training import CurriculumConfig, TrainConfig

    classes = {
        "pipeline.TimingParams": TimingParams,
        "harq.HarqConfig": HarqConfig,
        "afc.AfcConfig": AfcConfig,
        "training.TrainConfig": TrainConfig,
        "training.CurriculumConfig": CurriculumConfig,
        "channel.MeanRevertingTrace": MeanRevertingTrace,
    }
    for name, cls in classes.items():
        registry = TUNABLE_REGISTRY[name]
        for field in dataclasses.fields(cls):
            assert field.name in registry, f"{name}.{field.name} unreachable from config"
        for field, target in registry.items():
            if target.startswith("fixed:"):
                continue
            kind, _, key = target.partition(".")
            assert kind in SCHEMAS, target
            assert key in SCHEMAS[kind], target


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
