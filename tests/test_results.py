"""Result files: every writer is atomic, gets the open() mode, and keeps its bytes."""

import ast
import hashlib
import os
import stat
from pathlib import Path

import pytest

from fbclab.afc import AfcConfig, AfcModel, save_checkpoint
from fbclab.analysis import FPGA_CSV_HEADER, fpga_report, fpga_report_csv
from fbclab.channel import TRACE_CSV_HEADER, read_trace_csv, write_trace_csv
from fbclab.experiments import ExperimentConfig, run_experiment
from fbclab.per import PER_CSV_HEADER, PerPoint, read_per_csv, write_per_csv
from fbclab.pipeline import (
    SWEEP_CSV_HEADER,
    TIMELINE_CSV_HEADER,
    Timeline,
    TimingParams,
    latency_sweep,
    simulate_timeline,
    sweep_to_csv,
    timeline_to_csv,
)
from fbclab.results import emit_results, write_json
from fbclab.training import HISTORY_CSV_HEADER, HistoryRow, write_history_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "fbclab"

WRITERS = {
    "write_json": lambda path: write_json(path, {"a": 1.5}),
    "emit_results": lambda path: emit_results([{"a": 1, "b": "x"}], "csv", path),
    "write_per_csv": lambda path: write_per_csv([PerPoint(0.0, 0.5, 0.25, 0.75, 10, 5)], path),
    "write_history_csv": lambda path: write_history_csv([HistoryRow(0, 0.7, 1.0, 8.0)], path),
    "timeline_to_csv": lambda path: timeline_to_csv(
        simulate_timeline(TimingParams.from_deltas(10.0, 4.0, 3), "async"), path
    ),
    "sweep_to_csv": lambda path: sweep_to_csv(latency_sweep([2.0], [1.0], 3), path),
    "fpga_report_csv": lambda path: fpga_report_csv(fpga_report(1e6), path),
    "write_trace_csv": lambda path: write_trace_csv([(0.0, 1.0), (1.0, 2.5)], path),
    "save_checkpoint": lambda path: save_checkpoint(AfcModel(AfcConfig.tiny(), seed=0), path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temp(writer, tmp_path, monkeypatch):
    target = tmp_path / "result.out"
    target.write_bytes(b"old bytes\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[writer](target)
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.glob(f".{target.name}.*")) == []


def test_empty_results_keep_their_header(tmp_path):
    cases = [
        (lambda path: write_per_csv([], path), PER_CSV_HEADER),
        (lambda path: write_history_csv([], path), HISTORY_CSV_HEADER),
        (lambda path: timeline_to_csv(Timeline([], 0.0, "async", []), path), TIMELINE_CSV_HEADER),
        (lambda path: sweep_to_csv([], path), SWEEP_CSV_HEADER),
        (lambda path: fpga_report_csv([], path), FPGA_CSV_HEADER),
        (lambda path: write_trace_csv([], path), TRACE_CSV_HEADER),
    ]
    for i, (write, header) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        write(path)
        assert path.read_bytes() == (",".join(header) + "\r\n").encode(), header
    assert read_per_csv(tmp_path / "0.csv") == []
    assert read_trace_csv(tmp_path / "5.csv") == []
    assert list(fpga_report(1e6)[0]) == FPGA_CSV_HEADER


def test_result_files_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        for writer, name in [
            ("write_per_csv", "per.csv"),
            ("write_json", "manifest.json"),
            ("save_checkpoint", "model.ckpt"),
        ]:
            WRITERS[writer](tmp_path / name)
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640, name
    finally:
        os.umask(old)


# Calls that create or fill a file; only the results module may make them.
_WRITING_ATTRS = {"write_text", "write_bytes", "tofile", "fdopen", "mkstemp", "NamedTemporaryFile"}
_WRITING_MODULE_ATTRS = {
    ("csv", "writer"),
    ("os", "open"),
    ("np", "save"),
    ("np", "savez"),
    ("np", "savez_compressed"),
    ("np", "savetxt"),
}


def _writing_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node.lineno, "open() for writing"
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in _WRITING_ATTRS or (owner, func.attr) in _WRITING_MODULE_ATTRS:
                yield node.lineno, f"{owner or '...'}.{func.attr}"


def test_only_the_results_module_writes_files():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "results.py"
        for line, what in _writing_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def test_write_guard_sees_each_kind_of_write():
    code = (
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\n"
        "p.write_text(s)\ncsv.writer(fh)\nos.open(p, f)\nnp.save(p, a)\n"
    )
    assert [line for line, _ in _writing_calls(ast.parse(code))] == [1, 2, 3, 6, 7, 8, 9]


def _unused_imports(tree: ast.AST):
    """(line, name) of every name an import binds that no expression reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield node.lineno, name


def test_every_import_is_used():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_import_guard_sees_each_kind_of_import():
    code = (
        "from __future__ import annotations\nimport os\nimport a.b\nimport c as d\n"
        "from e import f, g as h\nfrom . import i  # noqa: F401\n"
        "def k(x: f) -> None:\n    import j\n    return a.b(os)\n"
    )
    assert list(_unused_imports(ast.parse(code))) == [(4, "d"), (5, "h"), (6, "i"), (8, "j")]


# SHA-256 of seeded outputs that involve no inexact BLAS call, pinned from the
# commit before the writers were merged (the HARQ cases from the commit before
# the batched CRC); they must not move. BLAS products whose every partial sum
# is an exact integer, such as the 0/1 generator-matrix product of the HARQ
# encoder, give the same bits on every BLAS build and are allowed.
GOLDEN = [
    pytest.param("latency", {}, None, {
        "latency.json": "967e4dab591f87ba12a4b7294581d158d9f04480b0fcff20a78b4f4a91eb1c61",
    }, id="latency"),
    pytest.param("latency-sweep", {}, None, {
        "latency_sweep.csv": "820b662e6432947acadd6fb5ba1ec2ba592cbe673785c61a4897bea7f2a72113",
    }, id="latency-sweep"),
    pytest.param("timeline", {}, None, {
        "timeline.csv": "6d0cd794802ff19518c6e347583717c462675ac99ef102a3d3de4e0c4d40218b",
        "timeline_summary.json": "4a7449d13609093a96bf226f698216c5a5edad2c466596b68e4abd549b410216",
    }, id="timeline"),
    pytest.param("timeline", {"jitter": {"3": 40}, "mode": "async"}, 3, {
        "timeline.csv": "c1d26580a3298e533982d3c3f24fee018df7ff261409aba4c3744cabee9f1951",
        "timeline_summary.json": "55c4d20427c0d7ef086b4a76529b5d881d2cfbb4497a94b74e461a4f604c3f25",
    }, id="timeline-jitter"),
    pytest.param("coverage", {}, None, {
        "coverage.json": "61ab31a5dcd87626b99f3d6abc256e5eea1414c9676bdd7b9703204a773b9ed7",
    }, id="coverage"),
    pytest.param("complexity", {}, None, {
        "complexity.json": "5bea36ba986f9d723205a6f8306441566f8e369c96f1bc64540b53a212813b12",
        "fpga.csv": "7221137bd16f49dd92654d20dc9361ce3743e9ff3f7a1e248a9c7c8720af8fdf",
    }, id="complexity"),
    pytest.param(
        "per-sweep",
        {"scheme": "uncoded", "snr_grid": [0, 6, 2], "max_trials": 2000, "target_errors": 50},
        1,
        {"per.csv": "9d395af9273232ee8d639bb0472cf5a7f4895c86ff93e3c8bc04b84c3c6139a5"},
        id="per-sweep-uncoded",
    ),
    pytest.param(
        "per-sweep",
        {"scheme": "harq-cc", "snr_grid": [-10, -4, 2], "max_trials": 1000,
         "target_errors": 1001, "batch_size": 300},
        2,
        {"per.csv": "f79b3f5d8e7708ba36814c5447be68f3c26eb705251c89b35fd6191081ee9512"},
        id="per-sweep-harq-genie",
    ),
    pytest.param(
        "per-sweep",
        {"scheme": "harq-cc", "harq_use_crc16": True, "harq_max_attempts": 3,
         "snr_grid": [-10, -4, 2], "max_trials": 1000, "target_errors": 1001, "batch_size": 300},
        2,
        {"per.csv": "9b0297f0d6b27d9576057d7fb03ef2663b8b8182cbf9939e89b001c883136108"},
        id="per-sweep-harq-crc16",
    ),
]


@pytest.mark.parametrize("kind,params,seed,digests", GOLDEN)
def test_seeded_outputs_keep_their_bytes(kind, params, seed, digests, tmp_path):
    manifest = run_experiment(ExperimentConfig(kind, params, seed, str(tmp_path)))
    assert sorted(manifest["outputs"]) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
