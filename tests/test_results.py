"""Result files: every writer is atomic, gets the open() mode, and keeps its bytes."""

import ast
import hashlib
import os
import stat
from pathlib import Path

import pytest

from fbclab.afc import AfcConfig, AfcModel, save_checkpoint
from fbclab.analysis import FPGA_CSV_HEADER, fpga_report, fpga_report_csv
from fbclab.experiments import SCHEMAS, ExperimentConfig, run_experiment
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
    "emit_results": lambda path: emit_results([{"a": 1, "b": "x"}], path, ["a", "b"]),
    "write_per_csv": lambda path: write_per_csv([PerPoint(0.0, 0.5, 0.25, 0.75, 10, 5)], path),
    "write_history_csv": lambda path: write_history_csv([HistoryRow(0, 0.7, 1.0, 8.0)], path),
    "timeline_to_csv": lambda path: timeline_to_csv(
        simulate_timeline(TimingParams(10.0, 4.0, 3), "async"), path
    ),
    "sweep_to_csv": lambda path: sweep_to_csv(latency_sweep([2.0], [1.0], 3), path),
    "fpga_report_csv": lambda path: fpga_report_csv(fpga_report(1e6), path),
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
    ]
    for i, (write, header) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        write(path)
        assert path.read_bytes() == (",".join(header) + "\r\n").encode(), header
    assert read_per_csv(tmp_path / "0.csv") == []
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


def _global_statements(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, ", ".join(node.names)


def test_no_global_statement():
    # Library code runs on pool threads (PER grid points), so state that
    # code rebinds process-wide is shared by every thread and every caller:
    # keep it in objects the caller owns, or per thread.
    found = [
        f"{path.name}:{line}: global {names}"
        for path in sorted(SRC.rglob("*.py"))
        for line, names in _global_statements(ast.parse(path.read_text()))
    ]
    assert found == []
    sample = ast.parse("x = 1\ndef f():\n    def g():\n        global x, y\n        x = 2\n")
    assert list(_global_statements(sample)) == [(4, "x, y")]


def _definitions(tree: ast.AST):
    """(line, name) of every module-level function, class and assigned name,
    and of every method and property of a module-level class; dunders are
    read implicitly and are skipped."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        found += [(d.lineno, d.name) for d in [node] + members
                  if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _names_read(tree: ast.AST):
    """Every name a tree reads, attributes and imports included; a name it
    only assigns is not read. String constants count too: code can reach an
    attribute by its name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unreferenced(defining: dict[str, ast.AST], readers: list[ast.AST], listed=()):
    read = {name for tree in readers for name in _names_read(tree)} | set(listed)
    for file, tree in defining.items():
        for line, name in _definitions(tree):
            if name not in read:
                yield f"{file}:{line}: {name}"


# Definitions that no program code calls and that stay for a test. A test
# alone does not keep a function alive: each entry says what it is kept for.
TEST_REFERENCES = {
    "effective_snr_db": "criterion 09 measures the Chase-combining gain with it",
    "mixture_cdf": "criterion 08's Kolmogorov-Smirnov reference for the curriculum draws",
    "parse_results": "the reader of the format emit_results writes",
    "sensitivity_from_per_curve": "the first link of the coverage chain that reads PER curves",
}


def _program_readers(root: Path) -> list[ast.AST]:
    """The package and the benchmark, the programs that run it; not tests/."""
    return [
        ast.parse(path.read_text())
        for part in ("src", "perfbench")
        for path in sorted((root / part).rglob("*.py"))
    ]


def test_every_definition_is_used():
    readers = _program_readers(SRC.parent.parent)
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert list(_unreferenced(defining, readers, TEST_REFERENCES)) == []
    # A listed name that a program reads no longer needs its entry.
    read = {name for tree in readers for name in _names_read(tree)}
    assert sorted(read & set(TEST_REFERENCES)) == []


def test_definition_guard_sees_each_kind_of_use(tmp_path):
    code = (
        "def called():\n    def nested():\n        pass\ndef idle():\n    pass\n"
        "class Used:\n    def __init__(self):\n        pass\n    @property\n    def prop(self):\n"
        "        pass\n    def by_attr(self):\n        pass\n    def by_string(self):\n        pass\n"
        "class Idle:\n    pass\nIDLE_VALUE: int = 1\nUSED_VALUE, (_, __all__) = 2, (3, [])\n"
    )
    defining = ast.parse(code)
    reader = ast.parse(
        "called()\nUsed().by_attr()\nsetattr(Used, 'by_string', None)\nprint(USED_VALUE, _)\n"
    )
    found = list(_unreferenced({"m.py": defining}, [defining, reader]))
    assert found == ["m.py:4: idle", "m.py:10: prop", "m.py:16: Idle", "m.py:18: IDLE_VALUE"]
    importer = ast.parse("from m import idle, IDLE_VALUE\nimport pkg.Idle\n")
    assert list(_unreferenced({"m.py": defining}, [reader, importer])) == ["m.py:10: prop"]
    # Names read only under tests/ stay reported; a listed reference does not.
    for part, text in [("src", code), ("perfbench", "Used().by_attr()\ncalled(USED_VALUE, _)\n"),
                       ("tests", "from m import idle\nassert Idle().prop == IDLE_VALUE\n")]:
        (tmp_path / part).mkdir()
        (tmp_path / part / "m.py").write_text(text)
    readers = _program_readers(tmp_path)
    assert list(_unreferenced({"m.py": defining}, readers)) == [
        "m.py:4: idle", "m.py:10: prop", "m.py:14: by_string", "m.py:16: Idle", "m.py:18: IDLE_VALUE"
    ]
    assert list(_unreferenced({"m.py": defining}, readers, {"idle": "a reason"})) == [
        "m.py:10: prop", "m.py:14: by_string", "m.py:16: Idle", "m.py:18: IDLE_VALUE"
    ]


def _unexercised(schemas: dict, trees: list[ast.AST]) -> list[str]:
    """kind.key of every schema key that no tree quotes, as a params key or
    as its --flag; a keyword argument of the same name does not count."""
    quoted = {node.value for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{kind}.{key}" for kind, schema in schemas.items() for key in schema
                  if key not in quoted and "--" + key.replace("_", "-") not in quoted)


def test_every_key_is_exercised():
    # A key that no test gives is a setting whose effect nothing checks.
    tests = [ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert _unexercised(SCHEMAS, tests) == []
    sample = ast.parse("run({'steps': 1}, ['--batch-size', '2'])\nTrainConfig(seed=1)\n")
    keys = {"train": dict.fromkeys(["steps", "batch_size", "seed", "sigma_p"])}
    assert _unexercised(keys, [sample]) == ["train.seed", "train.sigma_p"]


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
