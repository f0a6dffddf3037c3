"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this process; it prints `READY` when set-up ends, just before
the first timed call, and one `RESULT {...}` line when the run ends.

Untraced (--trace 0): calls run back to back, each starting when the last
returns, for S seconds; the median call gives sessions_per_s.
Traced (--trace 1): calls alternate untraced and traced, so the difference
between the two medians is the tracing overhead; time metrics are medians
over traced calls and count metrics come from the first traced call, so they
repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fbclab  # noqa: E402

if Path(fbclab.__file__).resolve().parent != ROOT / "src" / "fbclab":
    sys.exit(f"fbclab imported from {fbclab.__file__}, not from this checkout")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from fbclab import experiments  # noqa: E402
from fbclab.afc import AfcConfig  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, call_seed  # noqa: E402

MIN_CALLS = 3


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fbclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    tracer = tracing.Tracer() if trace else None
    rates = {False: [], True: []}
    snapshots = []
    failures = []
    out = work / "call"
    deadline = time.perf_counter() + seconds
    elapsed = 0.0
    index = 0
    # A call starts only if one as long as the last still ends by the deadline.
    while time.perf_counter() + elapsed <= deadline or not _enough(rates, trace):
        traced = trace and index % 2 == 1
        seed_i = call_seed(seed, index)
        config = experiments.ExperimentConfig(
            workload.kind, workload.params(seed_i), seed_i, str(out)
        )
        if traced:
            tracer.install()
            tracer.begin(f"{workload.name}-{seed}-{index}")
        t0 = time.perf_counter()
        try:
            experiments.run_experiment(config)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rates[traced].append(workload.sessions_per_call / elapsed)
        counts = None
        if traced:
            snapshot = tracer.snapshot()
            counts = tracing.per_layer_counts(
                snapshot, workload.sessions_per_call, workload.analytic_flops()
            )
            snapshots.append((snapshot, counts))
        problems = workload.check(out, seed_i, counts)
        if problems:
            failures.append({"call": index, "problems": problems})
        index += 1

    if trace:
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.csv.gz")
        metrics = per_layer_metrics(rates, snapshots)
    else:
        metrics = {
            "sessions_per_s": statistics.median(rates[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "attempted": index,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "call_sessions_per_s_untraced": rates[False],
        "call_sessions_per_s_traced": rates[True],
        "sessions_per_call": workload.sessions_per_call,
    }


def _enough(rates, trace: bool) -> bool:
    if trace:
        return len(rates[False]) >= MIN_CALLS - 1 and len(rates[True]) >= MIN_CALLS - 1
    return len(rates[False]) >= MIN_CALLS


def per_layer_metrics(rates, snapshots) -> dict:
    """Median per-call times over traced calls, counts of the first one."""
    times = [tracing.per_layer_times(s) for s, _ in snapshots]
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    metrics.update(snapshots[0][1])
    base = statistics.median(rates[False])
    overhead = statistics.median(rates[True]) - base
    metrics["trace.base_sessions_per_s"] = base
    metrics["trace.overhead_sessions_per_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / base
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(work)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run(workload, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            result["flops_crosscheck"] = {
                name: dict(zip(("measured", "analytic"), tracing.encoder_flops_crosscheck(cfg)))
                for name, cfg in (
                    ("default_full", AfcConfig.default_full()),
                    ("default_light", AfcConfig.default_light()),
                )
            }
        result["environment"] = environment()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
