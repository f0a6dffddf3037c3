"""fbclab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are declared in BENCHMARK.json at the root of
the checkout. The work itself happens in worker.py processes, one process
and one BLAS thread each, started one after another:

- untraced runs first start SETUP_PROBES processes that only set up and
  exit; with the measuring process that makes SETUP_PROBES + 1 set-ups, and
  setup_s is their median time from process start to the first timed call;
- the measuring process sets up, prints READY, and runs the workload for S
  seconds; see worker.py.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it is a JSON record of the environment and the raw per-call rates,
also written to .perfbench_out/. The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
# Each worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool) -> tuple[float, list[str]]:
    """Run one worker; returns (seconds from start to READY, later stdout lines)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code} (setup_only={setup_only})")
    return ready, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fbclab" / "__init__.py").is_file():
        print("perfbench: no fbclab sources under src/ in this checkout", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [start_worker(args, True)[0] for _ in range(SETUP_PROBES)]
        ready, lines = start_worker(args, False)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = [ln for ln in lines if ln.startswith("RESULT ")]
    if len(results) != 1:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    detail = json.loads(results[0][len("RESULT "):])

    values = dict(detail.pop("metrics"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        setups.append(ready)
        values["setup_s"] = statistics.median(setups)
        detail["setup_s_samples"] = setups
    if sorted(values) != sorted(m["name"] for m in declared):
        print(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record = json.dumps(dict(detail, metrics=metrics), sort_keys=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record + "\n")
    print(record)
    failed = detail["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
