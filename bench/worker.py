"""One benchmark process: set up a workload, warm it up, run timed jobs.

Usage (started by run.py, one process at a time):
    python worker.py --workload NAME --seed N --scale full|tiny
                     --window SECONDS --workdir DIR [--trace] [--corrupt]

Prints one JSON object on its last stdout line. Untraced, it reports the
perf_counter reading at which the first timed job started (run.py turns that
into set-up time) and the timings of each job. Traced, it also runs the
determinism check, times fresh-interpreter imports of distreg.cli, and
alternates untraced and traced jobs so that the tracing overhead is measured
in the same process.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import distreg  # noqa: E402

if Path(distreg.__file__).resolve().parent != SRC / "distreg":
    sys.exit(f"error: imported distreg from {distreg.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBES = 3


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def library_versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "distreg": distreg.__version__,
        "blas": blas_vendor(),
        "threads": workloads.THREADS,
    }


def run_job(wl, corrupt: bool, tracer=None) -> dict:
    """One attempted operation: a job that raises counts as failed."""
    try:
        job = wl.job(corrupt=corrupt, tracer=tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"problems": ["job raised"], "wall_s": None, "spans": None}
    for problem in job["problems"]:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    return job


def cli_import_seconds(env: dict) -> float:
    """Median wall time for a fresh interpreter to import distreg.cli."""
    code = ("import time; t = time.perf_counter(); import distreg.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    variant = args.seed % workloads.VARIANTS
    wl = workloads.WORKLOADS[args.workload](variant, args.scale, args.workdir)
    warmup = run_job(wl, args.corrupt)
    out = {"versions": {**library_versions(), "variant": variant},
           "warmup_problems": warmup["problems"]}

    if args.trace:
        out["determinism"] = wl.determinism()
        out["cli_import_s"] = cli_import_seconds(workloads.child_env())

    jobs, traced = [], []
    out["t_first"] = time.perf_counter()
    longest = 0.0
    while True:
        job = run_job(wl, args.corrupt)
        jobs.append(job)
        if args.trace:
            traced.append(run_job(wl, args.corrupt, tracer=spans.Tracer()))
        done = [j["wall_s"] for j in jobs + traced if j["wall_s"] is not None]
        longest = max(done, default=longest)
        per_round = longest * (2 if args.trace else 1)
        if time.perf_counter() - out["t_first"] + per_round > args.window:
            break
    out["t_end"] = time.perf_counter()

    keep = ("wall_s", "fit_s", "predict_s", "peak_rss_mb", "problems")
    out["jobs"] = [{k: j.get(k) for k in keep} for j in jobs]
    if args.trace:
        out["traced_jobs"] = [
            {**{k: j.get(k) for k in keep},
             "layers": spans.layer_metrics(j["spans"], j["t0"], j["t1"]) if j["spans"] else None}
            for j in traced
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
