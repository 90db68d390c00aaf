"""Benchmark entry point: one seeded workload, checked outputs, metrics as JSON.

Usage, from the root of a checkout:
    python3 bench/run.py --workload {rate_sweep,cli_fit_predict,many_small_bags}
                         --seed N --seconds S --trace {0,1}

Untraced (--trace 0), the workload runs in WORKERS fresh processes one after
another; each sets up (imports distreg, makes the inputs, runs a warm-up
job) and then runs timed jobs for its share of S seconds. The last stdout
line gives the end-to-end metrics: medians over all timed jobs, and the
median set-up time over the workers. Traced (--trace 1), one process also runs the
determinism check and alternates untraced and traced jobs for S seconds; the
last line gives the per-layer metrics. Every job's output is checked against
references.json; a job that raises, exits non-zero or fails its check counts
as a failed operation. The line before the last holds the full record:
provenance, sample counts, tail percentiles and every check. It is also
written under .bench_run/results/.

--scale tiny and --corrupt exist for smoke.py: tiny inputs, and outputs
deliberately altered before they are checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
# Fresh worker processes per untraced run. An in-process job's time is steady
# within one process but differs by ~10% between processes started back to
# back, so those workloads take the median over more processes; a CLI job
# starts fresh processes for every job anyway.
WORKERS = {"rate_sweep": 5, "many_small_bags": 5, "cli_fit_predict": 3}
# Whole-run limit, kept under the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "predict_s": "s",
}

PER_LAYER_UNITS = {
    "synth.generate_s": "s",
    "synth.generate_calls": "count",
    "synth.points": "count",
    "synth.self_s": "s",
    "embedding.kernel_matrix_s": "s",
    "embedding.kernel_matrix_calls": "count",
    "embedding.kernel_evals": "count",
    "embedding.evals_per_s": "1/s",
    "embedding.kernel_bytes_computed": "B",
    "embedding.self_s": "s",
    "outer.tilt_s": "s",
    "outer.tilt_calls": "count",
    "outer.self_s": "s",
    "gram.build_gram_s": "s",
    "gram.build_gram_calls": "count",
    "gram.cross_gram_s": "s",
    "gram.cross_gram_calls": "count",
    "gram.self_s": "s",
    "gram.pair_evals": "count",
    "gram.pair_evals_per_s": "1/s",
    "gram.parallel_eff": "ratio",
    "solver.fit_s": "s",
    "solver.fit_calls": "count",
    "solver.solve_alpha_s": "s",
    "solver.solve_alpha_calls": "count",
    "solver.predict_self_s": "s",
    "solver.self_s": "s",
    "analysis.select_lambda_s": "s",
    "analysis.select_lambda_calls": "count",
    "analysis.self_s": "s",
    "io.read_bags_s": "s",
    "io.bytes_read": "B",
    "io.save_model_s": "s",
    "io.load_model_s": "s",
    "io.model_bytes": "B",
    "io.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

# Rates are recomputed from the averaged totals rather than averaged.
RATES = {
    "embedding.evals_per_s": ("embedding.kernel_evals", ("embedding.kernel_matrix_s",)),
    "gram.pair_evals_per_s": ("gram.pair_evals", ("gram.build_gram_s", "gram.cross_gram_s")),
}


def read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = read_text("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def cpu_caches() -> list[str]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(str(index / f)) for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return caches


def cpu_jiffies() -> list[int]:
    """Machine-wide CPU time counters from the first line of /proc/stat."""
    line = (read_text("/proc/stat") or "cpu").splitlines()[0]
    return [int(v) for v in line.split()[1:]]


def steal_fraction(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    # Field 8 of the cpu line is steal; guest time (9, 10) is already in user.
    total = sum(delta[:8])
    return delta[7] / total if len(delta) > 7 and total > 0 else None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = read_text(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = read_text(str(ROOT / ".git" / ref))
    if loose:
        return loose
    for line in (read_text(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "distreg").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, versions: dict | None, steal: float | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cpu_caches": cpu_caches(),
        **(versions or {}),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_steal_frac": steal,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def describe(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1]}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            rank = max(0, min(n - 1, int(-(-p * n // 100)) - 1))
            out[f"p{p:g}"] = ordered[rank]
            break
    return out


def run_worker(args, workdir: Path, window: float, trace: bool, deadline: float) -> tuple:
    """Run one worker process to completion; return (result or None, spawn time)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--window", str(window),
           "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--corrupt"] * args.corrupt
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: worker exceeded the {DEADLINE_S:.0f} s limit", file=sys.stderr)
        return None, t_spawn
    if proc.returncode != 0 or not stdout.strip():
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return None, t_spawn
    return json.loads(stdout.strip().splitlines()[-1]), t_spawn


def end_to_end(results: list[tuple[dict, float]]) -> tuple[dict, dict]:
    jobs = [j for r, _ in results for j in r["jobs"] if j["wall_s"] is not None]
    series = {name: [j[name] for j in jobs] for name in ("wall_s", "fit_s", "predict_s",
                                                         "peak_rss_mb")}
    series["setup_s"] = [r["t_first"] - t_spawn for r, t_spawn in results]
    detail = {name: describe(values) for name, values in series.items()}
    return {name: detail[name]["median"] for name in END_TO_END_UNITS}, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    traced = [j["layers"] for j in result["traced_jobs"] if j["layers"]]
    untraced = [j["wall_s"] for j in result["jobs"] if j["wall_s"] is not None]
    metrics = {n: statistics.fmean(j.get(n, 0.0) for j in traced)
               for n in set().union(*traced)}
    for rate, (count, times) in RATES.items():
        seconds = sum(metrics[t] for t in times)
        metrics[rate] = metrics[count] / seconds if seconds else 0.0
    metrics["gram.parallel_eff"] = result["determinism"]["parallel_eff"]
    metrics["cli.import_s"] = result["cli_import_s"]
    traced_wall = statistics.median(j["trace.wall_s"] for j in traced)
    untraced_wall = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    detail = {
        "traced_jobs": len(traced),
        "untraced_jobs": len(untraced),
        "self_plus_unattributed_minus_wall": (self_sum + metrics["trace.unattributed_s"]
                                              - metrics["trace.wall_s"]),
        "layer_shares": {
            layer: metrics[f"{layer}.self_s"] / metrics["trace.wall_s"] for layer in LAYERS
        },
        "cpu_s": {n: v for n, v in metrics.items() if n.startswith("cpu.")},
        "determinism": result["determinism"],
    }
    return {n: metrics[n] for n in PER_LAYER_UNITS}, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "distreg" / "__init__.py").is_file():
        print(f"error: no distreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    n_workers = 1 if args.trace else WORKERS[args.workload]
    jiffies = cpu_jiffies()
    results = []
    attempted = failed = 0
    try:
        timed = longest = 0.0
        for i in range(n_workers):
            if i and deadline - time.monotonic() < 1.5 * longest:
                print(f"warning: time limit near, ran {i} of {n_workers} workers",
                      file=sys.stderr)
                break
            started = time.monotonic()
            # Each worker gets an even share of the measuring time still left.
            window = max(0.0, args.seconds - timed) / (n_workers - i)
            result, t_spawn = run_worker(args, workdir, window, bool(args.trace), deadline)
            longest = max(longest, time.monotonic() - started)
            if result is None:
                attempted += 1
                failed += 1
                continue
            results.append((result, t_spawn))
            timed += result["t_end"] - result["t_first"]
            jobs = [result["warmup_problems"]] + [j["problems"] for j in
                                                  result["jobs"] + result.get("traced_jobs", [])]
            attempted += len(jobs)
            failed += sum(1 for problems in jobs if problems)
            if args.trace:
                attempted += 1
                failed += 0 if result["determinism"]["ok"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    untraced_ok = any(j["wall_s"] is not None for r, _ in results for j in r["jobs"])
    traced_ok = any(j["layers"] for r, _ in results for j in r.get("traced_jobs", []))
    if not untraced_ok or (args.trace and not traced_ok):
        print("error: no timed job completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, detail = per_layer(results[0][0])
        units = PER_LAYER_UNITS
    else:
        metrics, detail = end_to_end(results)
        units = END_TO_END_UNITS
    record = {
        "provenance": provenance(args, results[0][0]["versions"],
                                 steal_fraction(jiffies, cpu_jiffies())),
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "metrics": metrics,
    }
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
