"""The three workloads: inputs made from a seed, one job, and its output check.

Every workload is sized so that a job's cost does not depend on the seed: the
seed picks one of VARIANTS data draws of a fixed shape, and each draw has a
reference output recorded in references.json. A job's output is compared
with that reference; any mismatch makes the job a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from distreg import analysis, gram, io, solver, synth
from distreg.embedding import Bag, EmbeddingKernelSpec
from distreg.outer import OuterKernelSpec

import spans

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

# Data draws per workload; the seed selects one as seed % VARIANTS.
VARIANTS = 8
# Library threads for Gram assembly: the 2 cores of the reference machine.
THREADS = 2
# Relative tolerance on errors, ratios and predictions against the reference.
# Reduction-order changes move them by ~1e-11 (measured by shrinking the Gram
# chunk budget); the margin above that leaves room for a change of solver on
# the ill-conditioned systems at lambda = 1e-8. A wrong kernel parameter
# moves them by whole percents.
RTOL = 1e-6
LAMBDA_GRID = analysis.DEFAULT_LAMBDA_GRID
# Lambda for the fits of the determinism check; any positive value serves.
CHECK_LAMBDA = 1e-3

SIZES = {
    "rate_sweep": {
        "full": {"m_values": (25, 50, 100, 200), "n_max": 100, "n_test": 64},
        "tiny": {"m_values": (8, 12, 16), "n_max": 10, "n_test": 8},
    },
    "cli_fit_predict": {
        "full": {"m": 200, "n_points": 100, "m_test": 200},
        "tiny": {"m": 16, "n_points": 10, "m_test": 12},
    },
    "many_small_bags": {
        "full": {"m": 1000, "n_points": 4, "n_test": 64},
        "tiny": {"m": 60, "n_points": 4, "n_test": 8},
    },
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(name: str, scale: str, variant: int) -> dict | None:
    if not REFERENCES.exists():
        return None
    doc = json.loads(REFERENCES.read_text())
    return doc["workloads"].get(name, {}).get(scale, {}).get(str(variant))


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def determinism_check(kspec, espec, train, y, test) -> dict:
    """Gram, cross-Gram and predictions at threads=1 and threads=2, bitwise.

    The same pair of runs times one Gram plus one cross-Gram at each thread
    count, which gives the parallel efficiency t1 / (2 * t2).
    """
    outputs, seconds = {}, {}
    for threads in (1, THREADS):
        t0 = time.perf_counter()
        g = gram.build_gram(kspec, espec, train, threads=threads)
        t_gram = time.perf_counter() - t0
        model, _ = solver.fit_coefficient(g, y, CHECK_LAMBDA, train, kspec, espec)
        with spans.timed_calls(solver, "build_cross_gram") as cross:
            preds = solver.predict(model, test, threads=threads)
        outputs[threads] = (g.values, cross["result"], preds)
        seconds[f"gram_threads_{threads}"] = t_gram
        seconds[f"cross_gram_threads_{threads}"] = cross["seconds"]
    equal = [bool(np.array_equal(a, b)) for a, b in zip(outputs[1], outputs[THREADS])]
    t_one = seconds["gram_threads_1"] + seconds["cross_gram_threads_1"]
    t_two = seconds[f"gram_threads_{THREADS}"] + seconds[f"cross_gram_threads_{THREADS}"]
    return {
        "ok": all(equal),
        "bitwise_equal": dict(zip(("gram", "cross_gram", "predictions"), equal)),
        "seconds": seconds,
        "parallel_eff": t_one / (THREADS * t_two),
    }


class Workload:
    """One workload at one variant and scale; `job` runs one timed job."""

    name = ""

    def __init__(self, variant: int, scale: str, workdir: Path):
        self.variant = variant
        self.scale = scale
        self.size = SIZES[self.name][scale]
        self.workdir = workdir
        self.reference = load_reference(self.name, scale, variant)

    def job(self, corrupt: bool = False, tracer: spans.Tracer | None = None) -> dict:
        """Run one job; return its timings, summary and check problems."""
        raise NotImplementedError

    def check(self, summary: dict) -> list[str]:
        if self.reference is None:
            return [f"no reference for {self.name}/{self.scale}/{self.variant}"]
        return self.compare(summary, self.reference)

    def compare(self, summary: dict, ref: dict) -> list[str]:
        raise NotImplementedError

    def determinism(self) -> dict:
        raise NotImplementedError


class InProcessWorkload(Workload):
    """A workload that is one call into the public API, in this process."""

    def call(self):
        raise NotImplementedError

    def summarize(self, result) -> dict:
        raise NotImplementedError

    def corrupt_summary(self, summary: dict) -> None:
        raise NotImplementedError

    def job(self, corrupt=False, tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            with spans.timed_calls(solver, "predict") as predict:
                t0 = time.perf_counter()
                result = self.call()
                t1 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        summary = self.summarize(result)
        if corrupt:
            self.corrupt_summary(summary)
        return {
            "t0": t0,
            "t1": t1,
            "wall_s": t1 - t0,
            "predict_s": predict["seconds"],
            "fit_s": (t1 - t0) - predict["seconds"],
            "peak_rss_mb": peak_rss_mb(),
            "summary": summary,
            "problems": self.check(summary),
            "spans": tracer.take() if tracer is not None else None,
        }


def _meta(dim: int, target: str, seed: int) -> synth.MetaDistributionSpec:
    return synth.MetaDistributionSpec(
        dim=dim, scale=0.1, target=target, noise_sd=0.05, noise_bound=2.0, seed=seed
    )


class RateSweep(InProcessWorkload):
    name = "rate_sweep"

    def __init__(self, variant, scale, workdir):
        super().__init__(variant, scale, workdir)
        self.espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
        self.kspec = OuterKernelSpec.gaussian(1.0)
        self.config = analysis.SweepConfig(
            meta=_meta(1, "linear_mean", 20240817 + variant),
            embedding_kernel=self.espec,
            outer_kernel=self.kspec,
            scheme="coefficient_l2",
            m_values=self.size["m_values"],
            replications=1,
            schedule_params=analysis.ScheduleParams(r=1.0, alpha_decay=2.0, h=1.0),
            lambda_mode="grid",
            n_max=self.size["n_max"],
            n_test=self.size["n_test"],
            threads=THREADS,
        )

    def call(self):
        return analysis.run_rate_experiment(self.config)

    def summarize(self, result):
        return {"rows": [[r.m, r.n_points, r.rep, r.lam, r.error] for r in result.rows]}

    def corrupt_summary(self, summary):
        summary["rows"][0][4] *= 1.0 + 1e-3

    def compare(self, summary, ref):
        got, want = summary["rows"], ref["rows"]
        if len(got) != len(want):
            return [f"{len(got)} rows, reference has {len(want)}"]
        problems = []
        for g, w in zip(got, want):
            if g[:4] != w[:4]:
                problems.append(f"row (m, N, rep, lambda) {g[:4]} != reference {w[:4]}")
            elif not close(g[4], w[4]):
                problems.append(f"m={g[0]}: error {g[4]!r} vs reference {w[4]!r}")
        return problems

    def determinism(self):
        m = max(self.config.m_values)
        n = self.config.n_max
        train = synth.generate(self.config.meta, m, n)
        test = synth.generate(
            _meta(1, "linear_mean", self.config.meta.seed + 1), self.config.n_test, n
        )
        return determinism_check(self.kspec, self.espec, train.bags, train.labels(), test.bags)


class ManySmallBags(InProcessWorkload):
    name = "many_small_bags"

    def __init__(self, variant, scale, workdir):
        super().__init__(variant, scale, workdir)
        self.espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
        self.kspec = OuterKernelSpec.gaussian(1.0)
        self.config = analysis.SaturationConfig(
            meta=_meta(1, "smooth_composite", 424242 + variant),
            embedding_kernel=self.espec,
            outer_kernel=self.kspec,
            m=self.size["m"],
            n_points=self.size["n_points"],
            n_test=self.size["n_test"],
            threads=THREADS,
        )

    def call(self):
        return analysis.saturation_compare(self.config)

    def summarize(self, rep):
        return {
            "err_coefficient": rep.err_coefficient,
            "err_krr": rep.err_krr,
            "lambda_coefficient": rep.lambda_coefficient,
            "lambda_krr": rep.lambda_krr,
            "ratio": rep.ratio,
        }

    def corrupt_summary(self, summary):
        summary["ratio"] *= 1.0 + 1e-3

    def compare(self, summary, ref):
        problems = [
            f"{key} {summary[key]!r} != reference {ref[key]!r}"
            for key in ("lambda_coefficient", "lambda_krr")
            if summary[key] != ref[key]
        ]
        problems += [
            f"{key} {summary[key]!r} vs reference {ref[key]!r}"
            for key in ("err_coefficient", "err_krr", "ratio")
            if not close(summary[key], ref[key])
        ]
        return problems

    def determinism(self):
        cfg = self.config
        train = synth.generate(cfg.meta, cfg.m, cfg.n_points)
        test = synth.generate(
            _meta(1, "smooth_composite", cfg.meta.seed + 1), cfg.n_test, cfg.n_points
        )
        return determinism_check(self.kspec, self.espec, train.bags, train.labels(), test.bags)


def child_env() -> dict:
    """The environment as found, with this checkout's src first on PYTHONPATH."""
    src = str(BENCH_DIR.parent / "src")
    found = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + found if found else ""))


def run_child(cmd: list[str], log: Path, env: dict, cwd: Path) -> tuple[int, float]:
    """Run one command to completion; return its exit code and peak RSS in MB.

    os.wait4 reports the resource usage of exactly this child.
    """
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class CliFitPredict(Workload):
    name = "cli_fit_predict"

    def __init__(self, variant, scale, workdir):
        super().__init__(variant, scale, workdir)
        size = self.size
        meta = _meta(2, "mean_plus_variance", 9100 + 3 * variant)
        self.train = synth.generate(meta, size["m"], size["n_points"]).bags
        test = synth.generate(
            _meta(2, "mean_plus_variance", 9101 + 3 * variant), size["m_test"], size["n_points"]
        ).bags
        self.test = [Bag(id=b.id, points=b.points, label=None, params=b.params) for b in test]
        ref_points = synth.generate(
            _meta(2, "mean_plus_variance", 9102 + 3 * variant), 1, size["n_points"]
        ).bags[0].points
        self.espec = EmbeddingKernelSpec("gaussian", 0.25, 2)
        self.kspec = OuterKernelSpec.tilted(1.0, 0.5, Bag(id="ref", points=ref_points))
        self.train_path = workdir / "train.ndjson"
        self.test_path = workdir / "test.ndjson"
        self.config_path = workdir / "config.json"
        self.model_path = workdir / "model.json"
        self.preds_path = workdir / "predictions.csv"
        io.write_bags(self.train, self.train_path)
        io.write_bags(self.test, self.test_path)
        config = {
            "data": {"path": str(self.train_path)},
            "embedding_kernel": self.espec.to_dict(),
            "outer_kernel": self.kspec.to_dict(),
            "scheme": "coefficient_l2",
            "lambda": {"grid": list(LAMBDA_GRID)},
            "seed": 9100 + 3 * variant,
        }
        self.config_path.write_text(json.dumps(config))
        self.env = child_env()

    def _argv(self, command: list[str], span_file: Path | None) -> list[str]:
        if span_file is None:
            return [sys.executable, "-m", "distreg", *command]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(span_file), *command]

    def job(self, corrupt=False, tracer=None):
        traced = tracer is not None
        for path in (self.model_path, self.preds_path):
            path.unlink(missing_ok=True)
        fit_cmd = ["fit", "--config", str(self.config_path), "--out", str(self.model_path),
                   "--threads", str(THREADS)]
        predict_cmd = ["predict", "--model", str(self.model_path), "--bags", str(self.test_path),
                       "--out", str(self.preds_path), "--threads", str(THREADS)]
        fit_spans = self.workdir / "fit.spans.json" if traced else None
        predict_spans = self.workdir / "predict.spans.json" if traced else None
        t0 = time.perf_counter()
        rc_fit, rss_fit = run_child(self._argv(fit_cmd, fit_spans), self.workdir / "fit.log",
                                    self.env, self.workdir)
        t1 = time.perf_counter()
        rc_pred, rss_pred = run_child(self._argv(predict_cmd, predict_spans),
                                      self.workdir / "predict.log", self.env, self.workdir)
        t2 = time.perf_counter()
        if corrupt and self.preds_path.exists():
            lines = self.preds_path.read_text().splitlines()
            row_id, value = lines[1].split(",")
            lines[1] = f"{row_id},{float(value) * (1.0 + 1e-3)!r}"
            self.preds_path.write_text("\n".join(lines) + "\n")
        problems = [f"distreg {cmd} exited {rc}"
                    for cmd, rc in (("fit", rc_fit), ("predict", rc_pred)) if rc != 0]
        summary = None
        if not problems:
            summary, more = self._read_outputs()
            problems += more + self.check(summary)
        job_spans = None
        if traced:
            job_spans = []
            for path in (fit_spans, predict_spans):
                if path.exists():
                    job_spans += json.loads(path.read_text())
                    path.unlink()
        return {
            "t0": t0,
            "t1": t2,
            "wall_s": t2 - t0,
            "fit_s": t1 - t0,
            "predict_s": t2 - t1,
            "peak_rss_mb": max(rss_fit, rss_pred),
            "summary": summary,
            "problems": problems,
            "spans": job_spans,
        }

    def _inproc_predictions(self, digest: str) -> np.ndarray:
        """In-process predict on the loaded model, computed once per model digest.

        Kept in the work directory, so the later worker processes of a run
        reuse it instead of repeating a full cross-Gram.
        """
        cached = self.workdir / f"inproc-{digest[:16]}.npy"
        if not cached.exists():
            model = io.load_model(self.model_path)
            np.save(cached, solver.predict(model, self.test, threads=THREADS))
        return np.load(cached)

    def _read_outputs(self) -> tuple[dict, list[str]]:
        """Parse the model and CSV; compare the CSV with in-process predict bit for bit."""
        model_bytes = self.model_path.read_bytes()
        digest = hashlib.sha256(model_bytes).hexdigest()
        lam = json.loads(model_bytes)["lambda"]
        rows = [line.split(",") for line in self.preds_path.read_text().splitlines()[1:]]
        ids = [r[0] for r in rows]
        preds = np.array([float(r[1]) for r in rows])
        problems = []
        if ids != [b.id for b in self.test]:
            problems.append("prediction ids do not match the test bag file")
        if not np.array_equal(preds, self._inproc_predictions(digest)):
            problems.append("predictions CSV differs from in-process predict on the loaded model")
        return {"lambda": lam, "predictions": preds.tolist()}, problems

    def compare(self, summary, ref):
        problems = []
        if summary["lambda"] != ref["lambda"]:
            problems.append(f"lambda {summary['lambda']!r} != reference {ref['lambda']!r}")
        got, want = np.array(summary["predictions"]), np.array(ref["predictions"])
        if got.shape != want.shape:
            return problems + [f"{got.size} predictions, reference has {want.size}"]
        worst = float(np.max(np.abs(got - want)))
        if worst > RTOL * float(np.max(np.abs(want))):
            problems.append(f"predictions differ from reference by up to {worst:.3e}")
        return problems

    def determinism(self):
        y = np.array([b.label for b in self.train])
        return determinism_check(self.kspec, self.espec, self.train, y, self.test)


WORKLOADS = {cls.name: cls for cls in (RateSweep, CliFitPredict, ManySmallBags)}
