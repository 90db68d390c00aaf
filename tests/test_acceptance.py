"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Frozen reference values (rate slope, saturation ratio) were measured once
with scripts/freeze_reference.py on the identical seeded configurations.
"""

import json
import time

import numpy as np
import pytest

import distreg as dr
from distreg import ContractError
from distreg import io as dio
from distreg.cli import main as cli_main

from conftest import (
    coefficient_objective,
    gram_from_matrix,
    krr_objective,
    make_bags,
    make_indefinite_fixture,
)
from test_embedding import naive_inner
from test_solver import (
    pinv_coefficient_alpha,
    pinv_krr_alpha,
    random_indefinite_matrix,
    random_psd_matrix,
)

# Frozen references (scripts/freeze_reference.py, 50 replications / seeded).
REFERENCE_SLOPE_50REP = -0.3125618135896923
REFERENCE_SATURATION_RATIO = 1.04151664751034

_ESPEC = dr.EmbeddingKernelSpec("gaussian", 1.0, 2)
_PSD = dr.OuterKernelSpec.gaussian(1.0)


def report(criterion: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


def _bags(m):
    return make_bags(1000 + m, m, 2, 2)


def _fit_20_problems():
    """The 20 seeded 10x10 problems shared by criteria 1 and 2."""
    problems = []
    for seed in range(10):
        problems.append(("psd", random_psd_matrix(seed), np.random.default_rng(seed).normal(size=10)))
    for seed in range(10):
        problems.append(
            ("indefinite", random_indefinite_matrix(100 + seed),
             np.random.default_rng(100 + seed).normal(size=10))
        )
    return problems


def test_criterion_1_solver_oracle_equivalence():
    t0 = time.perf_counter()
    lam = 0.05
    ok = True
    for kind, values, y in _fit_20_problems():
        model, rep = dr.fit_coefficient(
            gram_from_matrix(values), y, lam, _bags(10), _PSD, _ESPEC
        )
        oracle = pinv_coefficient_alpha(values, y, lam)
        rel = np.linalg.norm(model.alpha - oracle) / max(np.linalg.norm(oracle), 1e-300)
        ok &= rel <= 1e-8 and rep.residual_norm <= 1e-8
        if kind == "psd":
            km, krep = dr.fit_krr(gram_from_matrix(values), y, lam, _bags(10), _PSD, _ESPEC)
            koracle = pinv_krr_alpha(values, y, lam)
            krel = np.linalg.norm(km.alpha - koracle) / max(np.linalg.norm(koracle), 1e-300)
            ok &= krel <= 1e-8 and krep.residual_norm <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, f"solver-oracle equivalence, {elapsed:.2f}s", ok)


def test_criterion_2_minimizer_property():
    lam = 0.05
    rng = np.random.default_rng(8675309)
    ok = True
    for kind, values, y in _fit_20_problems():
        model, _ = dr.fit_coefficient(gram_from_matrix(values), y, lam, _bags(10), _PSD, _ESPEC)
        base = coefficient_objective(values, y, lam, model.alpha)
        scale = 1e-3 * np.linalg.norm(model.alpha)
        for _ in range(100):
            delta = rng.normal(size=10)
            delta *= scale / np.linalg.norm(delta)
            ok &= coefficient_objective(values, y, lam, model.alpha + delta) >= base - 1e-12
        if kind == "psd":
            km, _ = dr.fit_krr(gram_from_matrix(values), y, lam, _bags(10), _PSD, _ESPEC)
            kbase = krr_objective(values, y, lam, km.alpha)
            kscale = 1e-3 * np.linalg.norm(km.alpha)
            for _ in range(100):
                delta = rng.normal(size=10)
                delta *= kscale / np.linalg.norm(delta)
                ok &= krr_objective(values, y, lam, km.alpha + delta) >= kbase - 1e-12
    report(2, "perturbations never beat the fitted objective", ok)


def test_criterion_3_embedding_oracle():
    spec = dr.EmbeddingKernelSpec("gaussian", 1.0, 2)
    ok = True
    for seed in range(50):
        a, b = make_bags(seed, 2, 4 + seed % 5, 2)
        lib = dr.embed_inner(spec, a, b)
        ok &= abs(lib - naive_inner(spec, a, b)) <= 1e-12
        iaa, ibb = dr.embed_inner(spec, a, a), dr.embed_inner(spec, b, b)
        ok &= lib**2 <= iaa * ibb + 1e-10  # Cauchy-Schwarz
        ok &= abs(lib) <= 1.0  # boundedness
    report(3, "embed_inner vs naive double loop on 50 pairs", ok)


def test_criterion_4_indefiniteness_survived():
    kspec, espec, bags = make_indefinite_fixture()
    g = dr.build_gram(kspec, espec, bags)
    min_eig = float(np.linalg.eigvalsh(0.5 * (g.values + g.values.T)).min())
    y = np.random.default_rng(0).normal(size=len(bags))
    _, rep = dr.fit_coefficient(g, y, 0.01, bags, kspec, espec)
    krr_refused = False
    try:
        dr.fit_krr(g, y, 0.01, bags, kspec, espec)
    except ContractError:
        krr_refused = True
    ok = min_eig < -1e-6 and rep.residual_norm <= 1e-8 and krr_refused
    report(4, f"min eig {min_eig:.3e}, coefficient fit ok, KRR refused", ok)


def test_criterion_5_schedule_arithmetic():
    s1 = dr.schedule(dr.ScheduleParams(r=0.5, alpha_decay=1.0, h=1.0), 100)
    s2 = dr.schedule(dr.ScheduleParams(r=3.0, alpha_decay=2.0, h=1.0), 100)
    s3 = dr.schedule(dr.ScheduleParams(r=1.0, alpha_decay=2.0, h=1.0), 100)
    ok = (
        abs(s1.beta - 1.0) < 1e-12
        and abs(s1.zeta - 2.0) < 1e-12
        and s1.n_points == 46052
        and abs(s2.beta - 4.0 / 9.0) < 1e-12
        and abs(s2.zeta - 14.0 / 9.0) < 1e-12
        and abs(s3.beta - 0.8) < 1e-12
        and abs(s3.zeta - 2.0) < 1e-12
    )
    for alpha in (1.1, 1.5, 2.0, 3.0, 5.0):
        at = dr.schedule(dr.ScheduleParams(r=2.0, alpha_decay=alpha), 50).beta
        above = dr.schedule(dr.ScheduleParams(r=2.0 + 1e-12, alpha_decay=alpha), 50).beta
        ok &= abs(at - 2 * alpha / (4 * alpha + 1)) < 1e-12 and abs(above - at) < 1e-9
    report(5, "schedule values and continuity at the regularity knee", ok)


def test_criterion_6_capacity_bound():
    sv = 1.0 / np.arange(1, 201, dtype=np.float64) ** 2
    ok = True
    for lam in np.logspace(-4, 0, 20):
        value = dr.effective_dimension(sv, float(lam))
        exact = sum(s / (s + lam) for s in sv)  # independent scalar oracle
        ok &= abs(value - exact) <= 1e-12 * max(exact, 1.0)
        ok &= value <= 2.0 * lam ** (-0.5)
    report(6, "effective dimension under the closed-form cap", ok)


def test_criterion_7_desk_scale_rate_check():
    t0 = time.perf_counter()
    cfg = dr.SweepConfig(
        meta=dr.MetaDistributionSpec(
            dim=1, scale=0.1, target="linear_mean", noise_sd=0.05,
            noise_bound=2.0, seed=20240817,
        ),
        embedding_kernel=dr.EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=dr.OuterKernelSpec.gaussian(1.0),
        scheme="coefficient_l2",
        m_values=(25, 50, 100, 200),
        replications=10,
        schedule_params=dr.ScheduleParams(r=1.0, alpha_decay=2.0, h=1.0),
        lambda_mode="grid",
        n_max=100,
        n_test=64,
        threads=2,
    )
    result = dr.run_rate_experiment(cfg)
    elapsed = time.perf_counter() - t0
    slope = result.fit.slope
    ok = (
        result.medians[200] < result.medians[25]
        and slope < 0
        and abs(slope - REFERENCE_SLOPE_50REP) <= 0.15
        and elapsed < 600.0
        and result.capped_m == (25, 50, 100, 200)  # the N cap bound, and is recorded
    )
    report(
        7,
        f"slope {slope:.4f} vs reference {REFERENCE_SLOPE_50REP:.4f}, "
        f"medians {result.medians[25]:.4f}->{result.medians[200]:.4f}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_8_saturation_report():
    cfg = dr.SaturationConfig(
        meta=dr.MetaDistributionSpec(
            dim=1, scale=0.1, target="smooth_composite", noise_sd=0.05,
            noise_bound=2.0, seed=424242,
        ),
        embedding_kernel=dr.EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=dr.OuterKernelSpec.gaussian(1.0),
        m=60,
        n_points=50,
        threads=2,
    )
    rep = dr.saturation_compare(cfg)
    ok = (
        np.isfinite(rep.err_coefficient)
        and np.isfinite(rep.err_krr)
        and rep.err_coefficient > 0
        and rep.err_krr > 0
        and rep.ratio == pytest.approx(REFERENCE_SATURATION_RATIO, rel=1e-3)
    )
    report(8, f"ratio {rep.ratio:.5f} vs frozen {REFERENCE_SATURATION_RATIO:.5f}", ok)


def test_criterion_9_cli_round_trip(tmp_path):
    config = {
        "data": {
            "synth": {
                "dim": 1, "scale": 0.1, "target": "linear_mean", "noise_sd": 0.05,
                "noise_bound": 2.0, "seed": 321, "m": 15, "N": 12,
            }
        },
        "embedding_kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
        "outer_kernel": {"family": "gaussian_on_embedding", "sigma": 1.0},
        "scheme": "coefficient_l2",
        "lambda": {"fixed": 0.01},
        "seed": 321,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    model_path = tmp_path / "model.json"
    assert cli_main(["fit", "--config", str(cfg_path), "--out", str(model_path)]) == 0
    model = dio.load_model(model_path)
    bags_path = tmp_path / "train.ndjson"
    dio.write_bags(model.train_bags, bags_path)
    pred_path = tmp_path / "pred.csv"
    assert (
        cli_main(["predict", "--model", str(model_path), "--bags", str(bags_path),
                  "--out", str(pred_path)])
        == 0
    )
    lines = pred_path.read_text().splitlines()
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    expected = dr.predict(model, list(model.train_bags))
    bitwise = np.array_equal(got, expected)

    # same-seed sweeps: identical CSVs (no timing fields in the outputs)
    sweep_cfg = dict(config)
    sweep_cfg["data"] = {"synth": {k: v for k, v in config["data"]["synth"].items()
                                   if k not in ("m", "N")}}
    sweep_cfg["lambda"] = {"grid": [1e-6, 1e-3, 1.0]}
    sweep_cfg.update({"m": [8, 12, 16], "replications": 2, "n_max": 12, "n_test": 12})
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_cfg))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["sweep", "--config", str(sweep_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(sweep_path), "--out", str(out2)]) == 0
    sweeps_identical = (out1 / "rates.csv").read_text() == (out2 / "rates.csv").read_text()
    ok = bitwise and sweeps_identical
    report(9, "fit->serialize->predict bitwise; same-seed sweeps identical", ok)
