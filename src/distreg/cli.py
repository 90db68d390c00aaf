"""Command-line surface: fit, predict, sweep, spectrum, schedule, generate.

Configuration is one JSON document with sections for the data source (a bag
file path or a synthetic spec), the two kernels, the scheme, and the lambda
mode (exactly one of fixed / grid / schedule). Exit codes: 0 success, 2 I/O
or bad input data, 3 configuration or contract violations, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, io
from .embedding import EmbeddingKernelSpec
from .errors import (
    ConfigError, ContractError, InputError, NumericalError, config_float, config_int, config_keys,
)
from .gram import build_gram, check_dims_before_work, check_threads, kernel_fingerprint, spectrum
from .outer import OuterKernelSpec
from .solver import check_scheme, fit_coefficient, fit_krr, predict
from .synth import MetaDistributionSpec, generate

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
_EXIT_CODES = ((InputError, EXIT_IO), (OSError, EXIT_IO), (ConfigError, EXIT_CONFIG),
               (ContractError, EXIT_CONFIG), (NumericalError, EXIT_NUMERICAL))

_EFFDIM_GRID_SIZE = 20
_DEFAULT_DECAY_HEAD = 10


# Every top-level key some command reads; any other key is a typo.
_CONFIG_KEYS = (
    "data", "embedding_kernel", "outer_kernel", "scheme", "lambda", "schedule_params",
    "holdout_frac", "seed", "m", "replications", "n_max", "n_test", "decay_head",
)


def _load_config(path: str, seed_override: int | None = None) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    config_keys(cfg, _CONFIG_KEYS, "top-level config")
    if seed_override is not None:
        cfg["seed"] = seed_override
        data = cfg.get("data")
        if isinstance(data, dict) and isinstance(data.get("synth"), dict):
            data["synth"]["seed"] = seed_override
    return cfg


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _kernels(cfg: dict) -> tuple[OuterKernelSpec, EmbeddingKernelSpec]:
    try:
        espec = EmbeddingKernelSpec.from_dict(cfg["embedding_kernel"])
        kspec = OuterKernelSpec.from_dict(cfg["outer_kernel"])
    except KeyError as exc:
        raise ConfigError(f"config missing kernel section {exc}") from exc
    return kspec, espec


def _data(cfg: dict, synthetic_for: str | None = None):
    """A bag-file path, or (meta, m, N) of a synthetic source with m and N None when absent.

    `synthetic_for` names a command that accepts only a synthetic source.
    """
    data = cfg.get("data")
    if not isinstance(data, dict) or len(data) != 1 or not set(data) <= {"path", "synth"}:
        raise ConfigError("config needs a 'data' section with exactly one of 'path' or 'synth'")
    if "path" in data:
        if synthetic_for:
            raise ConfigError(f"{synthetic_for} requires a synthetic data source")
        if not isinstance(data["path"], str) or not data["path"]:
            raise ConfigError(f"data 'path' must be a non-empty string, got {data['path']!r}")
        return data["path"]
    spec = data["synth"]
    if not isinstance(spec, dict):
        raise ConfigError(f"'synth' must be an object, got {spec!r}")
    spec = dict(spec)
    m, n_points = (
        config_int(spec.pop(key), f"synthetic {key!r}", 1) if key in spec else None
        for key in ("m", "N")
    )
    return MetaDistributionSpec.from_dict(spec), m, n_points


def _bags(source, require_labels: bool, kernels: tuple | None = None) -> list:
    """Bags read from a path or drawn, once the reference bag and drawn bags fit `kernels`."""
    synthetic = not isinstance(source, str)
    if synthetic and None in source[1:]:
        raise ConfigError("synthetic data source needs 'm' and 'N'")
    if kernels is not None:
        check_dims_before_work(*kernels, source[0].dim if synthetic else None)
    if not synthetic:
        return io.read_bags(source, require_labels=require_labels)
    return list(generate(*source).bags)


def _lambda_rule(cfg: dict) -> analysis.LambdaRule:
    """The 'lambda' section, read with 'schedule_params' and 'holdout_frac'."""
    lam = cfg.get("lambda")
    if not isinstance(lam, dict) or len(lam) != 1 or not set(lam) <= {"fixed", "grid", "schedule"}:
        raise ConfigError(
            "config needs a 'lambda' section with exactly one of 'fixed', 'grid', 'schedule'"
        )
    ((mode, value),) = lam.items()
    if mode == "schedule" and "schedule_params" in cfg:
        raise ConfigError("'schedule_params' cannot be given with a 'lambda.schedule'")
    grid = _list(value, "lambda grid") if mode == "grid" else analysis.DEFAULT_LAMBDA_GRID
    key = "schedule" if mode == "schedule" else "schedule_params"
    params = (lam if mode == "schedule" else cfg).get(key, {})
    holdout_frac = cfg.get("holdout_frac", analysis.DEFAULT_HOLDOUT_FRAC)
    return analysis.LambdaRule(
        mode,
        fixed=config_float(value, "fixed lambda") if mode == "fixed" else None,
        grid=tuple(config_float(v, "lambda grid") for v in grid),
        schedule_params=analysis.ScheduleParams.from_dict(params, repr(key)),
        holdout_frac=config_float(holdout_frac, "'holdout_frac'"),
    )


def _print_fit_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(asdict(report)))
    else:
        print(f"objective_value     {report.objective_value:.12e}")
        print(f"residual_norm       {report.residual_norm:.3e}")
        print(f"condition_estimate  {report.condition_estimate:.3e}")
        print(f"wall_time           {report.wall_time:.4f}s")


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    scheme = check_scheme(cfg.get("scheme", "coefficient_l2"), kspec)
    rule = _lambda_rule(cfg)
    seed = None if cfg.get("seed") is None else config_int(cfg["seed"], "'seed'", 0)
    source = _data(cfg)
    rule.check(None, seed)
    check_threads(args.threads)
    bags = _bags(source, require_labels=True, kernels=(kspec, espec))
    rule.check(len(bags), seed)
    y = np.array([b.label for b in bags], dtype=np.float64)
    g = build_gram(kspec, espec, bags, threads=args.threads)
    (lam,) = rule.pick(g.values, y, (scheme,), seed)
    fitter = fit_coefficient if scheme == "coefficient_l2" else fit_krr
    model, report = fitter(g, y, lam, bags, kspec, espec)
    out = Path(args.out or "model.json")
    io.save_model(model, out)
    _print_fit_report(report, args.json)
    return EXIT_OK


def cmd_predict(args) -> int:
    check_threads(args.threads)
    model = io.load_model(args.model)
    if args.config:
        cfg = _load_config(args.config)
        if "embedding_kernel" in cfg or "outer_kernel" in cfg:
            kspec, espec = _kernels(cfg)
            requested = kernel_fingerprint(kspec, espec)
            stored = kernel_fingerprint(model.outer_kernel, model.embedding_kernel)
            if requested != stored:
                raise ContractError(
                    f"kernel fingerprint mismatch: model has {stored}, config requests {requested}"
                )
    bags = io.read_bags(args.bags)
    preds = predict(model, bags, threads=args.threads)
    rows = zip((b.id for b in bags), preds.tolist())
    io.write_csv(args.out or sys.stdout, ["id", "prediction"], rows)
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    bags = _bags(_data(cfg, synthetic_for="generate"), require_labels=False)
    out = Path(args.out or "bags.ndjson")
    io.write_bags(bags, out)
    print(f"wrote {len(bags)} bags to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    meta, *sizes = _data(cfg, synthetic_for="sweep")
    if sizes != [None, None]:
        raise ConfigError("sweep takes no data.synth 'm' or 'N'; it sweeps the top-level 'm'")
    rule = _lambda_rule(cfg)
    sweep_cfg = analysis.SweepConfig(
        meta=meta,
        embedding_kernel=espec,
        outer_kernel=kspec,
        scheme=cfg.get("scheme", "coefficient_l2"),
        m_values=tuple(config_int(m, "sweep 'm'", 3) for m in _list(cfg.get("m", []), "sweep 'm'")),
        replications=config_int(cfg.get("replications", 0), "'replications'", 1),
        schedule_params=rule.schedule_params,
        lambda_mode=rule.mode,
        lambda_grid=rule.grid,
        lambda_fixed=rule.fixed,
        n_max=config_int(cfg.get("n_max", 2000), "'n_max'", 1),
        n_test=config_int(cfg.get("n_test", 64), "'n_test'", 1),
        holdout_frac=rule.holdout_frac,
        threads=args.threads,
    )
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(sweep_cfg.m_values) < 3:
        print("warning: fewer than 3 m values; table emitted without a rate fit", file=sys.stderr)
    result = analysis.run_rate_experiment(sweep_cfg)
    io.write_csv(
        out_dir / "rates.csv",
        ["m", "N", "lambda", "rep", "scheme", "error"],
        ([r.m, r.n_points, r.lam, r.rep, r.scheme, r.error] for r in result.rows),
    )
    summary = {
        "medians": {str(m): e for m, e in result.medians.items()},
        "n_by_m": {str(m): n for m, n in result.n_by_m.items()},
        "n_max": sweep_cfg.n_max,
        "capped_m": list(result.capped_m),
        "scheme": sweep_cfg.scheme,
        "lambda_mode": rule.mode,
    }
    if result.fit is not None:
        summary["rate_fit"] = asdict(result.fit)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if result.fit is not None:
        print(f"rate slope {result.fit.slope:.4f} (r^2 {result.fit.r_squared:.3f})")
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    source = _data(cfg)
    head = config_int(cfg.get("decay_head", _DEFAULT_DECAY_HEAD), "'decay_head'", 3)
    check_threads(args.threads)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    bags = _bags(source, require_labels=False, kernels=(kspec, espec))
    if len(bags) < 3:
        raise ConfigError(f"spectrum needs at least 3 bags, got {len(bags)}")
    g = build_gram(kspec, espec, bags, threads=args.threads)
    singular = spectrum(g)
    alpha_hat = analysis.fit_decay_exponent(singular, head=head)
    top = float(singular[0])
    lam_grid = np.logspace(-6.0, 0.0, _EFFDIM_GRID_SIZE) * max(top, 1e-12)
    io.write_csv(
        out_dir / "spectrum.csv",
        ["l", "sigma"],
        ([i + 1, float(s)] for i, s in enumerate(singular)),
    )
    io.write_csv(
        out_dir / "effective_dimension.csv",
        ["lambda", "effective_dimension"],
        ([float(lam), analysis.effective_dimension(singular, float(lam))] for lam in lam_grid),
    )
    if args.dump_gram:
        io.write_gram_csv(g, out_dir / "gram.csv")
    payload = {"alpha_hat": alpha_hat, "m": len(bags), "top_singular_value": top}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"alpha_hat {alpha_hat:.4f} over {len(bags)} bags (head {head})")
    return EXIT_OK


def cmd_schedule(args) -> int:
    params = analysis.ScheduleParams(
        r=args.r, alpha_decay=args.alpha, h=args.h, kappa4_scale=args.kappa4_scale
    )
    sched = analysis.schedule(params, args.m)
    if args.json:
        print(
            json.dumps(
                {
                    "beta": sched.beta,
                    "zeta": sched.zeta,
                    "lambda": sched.lam,
                    "N": sched.n_points,
                }
            )
        )
    else:
        print(f"beta   {sched.beta:.6g}")
        print(f"zeta   {sched.zeta:.6g}")
        print(f"lambda {sched.lam:.6g}")
        print(f"N      {sched.n_points}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Coefficient-regularized distribution regression over bags of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, json_and_threads=True):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--out", help="output file or directory")
        if json_and_threads:
            p.add_argument("--json", action="store_true", help="machine-readable output")
            p.add_argument("--threads", type=int, default=1, help="Gram assembly threads")

    p_fit = sub.add_parser("fit", help="fit a model and write a model document")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict labels for a bag file")
    p_pred.add_argument("--model", required=True, help="model document path")
    p_pred.add_argument("--bags", required=True, help="bag file path")
    p_pred.add_argument("--config", help="optional config; kernels must match the model")
    p_pred.add_argument("--out", help="CSV output path (default: stdout)")
    p_pred.add_argument("--threads", type=int, default=1, help="cross-Gram assembly threads")
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("generate", help="write a synthetic bag file")
    add_common(p_gen, json_and_threads=False)
    p_gen.set_defaults(func=cmd_generate)

    p_sweep = sub.add_parser("sweep", help="rate experiment over a list of m values")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_spec = sub.add_parser("spectrum", help="Gram spectrum, decay fit, effective dimension")
    add_common(p_spec)
    p_spec.add_argument("--dump-gram", action="store_true", help="also dump the Gram as CSV")
    p_spec.set_defaults(func=cmd_spectrum)

    p_sched = sub.add_parser("schedule", help="print the lambda/N schedule for given knobs")
    p_sched.add_argument("--r", type=float, required=True, help="regularity index (> 0)")
    p_sched.add_argument("--alpha", type=float, required=True, help="decay exponent (> 1)")
    p_sched.add_argument("--h", type=float, default=1.0, help="Holder exponent in (0, 1]")
    p_sched.add_argument("--m", type=int, required=True, help="first-stage sample size")
    p_sched.add_argument("--kappa4-scale", type=float, default=1.0, dest="kappa4_scale")
    p_sched.add_argument("--json", action="store_true")
    p_sched.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # sweep and spectrum make their --out directory before the work; a run that
    # fails removes the topmost directory of that path which it found missing.
    out = Path(args.out or ".") if args.command in ("sweep", "spectrum") else Path(".")
    made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        if made is not None and made.exists():
            shutil.rmtree(made)
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
