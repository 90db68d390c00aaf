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
import sys
from pathlib import Path

import numpy as np

from . import analysis, io
from .embedding import EmbeddingKernelSpec
from .errors import ConfigError, ContractError, InputError, NumericalError
from .gram import build_gram, kernel_fingerprint, spectrum
from .outer import OuterKernelSpec
from .solver import check_scheme, fit_coefficient, fit_krr, predict
from .synth import MetaDistributionSpec, generate

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_EFFDIM_GRID_SIZE = 20
_DEFAULT_DECAY_HEAD = 10


def _load_config(path: str, seed_override: int | None = None) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    if seed_override is not None:
        cfg["seed"] = seed_override
        data = cfg.get("data")
        if isinstance(data, dict) and isinstance(data.get("synth"), dict):
            data["synth"]["seed"] = seed_override
    return cfg


def _value(cast, value, what: str):
    """cast(value) for a config value, or ConfigError naming it."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}") from exc


def _values(cast, value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return tuple(_value(cast, v, what) for v in value)


def _kernels(cfg: dict) -> tuple[OuterKernelSpec, EmbeddingKernelSpec]:
    try:
        espec = EmbeddingKernelSpec.from_dict(cfg["embedding_kernel"])
        kspec = OuterKernelSpec.from_dict(cfg["outer_kernel"])
    except KeyError as exc:
        raise ConfigError(f"config missing kernel section {exc}") from exc
    return kspec, espec


def _data_section(cfg: dict) -> dict:
    data = cfg.get("data")
    if not isinstance(data, dict) or len(data) != 1 or not set(data) <= {"path", "synth"}:
        raise ConfigError("config needs a 'data' section with exactly one of 'path' or 'synth'")
    return data


def _synth_section(data: dict) -> dict:
    synth_cfg = data["synth"]
    if not isinstance(synth_cfg, dict):
        raise ConfigError(f"'synth' must be an object, got {synth_cfg!r}")
    if "seed" not in synth_cfg:
        raise ConfigError("synthetic data source requires a seed")
    return dict(synth_cfg)


def _load_bags(cfg: dict, require_labels: bool) -> list:
    data = _data_section(cfg)
    if "path" in data:
        return io.read_bags(data["path"], require_labels=require_labels)
    synth_cfg = _synth_section(data)
    try:
        m = _value(int, synth_cfg.pop("m"), "synthetic 'm'")
        n_points = _value(int, synth_cfg.pop("N"), "synthetic 'N'")
    except KeyError as exc:
        raise ConfigError(f"synthetic data source missing {exc}") from exc
    meta = MetaDistributionSpec.from_dict(synth_cfg)
    return list(generate(meta, m, n_points).bags)


def _lambda_section(cfg: dict) -> tuple[str, object]:
    lam = cfg.get("lambda")
    if not isinstance(lam, dict) or len(lam) != 1 or not set(lam) <= {"fixed", "grid", "schedule"}:
        raise ConfigError(
            "config needs a 'lambda' section with exactly one of 'fixed', 'grid', 'schedule'"
        )
    mode, value = next(iter(lam.items()))
    return mode, value


def _schedule_params(section: dict | None) -> analysis.ScheduleParams:
    section = section or {}
    defaults = {"r": 1.0, "alpha_decay": 2.0, "h": 1.0, "kappa4_scale": 1.0}
    return analysis.ScheduleParams(
        **{k: _value(float, section.get(k, v), f"schedule {k!r}") for k, v in defaults.items()}
    )


def _resolve_lambda(cfg: dict, g_values: np.ndarray, y: np.ndarray, scheme: str) -> float:
    mode, value = _lambda_section(cfg)
    if mode == "fixed":
        return _value(float, value, "fixed lambda")
    if mode == "schedule":
        params = _schedule_params(value if isinstance(value, dict) else None)
        return analysis.schedule(params, len(y)).lam
    grid = _values(float, value, "lambda grid")
    seed = cfg.get("seed")
    if seed is None:
        raise ConfigError("lambda grid selection requires a 'seed' in the config")
    lam, _ = analysis.select_lambda_holdout(
        g_values,
        y,
        grid,
        (scheme,),
        _holdout_frac(cfg),
        _value(int, seed, "'seed'"),
    )[scheme]
    return lam


def _holdout_frac(cfg: dict) -> float:
    return _value(float, cfg.get("holdout_frac", analysis.DEFAULT_HOLDOUT_FRAC), "'holdout_frac'")


def _print_fit_report(report, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "objective_value": report.objective_value,
                    "residual_norm": report.residual_norm,
                    "condition_estimate": report.condition_estimate,
                    "wall_time": report.wall_time,
                }
            )
        )
    else:
        print(f"objective_value     {report.objective_value:.12e}")
        print(f"residual_norm       {report.residual_norm:.3e}")
        print(f"condition_estimate  {report.condition_estimate:.3e}")
        print(f"wall_time           {report.wall_time:.4f}s")


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    scheme = check_scheme(cfg.get("scheme", "coefficient_l2"), kspec)
    bags = _load_bags(cfg, require_labels=True)
    y = np.array([b.label for b in bags], dtype=np.float64)
    g = build_gram(kspec, espec, bags, threads=args.threads)
    lam = _resolve_lambda(cfg, g.values, y, scheme)
    fitter = fit_coefficient if scheme == "coefficient_l2" else fit_krr
    model, report = fitter(g, y, lam, bags, kspec, espec)
    out = Path(args.out or "model.json")
    io.save_model(model, out)
    _print_fit_report(report, args.json)
    return EXIT_OK


def cmd_predict(args) -> int:
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
    lines = ["id,prediction"]
    lines += [f"{b.id},{io.format_cell(float(p))}" for b, p in zip(bags, preds)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    data = _data_section(cfg)
    if "synth" not in data:
        raise ConfigError("generate requires a synthetic data section")
    bags = _load_bags(cfg, require_labels=False)
    out = Path(args.out or "bags.ndjson")
    io.write_bags(bags, out)
    print(f"wrote {len(bags)} bags to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    data = _data_section(cfg)
    if "synth" not in data:
        raise ConfigError("sweep requires a synthetic data source")
    synth_cfg = _synth_section(data)
    synth_cfg.pop("m", None)
    synth_cfg.pop("N", None)
    meta = MetaDistributionSpec.from_dict(synth_cfg)
    mode, value = _lambda_section(cfg)
    sched_params = _schedule_params(
        value if mode == "schedule" and isinstance(value, dict) else cfg.get("schedule_params")
    )
    m_values = _values(int, cfg.get("m", []), "sweep 'm'")
    if not m_values:
        raise ConfigError("sweep config needs a nonempty 'm' list")
    if len(m_values) < 3:
        print("warning: fewer than 3 m values; table emitted without a rate fit", file=sys.stderr)
    sweep_cfg = analysis.SweepConfig(
        meta=meta,
        embedding_kernel=espec,
        outer_kernel=kspec,
        scheme=cfg.get("scheme", "coefficient_l2"),
        m_values=m_values,
        replications=_value(int, cfg.get("replications", 0), "'replications'"),
        schedule_params=sched_params,
        lambda_mode=mode,
        lambda_grid=(
            _values(float, value, "lambda grid") if mode == "grid" else analysis.DEFAULT_LAMBDA_GRID
        ),
        lambda_fixed=_value(float, value, "fixed lambda") if mode == "fixed" else None,
        n_max=_value(int, cfg.get("n_max", 2000), "'n_max'"),
        n_test=_value(int, cfg.get("n_test", 64), "'n_test'"),
        holdout_frac=_holdout_frac(cfg),
        threads=args.threads,
    )
    result = analysis.run_rate_experiment(sweep_cfg)
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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
            "lambda_mode": mode,
        }
        if result.fit is not None:
            summary["rate_fit"] = {
                "slope": result.fit.slope,
                "intercept": result.fit.intercept,
                "r_squared": result.fit.r_squared,
                "points": [list(p) for p in result.fit.points],
            }
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if args.svg:
            io.write_svg_loglog(
                out_dir / "rates.svg",
                [(float(m), result.medians[m]) for m in sweep_cfg.m_values],
                xlabel="first-stage sample size m",
                ylabel="excess error",
                fit_slope=result.fit.slope if result.fit else None,
                fit_intercept=result.fit.intercept if result.fit else None,
                title="error vs sample size (log-log)",
            )
    except OSError as exc:
        raise InputError(f"cannot write outputs to {out_dir}: {exc}") from exc
    if result.fit is not None:
        print(f"rate slope {result.fit.slope:.4f} (r^2 {result.fit.r_squared:.3f})")
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config, args.seed)
    kspec, espec = _kernels(cfg)
    bags = _load_bags(cfg, require_labels=False)
    if len(bags) < 3:
        raise ConfigError(f"spectrum needs at least 3 bags, got {len(bags)}")
    g = build_gram(kspec, espec, bags, threads=args.threads)
    report = spectrum(g)
    head = _value(int, cfg.get("decay_head", _DEFAULT_DECAY_HEAD), "'decay_head'")
    alpha_hat = analysis.fit_decay_exponent(report, head=head)
    top = float(report.singular_values[0])
    lam_grid = np.logspace(-6.0, 0.0, _EFFDIM_GRID_SIZE) * max(top, 1e-12)
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        io.write_csv(
            out_dir / "spectrum.csv",
            ["l", "sigma"],
            ([i + 1, float(s)] for i, s in enumerate(report.singular_values)),
        )
        io.write_csv(
            out_dir / "effective_dimension.csv",
            ["lambda", "effective_dimension"],
            ([float(lam), analysis.effective_dimension(report, float(lam))] for lam in lam_grid),
        )
        if args.dump_gram:
            io.write_gram_csv(g, out_dir / "gram.csv")
    except OSError as exc:
        raise InputError(f"cannot write outputs to {out_dir}: {exc}") from exc
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

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--out", help="output file or directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--threads", type=int, default=None, help="Gram assembly threads")

    p_fit = sub.add_parser("fit", help="fit a model and write a model document")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict labels for a bag file")
    p_pred.add_argument("--model", required=True, help="model document path")
    p_pred.add_argument("--bags", required=True, help="bag file path")
    p_pred.add_argument("--config", help="optional config; kernels must match the model")
    p_pred.add_argument("--out", help="CSV output path (default: stdout)")
    p_pred.add_argument("--json", action="store_true")
    p_pred.add_argument("--threads", type=int, default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("generate", help="write a synthetic bag file")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_sweep = sub.add_parser("sweep", help="rate experiment over a list of m values")
    add_common(p_sweep)
    p_sweep.add_argument("--svg", action="store_true", help="also write a log-log SVG plot")
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
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
