"""Theory-facing computations and desk-scale experiments.

Covers the spectral effective dimension and its decay diagnostics, the
asymptotic lambda/N schedules with their regime split at regularity 2,
log-log learning-rate fits, the replicated rate experiment, and the
coefficient-vs-ridge saturation comparison. Quantities derived from Gram
spectra are empirical proxies for population operator spectra and are labeled
as such; the schedules' prefactor is exposed as a plain tuning scale because
its population value is unknowable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .blas import serial_blas
from .embedding import EmbeddingKernelSpec
from .errors import ConfigError, InputError, config_float, config_keys
from .gram import build_gram, check_dims_before_work, check_threads
from .outer import OuterKernelSpec
from .solver import _operands, alpha_paths, check_scheme, excess_error, fit_coefficient, fit_krr
from .solver import solve_alpha  # noqa: F401  (bench/spans.py wraps analysis.solve_alpha)
from .synth import MetaDistributionSpec, generate

# Singular values at or below this are treated as numerical noise.
DECAY_FLOOR = 1e-12

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-8.0, 0.0, 10))
DEFAULT_HOLDOUT_FRAC = 0.3

# A schedule N too large to represent meaningfully; always beyond any cap.
_N_HUGE = 10**18


@dataclass(frozen=True)
class ScheduleParams:
    """Knobs of the asymptotic schedules.

    r: regularity index of the target (> 0). alpha_decay: singular-value
    decay exponent; >= 1, where 1 is the capacity-independent limit case.
    h: Holder exponent of the outer kernel in (0, 1]. kappa4_scale:
    multiplier on the lambda schedule, default 1; stands in for the unknown
    population constant.
    """

    r: float
    alpha_decay: float
    h: float = 1.0
    kappa4_scale: float = 1.0

    def __post_init__(self):
        if not self.r > 0:
            raise ConfigError(f"r must be > 0, got {self.r}")
        if not self.alpha_decay >= 1:
            raise ConfigError(f"alpha_decay must be >= 1, got {self.alpha_decay}")
        if not 0 < self.h <= 1:
            raise ConfigError(f"h must lie in (0, 1], got {self.h}")
        if not self.kappa4_scale > 0:
            raise ConfigError(f"kappa4_scale must be positive, got {self.kappa4_scale}")

    @classmethod
    def from_dict(cls, d, what: str) -> "ScheduleParams":
        """Knobs from a config object; r defaults to 1 and alpha_decay to 2."""
        if not isinstance(d, dict):
            raise ConfigError(f"{what} must be an object, got {d!r}")
        defaults = {"r": 1.0, "alpha_decay": 2.0, "h": 1.0, "kappa4_scale": 1.0}
        config_keys(d, defaults, what)
        return cls(**{k: config_float(d.get(k, v), f"{what} {k!r}") for k, v in defaults.items()})


class Schedule(NamedTuple):
    beta: float
    zeta: float
    lam: float
    n_points: int


def effective_dimension(singular_values: np.ndarray, lam: float) -> float:
    """Spectral complexity sum sigma_l / (sigma_l + lam) over the singular values.

    Strictly decreasing in lam and bounded by the number of nonzero singular
    values.
    """
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    return float(np.sum(singular_values / (singular_values + lam)))


def fit_decay_exponent(singular_values: np.ndarray, head: int) -> float:
    """Fitted polynomial decay exponent of the leading (descending) singular values.

    Least-squares slope of log sigma_l against log l over the first `head`
    values above the noise floor, negated so that sigma_l ~ l^-alpha gives
    alpha back.
    """
    usable = singular_values[singular_values > DECAY_FLOOR][:head]
    if usable.shape[0] < 3:
        raise InputError(
            f"need at least 3 singular values above {DECAY_FLOOR} to fit a decay "
            f"exponent, got {usable.shape[0]}"
        )
    ranks = np.arange(1, usable.shape[0] + 1, dtype=np.float64)
    return -rate_fit(list(zip(ranks, usable))).slope


def schedule(p: ScheduleParams, m: int) -> Schedule:
    """lambda and N schedules as functions of the first-stage sample size.

    beta = 2a/(2ar+1) and zeta = (3a+2ar)/(h(2ar+1)) for r <= 2 (the sub-1/2
    range reuses the same expressions, following the PSD-case convention);
    past r = 2 both freeze at their r = 2 values, the saturation plateau.
    lambda = kappa4_scale * m^-beta; N = ceil(m^zeta * ln m). m must be at
    least 3 and fit in a float.
    """
    if not 3 <= m <= sys.float_info.max:
        raise InputError(f"schedule requires 3 <= m <= {sys.float_info.max:g}, got {m}")
    a, r, h = p.alpha_decay, p.r, p.h
    if r <= 2:
        beta = 2 * a / (2 * a * r + 1)
        zeta = (3 * a + 2 * a * r) / (h * (2 * a * r + 1))
    else:
        beta = 2 * a / (4 * a + 1)
        zeta = 7 * a / (h * (4 * a + 1))
    lam = p.kappa4_scale * m ** (-beta)
    # N explodes quickly; test in log space first to dodge float overflow.
    log_n = zeta * math.log(m) + math.log(math.log(m))
    if log_n >= math.log(_N_HUGE):
        n_points = _N_HUGE
    else:
        n_points = math.ceil(float(m) ** zeta * math.log(m))
    return Schedule(beta=beta, zeta=zeta, lam=lam, n_points=n_points)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log m, log error) points."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def rate_fit(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least squares for z = log error against x = log m in closed form: slope =
    sum(dx * dz) / sum(dx^2) over the centred values, intercept = mean(z) - slope * mean(x)."""
    if len(points) < 3:
        raise InputError(f"rate fit needs at least 3 points, got {len(points)}")
    ms = np.array([p[0] for p in points], dtype=np.float64)
    errs = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(errs <= 0):
        raise InputError("rate fit requires strictly positive errors")
    x, z = np.log(ms), np.log(errs)
    dx, dz = x - np.mean(x), z - np.mean(z)
    if not dx @ dx > 0:
        raise InputError("rate fit needs at least 2 distinct m values")
    slope = float(dx @ dz / (dx @ dx))
    intercept = float(np.mean(z) - slope * np.mean(x))
    fitted = slope * x + intercept
    ss_res = float(np.sum((z - fitted) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        points=tuple((float(m), float(e)) for m, e in points),
    )


@serial_blas
def select_lambda_holdout(
    g_values: np.ndarray,
    y: np.ndarray,
    grid: Sequence[float],
    schemes: Sequence[str],
    holdout_frac: float,
    seed: int,
) -> dict[str, tuple[float, list[tuple[float, float]]]]:
    """Pick lambda from a grid by held-out mean squared error, for each scheme.

    Splits the training set once (seeded permutation), fits on the kept part
    at every grid value, scores label MSE on the held-out part, and returns
    {scheme: (best lambda, (lambda, mse) table)}. Every scheme sees the same
    split. Ties break toward the smaller lambda via first-minimum selection
    on an ascending grid. The fits come from `solver.alpha_paths`, which
    reduces the kept block (a copy) to tridiagonal form in place, once for
    every lambda and, when it is exactly symmetric, for both schemes; they
    agree with per-lambda solves to rounding, not bit for bit. `g_values`
    must be finite, as a GramMatrix's values are.
    """
    g_values, y, m = _operands(g_values, y)
    grid = sorted(float(g) for g in grid)
    if len(grid) == 0:
        raise ConfigError("lambda grid is empty")
    if m < 3:
        raise InputError(f"holdout selection needs at least 3 bags, got {m}")
    n_hold = min(m - 2, max(1, round(holdout_frac * m)))
    perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(m)
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]
    paths = alpha_paths(schemes, g_values[np.ix_(fit_idx, fit_idx)], y[fit_idx], grid)
    # Taken after the path, so the held-out rows never sit beside the kept block.
    cross = g_values[np.ix_(hold_idx, fit_idx)]
    picks = {}
    for scheme, alphas in paths.items():
        residuals = cross @ alphas - y[hold_idx][:, None]
        table = [(lam, float(mse)) for lam, mse in zip(grid, np.mean(residuals**2, axis=0))]
        best = min(range(len(table)), key=lambda i: table[i][1])
        picks[scheme] = (table[best][0], table)
    return picks


def _derived_seed(master: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class LambdaRule:
    """How lambda is set, by mode: "fixed" uses `fixed`, "schedule" uses
    schedule(schedule_params, m).lam for m training bags, and "grid" picks from
    `grid` by the MSE on a held-out `holdout_frac` share of the bags.
    """

    mode: str
    fixed: float | None = None
    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    schedule_params: ScheduleParams = ScheduleParams(r=1.0, alpha_decay=2.0)
    holdout_frac: float = DEFAULT_HOLDOUT_FRAC

    def __post_init__(self):
        if self.mode not in ("fixed", "grid", "schedule"):
            raise ConfigError(f"unknown lambda mode {self.mode!r}")
        if self.mode == "fixed" and not (self.fixed is not None and 0 < self.fixed < math.inf):
            raise ConfigError(f"fixed lambda must be finite and positive, got {self.fixed}")
        if not self.grid or not all(0 < lam < math.inf for lam in self.grid):
            raise ConfigError(f"lambda grid must be nonempty, finite and positive, got {self.grid}")
        if not 0 < self.holdout_frac < 1:
            raise ConfigError(f"holdout_frac must lie in (0, 1), got {self.holdout_frac}")

    def check(self, m: int | None, seed: int | None) -> None:
        """Raise, before any work, what `pick` would on m bags (None: not yet known)."""
        if self.mode == "grid" and seed is None:
            raise ConfigError("lambda grid selection requires a seed")
        if self.mode == "grid" and m is not None and m < 3:
            raise InputError(f"holdout selection needs at least 3 bags, got {m}")

    def pick(self, g_values: np.ndarray, y: np.ndarray, schemes: Sequence[str], seed: int | None):
        """One lambda per scheme; one holdout split and selection serve them all."""
        self.check(len(y), seed)
        if self.mode == "fixed":
            return (float(self.fixed),) * len(schemes)
        if self.mode == "schedule":
            return (schedule(self.schedule_params, len(y)).lam,) * len(schemes)
        picks = select_lambda_holdout(g_values, y, self.grid, schemes, self.holdout_frac, seed)
        return tuple(picks[scheme][0] for scheme in schemes)


def _trial(config, m: int, n_points: int, schemes: Sequence[str], *key: int):
    """Draw m train and n_test test bags, set lambda, fit and score each scheme.

    `config`, a SweepConfig or SaturationConfig, was checked when it was built.
    Train set, test set and holdout split are seeded from the master seed, `key`
    and 0, 1, 2. One test cross-Gram scores every fit. Returns one lambda and
    one error per scheme.
    """
    meta, kspec, espec = config.meta, config.outer_kernel, config.embedding_kernel
    train = generate(replace(meta, seed=_derived_seed(meta.seed, *key, 0)), m, n_points)
    test = generate(replace(meta, seed=_derived_seed(meta.seed, *key, 1)), config.n_test, n_points)
    g = build_gram(kspec, espec, train.bags, threads=config.threads)
    y = train.labels()
    lams = config.lambda_rule.pick(g.values, y, schemes, _derived_seed(meta.seed, *key, 2))
    fitters = [fit_coefficient if scheme == "coefficient_l2" else fit_krr for scheme in schemes]
    models = [fit(g, y, lam, train.bags, kspec, espec)[0] for fit, lam in zip(fitters, lams)]
    return lams, excess_error(models, test.with_targets(), threads=config.threads)


@dataclass(frozen=True, kw_only=True)
class _TrialConfig:
    """What every experiment's trials share: the synthetic problem, both kernels,
    the test set size, the lambda grid and holdout share, and the Gram threads."""

    meta: MetaDistributionSpec
    embedding_kernel: EmbeddingKernelSpec
    outer_kernel: OuterKernelSpec
    n_test: int = 64
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    holdout_frac: float = DEFAULT_HOLDOUT_FRAC
    threads: int = 1

    def _check_trials(self, m: int, n_points: int, what: str) -> None:
        """Raise, before any draw, what a trial on m (the fewest) bags of
        `n_points` (the field `what`) would."""
        check_threads(self.threads)
        self.lambda_rule.check(m, self.meta.seed)  # a trial derives its holdout seed
        for name, value in ((what, n_points), ("n_test", self.n_test)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        check_dims_before_work(self.outer_kernel, self.embedding_kernel, self.meta.dim)


@dataclass(frozen=True, kw_only=True)
class SweepConfig(_TrialConfig):
    """One rate experiment: error versus first-stage sample size."""

    scheme: str
    m_values: tuple[int, ...]
    replications: int
    schedule_params: ScheduleParams
    lambda_mode: str = "grid"  # grid | schedule | fixed
    lambda_fixed: float | None = None
    n_max: int = 2000

    def __post_init__(self):
        check_scheme(self.scheme, self.outer_kernel)
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if len(self.m_values) < 1:
            raise ConfigError("m_values must be nonempty")
        if len(set(self.m_values)) < len(self.m_values):
            raise ConfigError(f"m_values must be distinct, got {self.m_values}")
        for m in self.m_values:
            schedule(self.schedule_params, m)  # every N comes from it; m < 3 raises
        self._check_trials(min(self.m_values), self.n_max, "n_max")

    @property
    def lambda_rule(self) -> LambdaRule:
        fields = (self.lambda_fixed, self.lambda_grid, self.schedule_params, self.holdout_frac)
        return LambdaRule(self.lambda_mode, *fields)


@dataclass(frozen=True)
class SweepRow:
    m: int
    n_points: int
    lam: float
    rep: int
    scheme: str
    error: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    fit: RateFit | None
    medians: dict[int, float]
    n_by_m: dict[int, int]
    capped_m: tuple[int, ...]  # m values where n_max bound the schedule N


def run_rate_experiment(config: SweepConfig) -> SweepResult:
    """Generate, fit, and score per (m, replication); fit the log-log rate line.

    The rate line goes through the per-m median errors. Every random stream
    is derived from the master seed and the (m, rep) pair, so reruns with the
    same config reproduce identical rows; the first R replications of a
    larger run coincide with an R-replication run.
    """
    rows: list[SweepRow] = []
    medians: dict[int, float] = {}
    n_by_m: dict[int, int] = {}
    capped: list[int] = []
    for m in config.m_values:
        sched = schedule(config.schedule_params, m)
        n_points = min(config.n_max, sched.n_points)
        n_by_m[m] = n_points
        if sched.n_points > config.n_max:
            capped.append(m)
        errors = []
        for rep in range(config.replications):
            (lam,), (err,) = _trial(config, m, n_points, (config.scheme,), m, rep)
            rows.append(SweepRow(m, n_points, lam, rep, config.scheme, err))
            errors.append(err)
        errors.sort()  # np.median's bits, without the numpy.ma it imports
        mid = len(errors) // 2
        medians[m] = errors[mid] if len(errors) % 2 else (errors[mid - 1] + errors[mid]) / 2
    fit = None
    if len(config.m_values) >= 3 and all(e > 0 for e in medians.values()):
        fit = rate_fit([(m, medians[m]) for m in config.m_values])
    return SweepResult(tuple(rows), fit, medians, n_by_m, tuple(capped))


@dataclass(frozen=True, kw_only=True)
class SaturationConfig(_TrialConfig):
    """Coefficient-vs-ridge comparison on one smooth synthetic problem: needs a PSD outer
    kernel (the ridge baseline is undefined otherwise) and the smooth_composite target."""

    m: int
    n_points: int

    def __post_init__(self):
        check_scheme("krr", self.outer_kernel)
        if self.meta.target != "smooth_composite":
            raise ConfigError(
                f"saturation comparison expects the smooth_composite target, "
                f"got {self.meta.target!r}"
            )
        self._check_trials(self.m, self.n_points, "n_points")

    @property
    def lambda_rule(self) -> LambdaRule:
        return LambdaRule("grid", grid=self.lambda_grid, holdout_frac=self.holdout_frac)


@dataclass(frozen=True)
class SaturationReport:
    err_coefficient: float
    err_krr: float
    lambda_grid: tuple[float, ...]
    lambda_coefficient: float
    lambda_krr: float
    ratio: float  # err_coefficient / err_krr
    winner: str


def saturation_compare(config: SaturationConfig) -> SaturationReport:
    """Fit both schemes on a shared problem and lambda grid; report both errors.

    Both schemes see the same data, the same holdout split, and the same
    grid; one lambda selection serves both, each scheme picks its own lambda
    and is refit on the full training set, and one test cross-Gram scores
    both fits.
    """
    (lam_coef, lam_krr), (err_coef, err_krr) = _trial(
        config, config.m, config.n_points, ("coefficient_l2", "krr")
    )
    return SaturationReport(
        err_coefficient=err_coef,
        err_krr=err_krr,
        lambda_grid=tuple(float(v) for v in config.lambda_grid),
        lambda_coefficient=lam_coef,
        lambda_krr=lam_krr,
        ratio=err_coef / err_krr if err_krr > 0 else math.inf,
        winner="coefficient_l2" if err_coef <= err_krr else "krr",
    )
