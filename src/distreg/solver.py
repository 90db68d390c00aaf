"""The two estimators: l2 coefficient regularization (any real outer kernel)
and the kernel ridge baseline (PSD outer kernels only).

The coefficient scheme solves (lam * m^2 * I + G^T G) alpha = G^T y. That
system matrix is symmetric positive definite for ANY real Gram matrix G and
lam > 0 (a scaled identity plus a Gram of columns), which is what lets the
scheme survive indefinite and asymmetric kernels. The ridge baseline solves
(lam * m * I + G) alpha = y and is only defined when G is symmetric PSD.

A fit factors its system once (Cholesky) and solves with that factor; the
same factor gives the fit report's condition estimate. A lambda search
decomposes once for the whole grid, since lam only shifts eigenvalues (the
ridge path, Hastie, Tibshirani & Friedman, ESL 3.4.1): `alpha_paths`
diagonalizes G and reads every alpha(lam) of the ridge scheme off it, and,
when G is exactly symmetric, of the coefficient scheme too (G^T G = G^2, so
no product is formed and the condition number is not squared). Only an
asymmetric G makes the coefficient scheme diagonalize G^T G instead. No
inverses are formed.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .embedding import Bag, EmbeddingKernelSpec
from .errors import ConfigError, ContractError, InputError, NumericalError
from .gram import GramMatrix, build_cross_gram
from .outer import OuterKernelSpec

SCHEMES = ("coefficient_l2", "krr")

# Condition numbers above this trigger a warning but not a failure; the
# coefficient system stays SPD and solvable.
CONDITION_WARN_THRESHOLD = 1e12


class IllConditionedWarning(UserWarning):
    pass


def check_scheme(scheme: str, outer_kernel: OuterKernelSpec | None = None) -> str:
    """Return `scheme` if it names one of SCHEMES, else raise ConfigError.

    Given `outer_kernel`, also check the scheme's contract with it: the ridge
    baseline is defined only for a symmetric PSD outer kernel, and any other
    gets ContractError. Callers pass the kernel before they build a Gram or
    select a lambda, so the contract fails first.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if (
        scheme == "krr"
        and outer_kernel is not None
        and not (outer_kernel.psd_claimed and outer_kernel.symmetric)
    ):
        raise ContractError(
            f"KRR requires positive semi-definite K; outer kernel family "
            f"{outer_kernel.family!r} is not symmetric PSD"
        )
    return scheme


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of one fit.

    `condition_estimate` is LAPACK's estimate (dpocon, on the fit's Cholesky
    factor) of the 1-norm condition number ||A||_1 ||A^-1||_1 of the system
    matrix A, not of the 2-norm one. The estimate does not exceed the 1-norm
    condition number and is rarely below a third of it; that number in turn
    lies within a factor of m of the 2-norm one.
    """

    objective_value: float
    residual_norm: float
    condition_estimate: float
    wall_time: float


@dataclass(frozen=True)
class CoefficientModel:
    """A fitted model: coefficients plus everything prediction needs.

    Training bag points are retained because predictions evaluate the outer
    kernel between test embeddings and every training embedding.
    `train_self_inners` are the training embeddings' self inner products,
    carried over from the fit's Gram; where it is None (a model read from a
    file) predict computes them.
    """

    alpha: np.ndarray
    lam: float
    train_bags: tuple[Bag, ...]
    outer_kernel: OuterKernelSpec
    embedding_kernel: EmbeddingKernelSpec
    scheme: str
    train_self_inners: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_scheme(self.scheme)
        if len(self.alpha) != len(self.train_bags):
            raise InputError(
                f"alpha has length {len(self.alpha)} but there are "
                f"{len(self.train_bags)} training bags"
            )

    def predict(self, test_bags: Sequence[Bag], threads: int | None = None) -> np.ndarray:
        return predict(self, test_bags, threads=threads)


def _validate_fit_inputs(g: GramMatrix, y: np.ndarray, lam: float) -> np.ndarray:
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    if not g.square:
        raise InputError("fitting requires a square Gram matrix")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != g.m:
        raise InputError(f"y has length {y.shape[0]}, Gram matrix is {g.m} x {g.m}")
    if not np.all(np.isfinite(y)):
        raise InputError("y contains non-finite values")
    return y


def _cho_factor(system: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        return scipy.linalg.cho_factor(system)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"SPD factorization failed: {exc}") from exc


def assemble_system(
    scheme: str, g_values: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """System matrix and right-hand side of the scheme's normal equations."""
    m = len(y)
    if check_scheme(scheme) == "coefficient_l2":
        return lam * m * m * np.eye(m) + g_values.T @ g_values, g_values.T @ y
    return lam * m * np.eye(m) + g_values, y


def solve_alpha(scheme: str, g_values: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Matrix-level solve for either scheme, without building a model."""
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    system, rhs = assemble_system(scheme, g_values, np.asarray(y, dtype=np.float64), lam)
    return scipy.linalg.cho_solve(_cho_factor(system), rhs)


def _eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # evr needs no 2 m^2 workspace, unlike the divide-and-conquer default.
    return scipy.linalg.eigh(sym, lower=False, driver="evr", check_finite=False)


def alpha_paths(
    schemes: Sequence[str], g_values: np.ndarray, y: np.ndarray, lams: Sequence[float]
) -> dict[str, np.ndarray]:
    """solve_alpha at every lam of `lams` for each scheme of `schemes`.

    Returns {scheme: (m, len(lams)) array of alphas, one column per lam}.
    With G = Q diag(e) Q^T, read from its upper triangle as the Cholesky
    solve reads it, the ridge alphas are Q diag(1/(e + lam m)) Q^T y. When G
    is exactly symmetric, G^T G = G^2 and the coefficient alphas come from
    the same decomposition: Q diag(e/(e^2 + lam m^2)) Q^T y. Otherwise the
    coefficient scheme decomposes G^T G = Q diag(E) Q^T and takes
    Q diag(1/(E + lam m^2)) Q^T G^T y. A ridge system that is not positive
    definite at some lam raises NumericalError. `g_values` must be finite,
    as a GramMatrix's values are; they are not checked here.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if np.any(lams <= 0):
        raise ConfigError(f"lambda must be positive, got {lams.min()}")
    y = np.asarray(y, dtype=np.float64)
    m = len(y)
    eig_g = None
    paths = {}
    for scheme in schemes:
        if check_scheme(scheme) == "coefficient_l2" and not np.array_equal(g_values, g_values.T):
            evals, q = _eigh(g_values.T @ g_values)
            num, denom = (q.T @ (g_values.T @ y))[:, None], evals[:, None] + lams * m * m
        else:
            if eig_g is None:
                eig_g = _eigh(g_values)
            evals, q = eig_g
            if scheme == "coefficient_l2":
                num, denom = (evals * (q.T @ y))[:, None], evals[:, None] ** 2 + lams * m * m
            else:
                num, denom = (q.T @ y)[:, None], evals[:, None] + lams * m
                if not np.all(denom > 0):
                    bad = lams[np.any(denom <= 0, axis=0)]
                    raise NumericalError(
                        f"{scheme} system is not positive definite at lambda {bad[0]:g}"
                    )
        paths[scheme] = q @ (num / denom)
    return paths


def _report(
    system: np.ndarray,
    rhs: np.ndarray,
    alpha: np.ndarray,
    factor: tuple[np.ndarray, bool],
    norm1: float,
    objective: float,
    t0: float,
) -> FitReport:
    residual = np.linalg.norm(system @ alpha - rhs)
    scale = np.linalg.norm(rhs)
    rel_residual = residual / scale if scale > 0 else residual
    rcond, _ = scipy.linalg.lapack.dpocon(factor[0], norm1, uplo="L" if factor[1] else "U")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"system condition estimate {cond:.3e} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
            "solution is SPD-solvable but may be inaccurate",
            IllConditionedWarning,
            stacklevel=4,
        )
    return FitReport(
        objective_value=float(objective),
        residual_norm=float(rel_residual),
        condition_estimate=cond,
        wall_time=time.perf_counter() - t0,
    )


def coefficient_objective(g_values: np.ndarray, y: np.ndarray, lam: float, alpha: np.ndarray) -> float:
    """(1/m) ||G alpha - y||^2 + lam * m * ||alpha||^2."""
    m = len(y)
    fit = g_values @ alpha - y
    return float(fit @ fit / m + lam * m * (alpha @ alpha))


def krr_objective(g_values: np.ndarray, y: np.ndarray, lam: float, alpha: np.ndarray) -> float:
    """(1/m) ||G alpha - y||^2 + lam * alpha^T G alpha (PSD kernels)."""
    m = len(y)
    fit = g_values @ alpha - y
    return float(fit @ fit / m + lam * (alpha @ (g_values @ alpha)))


def _fit(
    scheme: str,
    g: GramMatrix,
    y: np.ndarray,
    lam: float,
    train_bags: Sequence[Bag],
    outer_kernel: OuterKernelSpec,
    embedding_kernel: EmbeddingKernelSpec,
) -> tuple[CoefficientModel, FitReport]:
    check_scheme(scheme, outer_kernel)
    y = _validate_fit_inputs(g, y, lam)
    if len(train_bags) != g.m:
        raise InputError("train_bags must match the Gram matrix dimension")
    t0 = time.perf_counter()
    system, rhs = assemble_system(scheme, g.values, y, lam)
    # Taken before factoring, so |system| is gone before the factor exists.
    norm1 = float(np.linalg.norm(system, 1))
    factor = _cho_factor(system)
    alpha = scipy.linalg.cho_solve(factor, rhs)
    model = CoefficientModel(
        alpha=alpha,
        lam=lam,
        train_bags=tuple(train_bags),
        outer_kernel=outer_kernel,
        embedding_kernel=embedding_kernel,
        scheme=scheme,
        train_self_inners=g.self_inners,
    )
    objective = coefficient_objective if scheme == "coefficient_l2" else krr_objective
    report = _report(system, rhs, alpha, factor, norm1, objective(g.values, y, lam, alpha), t0)
    return model, report


def fit_coefficient(
    g: GramMatrix,
    y: np.ndarray,
    lam: float,
    train_bags: Sequence[Bag],
    outer_kernel: OuterKernelSpec,
    embedding_kernel: EmbeddingKernelSpec,
) -> tuple[CoefficientModel, FitReport]:
    """Fit the l2 coefficient scheme: alpha = (lam m^2 I + G^T G)^{-1} G^T y."""
    return _fit("coefficient_l2", g, y, lam, train_bags, outer_kernel, embedding_kernel)


def fit_krr(
    g: GramMatrix,
    y: np.ndarray,
    lam: float,
    train_bags: Sequence[Bag],
    outer_kernel: OuterKernelSpec,
    embedding_kernel: EmbeddingKernelSpec,
) -> tuple[CoefficientModel, FitReport]:
    """Fit the ridge baseline: alpha = (lam m I + G)^{-1} y.

    Only legal for outer kernels that are symmetric and claimed PSD; anything
    else gets the contract error rather than a silent non-SPD solve.
    """
    return _fit("krr", g, y, lam, train_bags, outer_kernel, embedding_kernel)


def _same_training(a: CoefficientModel, b: CoefficientModel) -> bool:
    return (
        a.outer_kernel == b.outer_kernel
        and a.embedding_kernel == b.embedding_kernel
        and len(a.train_bags) == len(b.train_bags)
        and all(x is y for x, y in zip(a.train_bags, b.train_bags))
    )


def predict(
    model: CoefficientModel | Sequence[CoefficientModel],
    test_bags: Sequence[Bag],
    threads: int | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Predictions sum_i alpha_i K(mu_test, mu_train_i), test embedding first.

    `model` may also be a sequence of models fitted on the same training bags
    (the same Bag objects) with the same kernels, such as the two schemes of
    `saturation_compare`. One cross-Gram then serves them all, and the result
    is a list with each model's predictions, bit for bit what that model
    alone gives.
    """
    single = isinstance(model, CoefficientModel)
    models = [model] if single else list(model)
    first = models[0]
    if not all(_same_training(first, other) for other in models[1:]):
        raise InputError("models predicted together must share training bags and kernels")
    if len(test_bags) == 0:
        preds = [np.zeros(0) for _ in models]
    else:
        cross = build_cross_gram(
            first.outer_kernel,
            first.embedding_kernel,
            test_bags,
            first.train_bags,
            threads=threads,
            train_self_inners=first.train_self_inners,
        )
        preds = [cross @ mdl.alpha for mdl in models]
    return preds[0] if single else preds


def excess_error(
    model: CoefficientModel | Sequence[CoefficientModel],
    test_bags_with_targets: Sequence[tuple[Bag, float]],
    threads: int | None = None,
) -> float | list[float]:
    """Monte Carlo L2 distance to the regression function.

    Test bags come with their noiseless targets; the estimate is the root
    mean squared gap between predictions and those targets. Given a sequence
    of models, as `predict` takes it, returns one error per model.
    """
    if len(test_bags_with_targets) == 0:
        raise InputError("excess_error needs a nonempty test set")
    bags = [b for b, _ in test_bags_with_targets]
    targets = np.array([t for _, t in test_bags_with_targets], dtype=np.float64)
    single = isinstance(model, CoefficientModel)
    preds = predict(model, bags, threads=threads)
    errors = [float(np.sqrt(np.mean((p - targets) ** 2))) for p in ([preds] if single else preds)]
    return errors[0] if single else errors
