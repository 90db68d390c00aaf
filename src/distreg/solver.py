"""The two estimators: l2 coefficient regularization (any real outer kernel)
and the kernel ridge baseline (PSD outer kernels only).

The coefficient scheme solves (lam * m^2 * I + G^T G) alpha = G^T y. That
system matrix is symmetric positive definite for ANY real Gram matrix G and
lam > 0 (a scaled identity plus a Gram of columns), which is what lets the
scheme survive indefinite and asymmetric kernels. The ridge baseline solves
(lam * m * I + G) alpha = y and is only defined when G is symmetric PSD.

A fit factors its system once (Cholesky) and solves with that factor; the
same factor gives the fit report's condition estimate. A lambda search
reduces once for the whole grid, since lam only shifts the spectrum (the
ridge path, ESL 3.4.1): `alpha_paths` reduces G = Q T Q^T to a tridiagonal
T (Householder, Golub & Van Loan 8.3) and solves each alpha(lam) of the
ridge scheme in O(m), and, when G is exactly symmetric, of the coefficient
scheme too (G^T G = Q T^2 Q^T, through the shift T - i sqrt(lam) m I, so
the condition number is not squared). Only an asymmetric G makes the
coefficient scheme reduce G^T G instead. Neither Q nor an inverse is
formed. This linear algebra runs on one BLAS thread
(`blas.serial_blas`), so its results do not depend on the BLAS thread count,
and calls LAPACK's routines by name (`blas.lapack`, bound at the first call,
which predict never makes) on float64 Fortran arrays of its own (a Gram of
any layout or dtype is first copied C-ordered float64), with the arguments
scipy.linalg's cho_factor and cho_solve pass: same bits.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blas import lapack, serial_blas
from .embedding import Bag, EmbeddingKernelSpec
from .errors import ConfigError, ContractError, InputError, NumericalError
from .gram import GramMatrix, build_cross_gram, check_threads, mirror_upper
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

    `objective_value` is (1/m) ||G alpha - y||^2 plus lam m ||alpha||^2 for the
    coefficient scheme, plus lam alpha^T G alpha for the ridge.
    `condition_estimate` is ||A||_1 times the Hager-Higham estimate of
    ||A^-1||_1 (the algorithm of LAPACK's dlacn2, as in dpocon, on solves with
    the fit's Cholesky factor): an estimate of the 1-norm condition number of
    the system matrix A, not of the 2-norm one, with the same bits in every
    process. The estimate does not exceed the 1-norm condition number and is
    rarely below a third of it; that number in turn lies within a factor of m
    of the 2-norm one. `residual_norm` is the relative residual
    ||A alpha - b|| / ||b|| of the normal equations, with
    A alpha evaluated from G, since the factorization overwrites A:
    G^T (G alpha) + lam m^2 alpha for the coefficient scheme, G alpha +
    lam m alpha for the ridge. `wall_time` covers the system assembly, the
    factorization, the solve and this report; it does not cover building the
    Gram matrix or selecting lambda, which come before it.
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


def _operands(g_values, y) -> tuple[np.ndarray, np.ndarray, int]:
    """G as a C-ordered float64 array, y as a float64 vector and G's order m: one form for
    every solve. InputError unless G is nonempty and square and y holds m finite values."""
    g_values = np.ascontiguousarray(g_values, dtype=np.float64)
    y, m = np.asarray(y, dtype=np.float64).reshape(-1), len(g_values)
    if not (g_values.ndim == 2 and 0 < m == g_values.shape[1]):
        raise InputError(f"Gram matrix must be nonempty and square, got shape {g_values.shape}")
    if y.shape[0] != m:
        raise InputError(f"y has length {y.shape[0]}, Gram matrix is {m} x {m}")
    if not np.all(np.isfinite(y)):
        raise InputError("y contains non-finite values")
    return g_values, y, m


def _solve(scheme: str, g_values: np.ndarray, y, lam: float, train_bags: Sequence | None = None):
    """Assemble, factor and solve the scheme's normal equations A alpha = b.

    Checks lam, the scheme, G and y (`_operands`) and, when given, that `train_bags`
    has one bag per row of G, in that order; a non-finite A or b (an overflow, or a
    non-finite G) raises NumericalError. Returns alpha, the Cholesky factor of A as
    cho_factor gives it, ||A||_1, G and y as `_operands` gives them, and b.
    """
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    check_scheme(scheme)
    g_values, y, m = _operands(g_values, y)
    if train_bags is not None and len(train_bags) != m:
        raise InputError("train_bags must match the Gram matrix dimension")
    if scheme == "coefficient_l2":
        system, rhs, shift = g_values.T @ g_values, g_values.T @ y, lam * m * m
    else:
        system, rhs, shift = g_values.copy(), y, lam * m
    system.flat[:: m + 1] += shift
    # ||system||_1 as np.linalg.norm(system, 1) sums it, down each column in row
    # order, but with no |system| copy (dlange of system.T, whose rows they are);
    # taken first, as the factor overwrites it. A finite norm is a finite system.
    norm1 = lapack()("dlange", "I", m, m, system.T, m, np.empty(m))
    if not (np.isfinite(norm1) and np.all(np.isfinite(rhs))):
        raise NumericalError(f"{scheme} system is not finite at lambda {lam:g}")
    # Factors the F-ordered view system.T in place, whose upper triangle is the lower
    # one of `system`. G^T G is exactly symmetric; a ridge system, whose G may be
    # hand-made, first gets its own upper triangle mirrored there.
    if scheme == "krr":
        mirror_upper(system)
    info = lapack()("dpotrf", "U", m, system.T, m)
    if info > 0:
        minor = f"{info}-th leading minor of the array is not positive definite"
        raise NumericalError(f"SPD factorization failed: {minor}")
    return _cho_solve((system.T, False), rhs), (system.T, False), norm1, g_values, y, rhs


def _cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """A^-1 b from the (c, lower) Cholesky factor of A, as scipy's cho_solve; b is
    a vector or a matrix of columns."""
    c, x = factor[0], np.array(b, order="F")
    lapack()("dpotrs", "UL"[factor[1]], len(c), x.size // len(c), c, len(c), x, len(c))
    return x


@serial_blas
def solve_alpha(scheme: str, g_values: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Matrix-level solve for either scheme, without building a model: the fit's alpha."""
    return _solve(scheme, g_values, y, lam)[0]


def _apply_q(trans: str, q, c: np.ndarray) -> np.ndarray:
    """Q c (trans "N") or Q^T c (trans "T") in place on the F-ordered (m, k) `c`, as LAPACK's
    dormtr for UPLO='L' with `q` (reflectors, tau): H(1) ... H(m-1) act on rows 2..m."""
    (m, k), (reflectors, tau) = c.shape, q
    if m > 1:
        call, work = lapack(), np.empty(1)
        args = "L", trans, m - 1, k, m - 1, reflectors, m, tau, c[1:], m
        call("dormqr", *args, work, -1)  # the workspace query
        work = np.empty(int(work[0]))
        call("dormqr", *args, work, len(work))
    return c


def _reduce(sym: np.ndarray, rhs: np.ndarray):
    """sym = Q T Q^T by LAPACK's blocked dsytrd in place on sym.T, the F-ordered view of a
    C-ordered float64 `sym` (UPLO='L': its upper triangle, as `sym` is exactly symmetric).
    Returns T's diagonal and subdiagonal, Q as its reflectors and tau, and Q^T rhs as a
    column. The reflectors go to dormqr as dormtr passes them, A(2, 1) with leading
    dimension m: rows 2..m of the reduced array, not a copy."""
    call, a, m = lapack(), sym.T, len(sym)
    d, e, tau, work = np.empty(m), np.empty(m - 1), np.empty(m - 1), np.empty(1)
    call("dsytrd", "L", m, a, m, d, e, tau, work, -1)  # the workspace query
    work = np.empty(int(work[0]))
    call("dsytrd", "L", m, a, m, d, e, tau, work, len(work))
    return d, e, (a[1:], tau), _apply_q("T", (a[1:], tau), rhs[:, None].copy())


@serial_blas
def alpha_paths(
    schemes: Sequence[str], g_values: np.ndarray, y: np.ndarray, lams: Sequence[float]
) -> dict[str, np.ndarray]:
    """solve_alpha at every lam of `lams` for each scheme of `schemes`.

    Returns {scheme: (m, len(lams)) array of alphas, one column per lam}.
    With G = Q T Q^T (T tridiagonal), reduced from its upper triangle as the
    Cholesky solve reads it, the ridge alphas are Q (T + lam m I)^-1 Q^T y.
    When G is exactly symmetric, G^T G = G^2 and the coefficient alphas come
    from the same reduction: Q (T^2 + lam m^2 I)^-1 T Q^T y, the real part of
    Q (T - i sqrt(lam) m I)^-1 Q^T y, so T is never squared. Otherwise the
    coefficient scheme reduces G^T G = Q T Q^T and takes
    Q (T + lam m^2 I)^-1 Q^T G^T y: one O(m) tridiagonal solve per lam. A
    system not positive definite at some lam (a ridge one on an indefinite
    G) raises NumericalError naming the first such lam of `lams`. `g_values`
    must be finite, as a GramMatrix's values are; they are not checked here.
    `g_values` is used as scratch: it is reduced in place, so pass a copy.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if np.any(lams <= 0):
        raise ConfigError(f"lambda must be positive, got {lams.min()}")
    g_values, y, m = _operands(g_values, y)
    call = lapack()
    # What reads G intact comes first: G^T G, G^T y, then the upper triangle mirrored.
    symmetric = np.array_equal(g_values, g_values.T)
    if not symmetric:
        if "coefficient_l2" in schemes:
            reduced_gtg = _reduce(g_values.T @ g_values, g_values.T @ y)
        mirror_upper(g_values)
    reduced_g = None
    paths = {}
    for scheme in schemes:
        coefficient = check_scheme(scheme) == "coefficient_l2"
        if coefficient and not symmetric:
            d, e, q, w = reduced_gtg
        else:
            if reduced_g is None:
                reduced_g = _reduce(g_values, y)
            d, e, q, w = reduced_g
        alphas = np.empty((m, len(lams)), order="F")
        for j, lam in enumerate(lams):
            # Each solve overwrites its tridiagonal and right-hand side: fresh copies.
            if coefficient and symmetric:
                x, diagonal = w.astype(complex), d - 1j * (np.sqrt(lam) * m)
                info = call("zgtsv", m, 1, e.astype(complex), diagonal, e.astype(complex), x, m)
            else:
                x, diagonal = w.copy(), d + lam * (m * m if coefficient else m)
                info = call("dptsv", m, 1, diagonal, e.copy(), x, m)
            if info > 0:
                raise NumericalError(f"{scheme} system is not positive definite at lambda {lam:g}")
            alphas[:, j] = x[:, 0].real
        paths[scheme] = _apply_q("N", q, alphas)
    return paths


def _inverse_norm1(factor: tuple[np.ndarray, bool]) -> float:
    """Hager-Higham estimate of ||A^-1||_1 for the SPD A factored by `factor`: the
    algorithm of LAPACK's dlacn2, on solves with that factor (A^-1 is symmetric,
    so one solve also serves A^-T). At most 10 solves, the first of two columns; a
    lower bound on the norm. Every step is a cho_solve or a numpy pass, so the bits
    do not depend on where work arrays land in memory, as LAPACK's dpocon's do.
    """

    def signs(x: np.ndarray) -> np.ndarray:
        return np.where(x >= 0, 1.0, -1.0)

    n = len(factor[0])
    if n == 1:
        return float(abs(_cho_solve(factor, np.ones(1))[0]))
    # dlacn2's first and last test vectors, 1/n each and 1, -(1 + 1/(n-1)), ..., +-2.
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    x, alt = _cho_solve(factor, np.stack([np.full(n, 1.0 / n), alt], axis=1)).T
    est, sign = float(np.abs(x).sum()), signs(x)
    j = int(np.argmax(np.abs(_cho_solve(factor, sign))))
    for _ in range(4):  # dlacn2's iterations 2 to ITMAX = 5
        x = _cho_solve(factor, np.eye(1, n, j)[0])
        old, est = est, float(np.abs(x).sum())
        if np.array_equal(signs(x), sign) or est <= old:  # converged, or cycling
            break
        sign = signs(x)
        z = _cho_solve(factor, sign)
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    return max(est, 2.0 * (float(np.abs(alt).sum()) / (3 * n)))


@serial_blas
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
    t0 = time.perf_counter()
    alpha, factor, norm1, values, y, rhs = _solve(scheme, g.values, y, lam, train_bags)
    model = CoefficientModel(
        alpha=alpha,
        lam=lam,
        train_bags=tuple(train_bags),
        outer_kernel=outer_kernel,
        embedding_kernel=embedding_kernel,
        scheme=scheme,
        train_self_inners=g.self_inners,
    )
    # The system is the factor by now, so the report is evaluated from G alpha.
    m, g_alpha = len(y), values @ alpha
    if scheme == "coefficient_l2":
        applied, penalty = values.T @ g_alpha + lam * m * m * alpha, lam * m * (alpha @ alpha)
    else:
        applied, penalty = g_alpha + lam * m * alpha, lam * (alpha @ g_alpha)
    misfit = g_alpha - y
    residual, scale = np.linalg.norm(applied - rhs), np.linalg.norm(rhs)
    cond = norm1 * _inverse_norm1(factor)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"system condition estimate {cond:.3e} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
            "solution is SPD-solvable but may be inaccurate",
            IllConditionedWarning,
            stacklevel=3,
        )
    report = FitReport(
        objective_value=float(misfit @ misfit / m + penalty),
        residual_norm=float(residual / scale if scale > 0 else residual),
        condition_estimate=cond,
        wall_time=time.perf_counter() - t0,
    )
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


@serial_blas
def predict(
    model: CoefficientModel | Sequence[CoefficientModel],
    test_bags: Sequence[Bag],
    threads: int = 1,
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
    check_threads(threads)
    cross = np.zeros((0, len(first.train_bags)))
    if len(test_bags) > 0:
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
    threads: int = 1,
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
