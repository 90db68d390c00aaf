"""Solver tests: closed-form cases, pseudo-inverse oracles, and the contract
between the two schemes on indefinite kernels.
"""

import numpy as np
import pytest

from distreg import (
    Bag,
    CoefficientModel,
    ConfigError,
    ContractError,
    EmbeddingKernelSpec,
    InputError,
    NumericalError,
    OuterKernelSpec,
    blas,
    build_gram,
    excess_error,
    fit_coefficient,
    fit_krr,
    predict,
    spectrum,
)
from distreg.blas import serial_blas
from distreg.solver import _cho_solve, _inverse_norm1, _solve, alpha_paths, solve_alpha

from conftest import (
    assemble_system,
    coefficient_objective,
    gram_from_matrix,
    krr_objective,
    make_bags,
    make_indefinite_fixture,
)
from test_gram import naive_outer

ESPEC = EmbeddingKernelSpec("gaussian", 1.0, 2)
PSD_KSPEC = OuterKernelSpec.gaussian(1.0)


def _dummy_bags(m):
    return make_bags(99, m, 2, 2)


def pinv_coefficient_alpha(values: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Oracle: explicit pseudo-inverse of the normal equations."""
    m = values.shape[0]
    system = lam * m * m * np.eye(m) + values.T @ values
    return np.linalg.pinv(system) @ (values.T @ y)


def pinv_krr_alpha(values: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    m = values.shape[0]
    return np.linalg.pinv(lam * m * np.eye(m) + values) @ y


def random_indefinite_matrix(seed: int, m: int = 10) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    return 0.5 * (a + a.T)  # symmetric but with negative eigenvalues


def random_psd_matrix(seed: int, m: int = 10) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    return a @ a.T / m


class TestFitCoefficient:
    def test_scaled_identity_gram(self):
        m, c, lam = 4, 2.0, 0.3
        y = np.array([1.0, -0.5, 2.0, 0.25])
        model, report = fit_coefficient(
            gram_from_matrix(c * np.eye(m)), y, lam, _dummy_bags(m), PSD_KSPEC, ESPEC
        )
        expected = c * y / (lam * m * m + c * c)
        assert np.allclose(model.alpha, expected, atol=1e-14)
        assert report.residual_norm <= 1e-8

    def test_one_by_one(self):
        model, _ = fit_coefficient(
            gram_from_matrix([[2.0]]), np.array([1.0]), 1.0, _dummy_bags(1), PSD_KSPEC, ESPEC
        )
        assert model.alpha[0] == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pinv_oracle_indefinite(self, seed):
        values = random_indefinite_matrix(seed)
        y = np.random.default_rng(1000 + seed).normal(size=10)
        lam = 0.05
        model, report = fit_coefficient(
            gram_from_matrix(values), y, lam, _dummy_bags(10), PSD_KSPEC, ESPEC
        )
        oracle = pinv_coefficient_alpha(values, y, lam)
        assert np.linalg.norm(model.alpha - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1)
        assert report.residual_norm <= 1e-8

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            fit_coefficient(
                gram_from_matrix(np.eye(2)), np.ones(2), 0.0, _dummy_bags(2), PSD_KSPEC, ESPEC
            )

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    @pytest.mark.parametrize("route", ["solve_alpha", "fit_coefficient", "fit_krr"])
    def test_every_solve_refuses_non_positive_lambda(self, route, lam):
        g, y = gram_from_matrix(np.eye(3)), np.ones(3)
        run = {
            "solve_alpha": lambda: solve_alpha("krr", g.values, y, lam),
            "fit_coefficient": lambda: fit_coefficient(g, y, lam, _dummy_bags(3), PSD_KSPEC, ESPEC),
            "fit_krr": lambda: fit_krr(g, y, lam, _dummy_bags(3), PSD_KSPEC, ESPEC),
        }[route]
        with pytest.raises(ConfigError, match="lambda must be positive"):
            run()

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_alpha_paths_refuses_non_positive_lambda(self, lam):
        with pytest.raises(ConfigError, match="lambda must be positive"):
            alpha_paths(("coefficient_l2", "krr"), np.eye(3), np.ones(3), [1e-3, lam])

    def test_train_bags_must_match_the_gram(self):
        with pytest.raises(InputError, match="train_bags must match the Gram matrix dimension"):
            fit_coefficient(
                gram_from_matrix(np.eye(3)), np.ones(3), 0.1, _dummy_bags(2), PSD_KSPEC, ESPEC
            )

    @pytest.mark.parametrize("fit", [fit_coefficient, fit_krr])
    def test_checks_run_in_order(self, fit):
        # Each input below holds every error from its own on: the first one wins.
        g, bags = gram_from_matrix(np.eye(3)), _dummy_bags(2)
        cases = [
            (0.0, [np.nan, 1.0], ConfigError, "lambda must be positive"),
            (0.1, [np.nan, 1.0], InputError, "y has length 2"),
            (0.1, [np.nan, 1.0, 0.0], InputError, "y contains non-finite values"),
        ]
        for lam, y, kind, message in cases:
            with pytest.raises(kind, match=message):
                fit(g, np.array(y), lam, bags, PSD_KSPEC, ESPEC)

    def test_y_length_mismatch(self):
        with pytest.raises(InputError):
            fit_coefficient(
                gram_from_matrix(np.eye(3)), np.ones(2), 0.1, _dummy_bags(3), PSD_KSPEC, ESPEC
            )

    def test_non_finite_labels_rejected(self):
        y = np.array([1.0, np.nan, 0.0])
        with pytest.raises(InputError):
            fit_coefficient(
                gram_from_matrix(np.eye(3)), y, 0.1, _dummy_bags(3), PSD_KSPEC, ESPEC
            )

    def test_minimizer_property(self):
        values = random_indefinite_matrix(3)
        y = np.random.default_rng(7).normal(size=10)
        lam = 0.02
        model, report = fit_coefficient(
            gram_from_matrix(values), y, lam, _dummy_bags(10), PSD_KSPEC, ESPEC
        )
        base = coefficient_objective(values, y, lam, model.alpha)
        assert base == pytest.approx(report.objective_value, rel=1e-12)
        rng = np.random.default_rng(123)
        scale = 1e-3 * np.linalg.norm(model.alpha)
        for _ in range(100):
            delta = rng.normal(size=10)
            delta *= scale / np.linalg.norm(delta)
            assert coefficient_objective(values, y, lam, model.alpha + delta) >= base - 1e-12

    def test_alpha_norm_monotone_in_lambda(self):
        values = random_indefinite_matrix(11)
        y = np.random.default_rng(11).normal(size=10)
        norms = []
        for lam in np.logspace(-6, 1, 10):
            model, _ = fit_coefficient(
                gram_from_matrix(values), y, lam, _dummy_bags(10), PSD_KSPEC, ESPEC
            )
            norms.append(np.linalg.norm(model.alpha))
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))


class TestFitKrr:
    def test_scaled_identity_gram(self):
        m, c, lam = 5, 1.5, 0.2
        y = np.linspace(-1, 1, m)
        model, _ = fit_krr(
            gram_from_matrix(c * np.eye(m)), y, lam, _dummy_bags(m), PSD_KSPEC, ESPEC
        )
        assert np.allclose(model.alpha, y / (lam * m + c), atol=1e-14)

    def test_large_lambda_dominance(self):
        values = random_psd_matrix(5, 8)
        y = np.random.default_rng(5).normal(size=8)
        lam = 1e6 * np.linalg.norm(values, 2) / 8
        model, _ = fit_krr(
            gram_from_matrix(values), y, lam, _dummy_bags(8), PSD_KSPEC, ESPEC
        )
        assert np.allclose(model.alpha, y / (lam * 8), rtol=0.01)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pinv_oracle_psd(self, seed):
        values = random_psd_matrix(seed)
        y = np.random.default_rng(2000 + seed).normal(size=10)
        lam = 0.1
        model, report = fit_krr(
            gram_from_matrix(values), y, lam, _dummy_bags(10), PSD_KSPEC, ESPEC
        )
        oracle = pinv_krr_alpha(values, y, lam)
        assert np.linalg.norm(model.alpha - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1)
        assert report.residual_norm <= 1e-8

    def test_rejects_indefinite_kernel_spec(self):
        kspec = OuterKernelSpec.dog(0.5, 1.5, 0.9)
        with pytest.raises(ContractError, match="positive semi-definite"):
            fit_krr(gram_from_matrix(np.eye(3)), np.ones(3), 0.1, _dummy_bags(3), kspec, ESPEC)

    def test_rejects_asymmetric_kernel_spec(self):
        ref = Bag("ref", np.zeros((1, 2)))
        kspec = OuterKernelSpec.tilted(1.0, 1.0, ref)
        with pytest.raises(ContractError, match="positive semi-definite"):
            fit_krr(gram_from_matrix(np.eye(3)), np.ones(3), 0.1, _dummy_bags(3), kspec, ESPEC)

    def test_minimizer_property_krr_objective(self):
        values = random_psd_matrix(9)
        y = np.random.default_rng(9).normal(size=10)
        lam = 0.05
        model, _ = fit_krr(
            gram_from_matrix(values), y, lam, _dummy_bags(10), PSD_KSPEC, ESPEC
        )
        base = krr_objective(values, y, lam, model.alpha)
        rng = np.random.default_rng(321)
        scale = 1e-3 * np.linalg.norm(model.alpha)
        for _ in range(100):
            delta = rng.normal(size=10)
            delta *= scale / np.linalg.norm(delta)
            assert krr_objective(values, y, lam, model.alpha + delta) >= base - 1e-12


class TestIndefiniteRobustness:
    def test_coefficient_survives_krr_refuses(self, indefinite_fixture):
        kspec, espec, bags = indefinite_fixture
        g = build_gram(kspec, espec, bags)
        assert np.linalg.eigvalsh(0.5 * (g.values + g.values.T)).min() < -1e-6
        y = np.random.default_rng(0).normal(size=len(bags))
        model, report = fit_coefficient(g, y, 0.01, bags, kspec, espec)
        assert report.residual_norm <= 1e-8
        assert np.all(np.isfinite(model.alpha))
        with pytest.raises(ContractError, match="positive semi-definite"):
            fit_krr(g, y, 0.01, bags, kspec, espec)


def test_scheme_reduction_to_krr():
    # Hidden generic-penalty solver: with the Gram-weighted penalty on an
    # invertible PSD Gram, (lam m G + G^T G) alpha = G^T y collapses to the
    # ridge solution.
    values = random_psd_matrix(17) + 0.1 * np.eye(10)  # comfortably invertible
    y = np.random.default_rng(17).normal(size=10)
    lam = 0.3
    m = 10
    generic = np.linalg.solve(lam * m * values + values.T @ values, values.T @ y)
    model, _ = fit_krr(gram_from_matrix(values), y, lam, _dummy_bags(m), PSD_KSPEC, ESPEC)
    assert np.allclose(generic, model.alpha, atol=1e-8)


class TestPredict:
    def test_single_bag_interpolation(self, gaussian_embedding):
        bag = Bag("train", np.array([[0.2, 0.3], [0.4, 0.5]]))
        model = CoefficientModel(
            alpha=np.array([1.0]),
            lam=0.1,
            train_bags=(bag,),
            outer_kernel=OuterKernelSpec.gaussian(1.0),
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        same = Bag("test", bag.points.copy())
        assert predict(model, [same])[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_alpha_zero_predictions(self, gaussian_embedding):
        bags = make_bags(51, 3, 4, 2)
        model = CoefficientModel(
            alpha=np.zeros(3),
            lam=0.1,
            train_bags=tuple(bags),
            outer_kernel=OuterKernelSpec.gaussian(1.0),
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        assert np.array_equal(predict(model, make_bags(52, 5, 3, 2)), np.zeros(5))

    def test_matches_scalar_loop_oracle(self, gaussian_embedding):
        train = make_bags(53, 4, 3, 2)
        test = make_bags(54, 5, 3, 2)
        kspec = OuterKernelSpec.dog(0.5, 1.3, 0.8)
        alpha = np.random.default_rng(55).normal(size=4)
        model = CoefficientModel(
            alpha=alpha,
            lam=0.2,
            train_bags=tuple(train),
            outer_kernel=kspec,
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        preds = predict(model, test)
        for t_idx, t in enumerate(test):
            expected = sum(
                a * naive_outer(kspec, gaussian_embedding, t, b)
                for a, b in zip(alpha, train)
            )
            assert preds[t_idx] == pytest.approx(expected, abs=1e-10)

    def test_asymmetric_test_first_slot(self, gaussian_embedding):
        train = make_bags(56, 3, 3, 2)
        test = make_bags(57, 2, 3, 2)
        kspec = OuterKernelSpec.tilted(1.0, 1.0, train[0])
        alpha = np.array([0.5, -0.2, 0.1])
        model = CoefficientModel(
            alpha=alpha,
            lam=0.2,
            train_bags=tuple(train),
            outer_kernel=kspec,
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        preds = predict(model, test)
        for t_idx, t in enumerate(test):
            expected = sum(
                a * naive_outer(kspec, gaussian_embedding, t, b)
                for a, b in zip(alpha, train)
            )
            assert preds[t_idx] == pytest.approx(expected, abs=1e-10)


class TestSeveralModels:
    """Models sharing their training bags are scored from one cross-Gram."""

    def _models(self, gaussian_embedding):
        train = make_bags(71, 6, 5, 2)
        g = build_gram(PSD_KSPEC, gaussian_embedding, train)
        y = np.random.default_rng(72).normal(size=6)
        return [
            fit(g, y, 0.05, train, PSD_KSPEC, gaussian_embedding)[0]
            for fit in (fit_coefficient, fit_krr)
        ]

    def test_equals_one_model_at_a_time(self, gaussian_embedding, monkeypatch):
        from distreg import solver

        models = self._models(gaussian_embedding)
        test = make_bags(73, 5, 4, 2)
        targets = np.random.default_rng(74).normal(size=5)
        builds = []
        real = solver.build_cross_gram
        monkeypatch.setattr(
            solver, "build_cross_gram", lambda *a, **k: builds.append(1) or real(*a, **k)
        )
        together = predict(models, test)
        errors = excess_error(models, list(zip(test, targets)))
        assert len(builds) == 2
        for model, preds, err in zip(models, together, errors):
            assert np.array_equal(preds, predict(model, test))
            assert err == excess_error(model, list(zip(test, targets)))

    def test_empty_test_set(self, gaussian_embedding):
        together = predict(self._models(gaussian_embedding), [])
        assert [p.shape for p in together] == [(0,), (0,)]

    def test_different_training_bags_rejected(self, gaussian_embedding):
        a, b = self._models(gaussian_embedding)
        from dataclasses import replace

        other = replace(b, train_bags=tuple(Bag(x.id, x.points) for x in b.train_bags))
        with pytest.raises(InputError):
            predict([a, other], make_bags(75, 2, 4, 2))


class TestExcessError:
    def _model(self, gaussian_embedding):
        bags = make_bags(61, 3, 3, 2)
        return CoefficientModel(
            alpha=np.zeros(3),
            lam=0.1,
            train_bags=tuple(bags),
            outer_kernel=OuterKernelSpec.gaussian(1.0),
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )

    def test_zero_predictions_constant_targets(self, gaussian_embedding):
        model = self._model(gaussian_embedding)
        pairs = [(b, 2.0) for b in make_bags(62, 4, 3, 2)]
        assert excess_error(model, pairs) == pytest.approx(2.0, abs=1e-12)

    def test_perfect_predictions(self, gaussian_embedding):
        model = self._model(gaussian_embedding)
        pairs = [(b, 0.0) for b in make_bags(63, 4, 3, 2)]
        assert excess_error(model, pairs) == 0.0

    def test_matches_direct_formula(self, gaussian_embedding):
        train = make_bags(64, 4, 3, 2)
        alpha = np.random.default_rng(65).normal(size=4)
        model = CoefficientModel(
            alpha=alpha,
            lam=0.1,
            train_bags=tuple(train),
            outer_kernel=OuterKernelSpec.gaussian(1.0),
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        test = make_bags(66, 5, 3, 2)
        targets = np.random.default_rng(67).normal(size=5)
        preds = predict(model, test)
        expected = float(np.sqrt(np.mean((preds - targets) ** 2)))
        assert excess_error(model, list(zip(test, targets))) == pytest.approx(
            expected, abs=1e-14
        )

    def test_empty_test_set(self, gaussian_embedding):
        with pytest.raises(InputError):
            excess_error(self._model(gaussian_embedding), [])


def test_condition_warning_on_near_singular():
    from distreg.solver import IllConditionedWarning

    rng = np.random.default_rng(8)
    u = rng.normal(size=(10, 1))
    values = u @ u.T  # rank one
    with pytest.warns(IllConditionedWarning):
        fit_coefficient(
            gram_from_matrix(values), rng.normal(size=10), 1e-14, _dummy_bags(10),
            PSD_KSPEC, ESPEC,
        )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scheme", ["coefficient_l2", "krr"])
def test_condition_estimate_brackets_two_norm_condition(scheme, seed):
    # The estimate is of the 1-norm condition number, which lies within a
    # factor m of the 2-norm one; the estimate is rarely below a third of it.
    m = 40
    espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
    bags = make_bags(300 + seed, m, 6, 1, spread=0.1)
    kspec = OuterKernelSpec.gaussian(1.0) if seed % 2 else OuterKernelSpec.dog(0.3, 1.1, 0.8)
    if scheme == "krr":
        kspec = OuterKernelSpec.gaussian(0.5 + 0.2 * seed)
    g = build_gram(kspec, espec, bags)
    y = np.random.default_rng(seed).normal(size=m)
    fit = fit_coefficient if scheme == "coefficient_l2" else fit_krr
    for lam in (1e-8, 1e-4, 1e-1):
        _, report = fit(g, y, lam, bags, kspec, espec)
        kappa2 = np.linalg.cond(assemble_system(scheme, g.values, y, lam)[0])
        assert kappa2 / 3 <= report.condition_estimate <= m * kappa2


def test_alpha_length_validation():
    with pytest.raises(InputError):
        CoefficientModel(
            alpha=np.zeros(2),
            lam=0.1,
            train_bags=tuple(_dummy_bags(3)),
            outer_kernel=PSD_KSPEC,
            embedding_kernel=ESPEC,
            scheme="krr",
        )


def oracle_fit(scheme, values, y, lam):
    """alpha and condition estimate by whole-matrix formulas: factor a copy of the
    system, its 1-norm from np.linalg.norm, the inverse-norm estimate on that factor."""
    import scipy.linalg

    with serial_blas:
        system, rhs = assemble_system(scheme, values, y, lam)
        norm1 = np.linalg.norm(system, 1)
        factor = scipy.linalg.cho_factor(system.copy())
        return scipy.linalg.cho_solve(factor, rhs), norm1 * _inverse_norm1(factor)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 300])
def test_inverse_norm_estimate_follows_lapack_dlacn2(n):
    # LAPACK's dpocon runs dlacn2 on triangular solves of its own (dlatrs): the
    # same iteration, so the same estimate up to the rounding of those solves.
    # Like any estimate of this kind it never exceeds ||A^-1||_1.
    import scipy.linalg

    rng = np.random.default_rng(n)
    for shift in (1e-6, 1e-2, 1.0):
        a = rng.normal(size=(n, n))
        system = a @ a.T + shift * np.eye(n)
        with serial_blas:
            factor = scipy.linalg.cho_factor(system.copy())
            norm1 = np.linalg.norm(system, 1)
            rcond, _ = scipy.linalg.lapack.dpocon(factor[0], norm1, uplo="U")
            estimate = _inverse_norm1(factor)
        assert norm1 * estimate == pytest.approx(1.0 / rcond, rel=1e-12)
        assert estimate <= np.linalg.norm(np.linalg.inv(system), 1) * (1 + 1e-9)


def hand_made_asymmetric(seed, m=50):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    values = a @ a.T / m + np.eye(m) + 1e-3 * rng.normal(size=(m, m))
    assert not np.array_equal(values, values.T)
    return values, rng.normal(size=m)


class TestInPlaceFitBits:
    """A fit factors its own system in place and takes the 1-norm without a
    copy; alpha, objective and condition estimate keep the bits of the formulas
    on a copy. Only the residual, now evaluated from G, may move."""

    @pytest.mark.parametrize("scheme", ["coefficient_l2", "krr"])
    def test_built_gram(self, scheme):
        espec = EmbeddingKernelSpec("gaussian", 0.3, 1)
        bags = make_bags(71, 150, 4, 1)  # ids bag-00 ... bag-149: not in rank order
        kspec = OuterKernelSpec.gaussian(0.8)
        g = build_gram(kspec, espec, bags)
        y = np.random.default_rng(3).normal(size=g.m)
        fit = fit_coefficient if scheme == "coefficient_l2" else fit_krr
        objective = coefficient_objective if scheme == "coefficient_l2" else krr_objective
        for lam in (1e-6, 1e-3):
            model, report = fit(g, y, lam, bags, kspec, espec)
            alpha, cond = oracle_fit(scheme, g.values, y, lam)
            assert model.alpha.tobytes() == alpha.tobytes()
            assert report.condition_estimate == cond
            assert report.objective_value == objective(g.values, y, lam, alpha)
            assert report.residual_norm <= 1e-8
            assert solve_alpha(scheme, g.values, y, lam).tobytes() == alpha.tobytes()

    @pytest.mark.parametrize("scheme", ["coefficient_l2", "krr"])
    def test_hand_made_asymmetric_gram(self, scheme):
        # The ridge system is factored from its upper triangle, as on a copy;
        # the caller's matrix is left as it was.
        values, y = hand_made_asymmetric(5)
        kept = values.copy()
        g = gram_from_matrix(values)
        fit = fit_coefficient if scheme == "coefficient_l2" else fit_krr
        model, report = fit(g, y, 1e-3, _dummy_bags(g.m), PSD_KSPEC, ESPEC)
        alpha, cond = oracle_fit(scheme, values, y, 1e-3)
        assert model.alpha.tobytes() == alpha.tobytes()
        assert report.condition_estimate == cond
        assert solve_alpha(scheme, values, y, 1e-3).tobytes() == alpha.tobytes()
        assert np.array_equal(values, kept)

    def test_one_norm_without_a_copy_equals_numpy(self):
        import scipy.linalg

        a = np.random.default_rng(6).normal(size=(1000, 1000)) * np.logspace(0, 3, 1000)
        assert scipy.linalg.lapack.dlange("I", a.T) == np.linalg.norm(a, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "scheme, values, lam",
    [("krr", np.eye(3), 1e308), ("coefficient_l2", 1e200 * np.eye(3), 1.0)],
    ids=["lambda_m_overflows", "gram_product_overflows"],
)
def test_a_non_finite_system_is_refused(scheme, values, lam):
    # LAPACK's dpotrf alone would factor it and give alpha = 0.
    with pytest.raises(NumericalError, match=f"^{scheme} system is not finite at lambda"):
        solve_alpha(scheme, values, np.ones(3), lam)


def test_a_system_that_is_not_positive_definite_keeps_its_message():
    want = "SPD factorization failed: 2-th leading minor of the array is not positive definite"
    with pytest.raises(NumericalError, match=f"^{want}$"):
        solve_alpha("krr", np.diag([1.0, -1.0, 1.0]), np.ones(3), 1e-3)


LAPACK_ROUTINES = (
    "dpotrf", "dpotrs", "dlange", "dsytrd", "dsytrd_lwork", "dormqr", "dptsv", "zgtsv",
    "dgesdd", "dgesdd_lwork",
)


class TestLapackRoutes:
    """The solves, norms, reductions and singular values call scipy's LAPACK
    extension directly, with the arguments that scipy.linalg's cho_factor,
    cho_solve and svdvals pass: their bits, from 1 x 1 to past LAPACK's blocked
    crossovers."""

    def test_the_routines_are_the_ones_scipy_linalg_lapack_exports(self):
        import scipy.linalg

        for name in LAPACK_ROUTINES:
            assert getattr(blas.lapack(), name) is getattr(scipy.linalg.lapack, name), name

    @pytest.mark.parametrize("m", [1, 7, 300])
    @pytest.mark.parametrize("scheme", ["coefficient_l2", "krr"])
    def test_a_solve_equals_cho_factor_and_cho_solve(self, scheme, m):
        import scipy.linalg

        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m))
        values = a @ a.T / m + np.eye(m) + 1e-3 * rng.normal(size=(m, m))
        y, x = rng.normal(size=m), rng.normal(size=m)
        with serial_blas:
            system, rhs = assemble_system(scheme, values, y, 1e-3)
            want = scipy.linalg.cho_factor(system.copy())
            alpha, factor, norm1, _, _ = _solve(scheme, values, y, 1e-3)
            assert np.triu(factor[0]).tobytes() == np.triu(want[0]).tobytes()
            assert factor[1] == want[1]
            assert alpha.tobytes() == scipy.linalg.cho_solve(want, rhs).tobytes()
            assert _cho_solve(factor, x).tobytes() == scipy.linalg.cho_solve(want, x).tobytes()
            assert norm1 == scipy.linalg.lapack.dlange("I", system.T) == np.linalg.norm(system, 1)

    @pytest.mark.parametrize("m", [1, 7, 300])
    def test_the_spectrum_equals_svdvals(self, m):
        import scipy.linalg

        rng = np.random.default_rng(m)
        values = rng.normal(size=(m, m))  # asymmetric past 1 x 1
        with serial_blas:
            want = np.sort(scipy.linalg.svdvals(values / m))[::-1]
            assert spectrum(gram_from_matrix(values)).tobytes() == want.tobytes()

    def test_an_svd_that_does_not_converge_is_a_numerical_error(self, monkeypatch):
        dgesdd = blas.lapack().dgesdd
        monkeypatch.setattr(blas.lapack(), "dgesdd", lambda *a, **k: (*dgesdd(*a, **k)[:3], 1))
        with pytest.raises(NumericalError, match=r"dgesdd info 1\)$"):
            spectrum(gram_from_matrix(np.eye(3)))

    @pytest.mark.parametrize("m", [7, 300])  # 1 x 1: test_alpha_paths_of_the_smallest_blocks
    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_a_lambda_path_equals_scipy_linalg_lapack(self, m, asymmetric):
        rng = np.random.default_rng(m)
        values = random_psd_matrix(m, m=m) + np.eye(m)
        if asymmetric:
            values += 1e-3 * rng.normal(size=(m, m))
        y, lams, schemes = rng.normal(size=m), np.logspace(-8, 0, 5), ("coefficient_l2", "krr")
        want = reduction_paths(schemes, values, y, lams)
        got = alpha_paths(schemes, values.copy(), y, lams)
        for scheme in schemes:
            assert got[scheme].tobytes() == want[scheme].tobytes()


def oracle_paths(schemes, values, y, lams):
    """alpha_paths by the eigen formula: eigh on copies of G (or of G^T G), read from
    the upper triangle."""
    import scipy.linalg

    def eigh(a):
        return scipy.linalg.eigh(a.copy(), lower=False, driver="evr", check_finite=False)

    lams, m, out = np.asarray(lams), len(y), {}
    with serial_blas:
        for scheme in schemes:
            if scheme == "coefficient_l2" and not np.array_equal(values, values.T):
                e, q = eigh(values.T @ values)
                num, den = (q.T @ (values.T @ y))[:, None], e[:, None] + lams * m * m
            elif scheme == "coefficient_l2":
                e, q = eigh(values)
                num, den = (e * (q.T @ y))[:, None], e[:, None] ** 2 + lams * m * m
            else:
                e, q = eigh(values)
                num, den = (q.T @ y)[:, None], e[:, None] + lams * m
            out[scheme] = q @ (num / den)
    return out


def reduction_paths(schemes, values, y, lams):
    """alpha_paths by the same tridiagonal reduction on copies: dsytrd on a copy of
    G (or of G^T G), and dormqr given a copy of the reflector block."""
    import scipy.linalg

    lapack, lams, m, out = scipy.linalg.lapack, np.asarray(lams), len(y), {}

    def reduce(a):
        lwork = int(lapack.dsytrd_lwork(m, lower=1)[0])
        c, d, e, tau, _ = lapack.dsytrd(np.asfortranarray(a.T), lower=1, lwork=lwork)
        return d, e, np.asfortranarray(c[1:, :-1]), tau

    def apply(trans, refl, tau, c):
        lwork = int(lapack.dormqr("L", trans, refl, tau, c[1:], -1)[1][0])
        c[1:] = lapack.dormqr("L", trans, refl, tau, c[1:], lwork)[0]
        return c

    symmetric = np.array_equal(values, values.T)
    with serial_blas:
        for scheme in schemes:
            if scheme == "coefficient_l2" and not symmetric:
                d, e, refl, tau = reduce(values.T @ values)
                w, shift = apply("T", refl, tau, (values.T @ y)[:, None]), m * m
            else:
                d, e, refl, tau = reduce(np.triu(values) + np.triu(values, 1).T)
                w, shift = apply("T", refl, tau, y[:, None].copy()), m
            cols = []
            for lam in lams:
                if scheme == "coefficient_l2" and symmetric:
                    b = w.astype(complex)
                    cols.append(lapack.zgtsv(e, d - 1j * (np.sqrt(lam) * m), e, b)[3].real)
                else:
                    cols.append(lapack.dptsv(d + lam * shift, e, w)[2])
            out[scheme] = apply("N", refl, tau, np.asfortranarray(np.hstack(cols)))
    return out


@pytest.mark.parametrize("asymmetric", [False, True])
@pytest.mark.parametrize("schemes", [("coefficient_l2", "krr"), ("krr", "coefficient_l2")])
def test_alpha_paths_in_place_equal_eigh_on_a_copy(schemes, asymmetric):
    # The reflectors stay in the reduced block, which dormqr reads uncopied; the
    # alphas keep the bits of the same reduction on copies.
    if asymmetric:
        values, y = hand_made_asymmetric(8, m=70)
    else:
        values = random_psd_matrix(8, m=70) + np.eye(70)
        y = np.random.default_rng(8).normal(size=70)
    lams = np.logspace(-8, 0, 7)
    want = reduction_paths(schemes, values, y, lams)
    scratch = values.copy()
    got = alpha_paths(schemes, scratch, y, lams)
    assert list(got) == list(schemes)
    for scheme in schemes:
        assert got[scheme].tobytes() == want[scheme].tobytes()
    assert not np.array_equal(scratch, values)  # reduced in place


@pytest.mark.parametrize("values", [[[2.0]], [[2.0, 0.5], [0.4, 1.0]]], ids=["1x1", "2x2"])
def test_alpha_paths_of_the_smallest_blocks_equal_the_solves(values):
    values, y = np.array(values), np.linspace(1.0, 2.0, len(values))
    got = alpha_paths(("coefficient_l2", "krr"), values.copy(), y, [0.1, 1.0])
    for scheme in ("coefficient_l2", "krr"):
        for j, lam in enumerate((0.1, 1.0)):
            want = solve_alpha(scheme, values, y, lam)
            assert np.allclose(got[scheme][:, j], want, rtol=1e-14, atol=0), scheme


@pytest.mark.parametrize("kind", ["symmetric", "indefinite", "asymmetric"])
def test_alpha_paths_agree_with_the_eigen_formula(kind):
    # m = 200 takes dsytrd's and dormqr's blocked paths.
    m, schemes = 200, ("coefficient_l2", "krr")
    y = np.random.default_rng(8).normal(size=m)
    if kind == "symmetric":
        values = random_psd_matrix(8, m=m) + np.eye(m)
    elif kind == "asymmetric":
        values, y = hand_made_asymmetric(8, m=m)
    else:
        kspec, espec, _ = make_indefinite_fixture()
        values = build_gram(kspec, espec, make_bags(5, m, 8, 2, spread=0.3, box=3.0)).values
        assert np.linalg.eigvalsh(values)[0] < 0
        schemes = ("coefficient_l2",)  # no ridge system is positive definite at every lam
    lams = np.logspace(-8, 0, 9)
    want = oracle_paths(schemes, values, y, lams)
    got = alpha_paths(schemes, values.copy(), y, lams)
    for scheme in schemes:
        gap = np.linalg.norm(got[scheme] - want[scheme], axis=0)
        assert np.all(gap <= 1e-7 * np.linalg.norm(want[scheme], axis=0)), (scheme, gap)


class TestDenseStagesMemory:
    """Gram assembly, lambda selection and each fit hold G plus at most 1.4 m^2
    float64 above what they were given: the division, mirror, reordering and
    outer-kernel map work in place on the Gram, and the lambda path and the
    fits decompose their own block or system in place. Bag ids b0, b1, ... are
    not in rank order, so the Gram is also put back in the callers' order."""

    M = 1000

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(12)
        bags = [Bag(f"b{i}", rng.normal(size=(4, 1))) for i in range(self.M)]
        espec, kspec = EmbeddingKernelSpec("gaussian", 0.5, 1), OuterKernelSpec.gaussian(1.0)
        return bags, espec, kspec, build_gram(kspec, espec, bags), rng.normal(size=self.M)

    @pytest.mark.parametrize(
        "stage", ["build_gram", "select_lambda_holdout", "fit_coefficient", "fit_krr", "solve_alpha"]
    )
    def test_peak_above_entry(self, problem, stage):
        import tracemalloc

        from distreg.analysis import select_lambda_holdout

        bags, espec, kspec, g, y = problem
        run = {
            "build_gram": lambda: build_gram(kspec, espec, bags),
            "select_lambda_holdout": lambda: select_lambda_holdout(
                g.values, y, np.logspace(-8, 0, 5), ("coefficient_l2", "krr"), 0.3, 4
            ),
            "fit_coefficient": lambda: fit_coefficient(g, y, 1e-4, bags, kspec, espec),
            "fit_krr": lambda: fit_krr(g, y, 1e-4, bags, kspec, espec),
            "solve_alpha": lambda: solve_alpha("coefficient_l2", g.values, y, 1e-4),
        }[stage]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 8 * self.M**2

    def test_lambda_search_holds_no_eigenvector_matrix(self, problem):
        # The kept block (0.49 m^2 at a 0.3 hold-out share) and the hold-out rows
        # against it (0.21 m^2); an eigenvector matrix would add another 0.49 m^2.
        import tracemalloc

        from distreg.analysis import select_lambda_holdout

        _, _, _, g, y = problem
        tracemalloc.start()
        try:
            select_lambda_holdout(
                g.values, y, np.logspace(-8, 0, 5), ("coefficient_l2", "krr"), 0.3, 4
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * 8 * self.M**2

    def test_lambda_search_takes_the_held_out_rows_after_the_path(self, problem):
        # The kept block (0.49 m^2) and the symmetry check's booleans (0.06 m^2);
        # the hold-out rows (0.21 m^2) come once the path is solved and the block freed.
        import tracemalloc

        from distreg.analysis import select_lambda_holdout

        _, _, _, g, y = problem
        tracemalloc.start()
        try:
            select_lambda_holdout(
                g.values, y, np.logspace(-8, 0, 5), ("coefficient_l2", "krr"), 0.3, 4
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.65 * 8 * self.M**2
