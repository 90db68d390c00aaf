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
    OuterKernelSpec,
    build_gram,
    excess_error,
    fit_coefficient,
    fit_krr,
    predict,
)
from distreg.solver import assemble_system, coefficient_objective, krr_objective

from conftest import gram_from_matrix, make_bags, make_indefinite_fixture
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
    # dpocon estimates the 1-norm condition number, which lies within a
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
