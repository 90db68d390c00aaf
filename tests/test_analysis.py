"""Effective dimension, decay fitting, schedules, rate fits, saturation."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import (
    Bag,
    ConfigError,
    ContractError,
    EmbeddingKernelSpec,
    InputError,
    MetaDistributionSpec,
    NumericalError,
    OuterKernelSpec,
    SaturationConfig,
    ScheduleParams,
    SweepConfig,
    blas,
    build_gram,
    effective_dimension,
    fit_decay_exponent,
    rate_fit,
    run_rate_experiment,
    saturation_compare,
    schedule,
    select_lambda_holdout,
    spectrum,
)

from distreg import analysis
from distreg.solver import alpha_paths, solve_alpha

from conftest import INDEFINITE_DOG, INDEFINITE_EMBEDDING, make_bags


def descending(sv) -> np.ndarray:
    """`sv` as singular values in the order `spectrum` returns them."""
    return np.sort(np.asarray(sv, dtype=np.float64))[::-1]


class TestEffectiveDimension:
    def test_equal_values_closed_form(self):
        rep = descending([0.5] * 7)
        lam = 0.25
        assert effective_dimension(rep, lam) == pytest.approx(7 * 0.5 / 0.75, rel=1e-14)

    def test_large_lambda_dominance(self):
        sv = 1.0 / np.arange(1, 101) ** 2
        rep = descending(sv)
        assert effective_dimension(rep, 1e9 * sv[0]) < 1e-6

    def test_inverse_square_spectrum_capacity_example(self):
        # sigma_l = l^-2 for l <= 100 at lam = 0.01: exact sum stays under the
        # closed-form cap 2 * lam^(-1/2) = 20.
        sv = 1.0 / np.arange(1, 101) ** 2
        rep = descending(sv)
        exact = sum(s / (s + 0.01) for s in sv)  # independent scalar sum
        value = effective_dimension(rep, 0.01)
        assert value == pytest.approx(exact, rel=1e-12)
        assert value <= 2.0 * 0.01 ** (-0.5)

    def test_strictly_decreasing_in_lambda(self):
        sv = 1.0 / np.arange(1, 51) ** 1.5
        rep = descending(sv)
        values = [effective_dimension(rep, lam) for lam in np.logspace(-6, 2, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounded_by_nonzero_count(self):
        rep = descending([1.0, 0.5, 0.25, 0.0, 0.0])
        assert effective_dimension(rep, 1e-12) <= 3 + 1e-9

    @pytest.mark.parametrize("alpha,c_alpha", [(1.5, 1.0), (2.0, 1.0), (3.0, 2.5)])
    def test_capacity_bound_on_synthetic_spectra(self, alpha, c_alpha):
        sv = c_alpha / np.arange(1, 201, dtype=np.float64) ** alpha
        rep = descending(sv)
        cap = alpha * c_alpha / (alpha - 1)
        for lam in np.logspace(-4, 0, 20):
            assert effective_dimension(rep, lam) <= cap * lam ** (-1.0 / alpha)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            effective_dimension(descending([1.0]), 0.0)


class TestFitDecayExponent:
    def test_exact_inverse_square(self):
        sv = 1.0 / np.arange(1, 31, dtype=np.float64) ** 2
        assert fit_decay_exponent(descending(sv), 30) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_prefactor_absorbed(self):
        sv = 3.0 / np.arange(1, 21, dtype=np.float64) ** 1.5
        assert fit_decay_exponent(descending(sv), 20) == pytest.approx(
            1.5, abs=1e-10
        )

    def test_head_limits_the_fit(self):
        sv = np.concatenate([1.0 / np.arange(1, 11) ** 2, np.full(10, 1e-15)])
        assert fit_decay_exponent(descending(sv), 10) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_too_few_values(self):
        with pytest.raises(InputError):
            fit_decay_exponent(descending([1.0, 0.5]), 10)

    def test_noise_floor_filtered(self):
        sv = [1.0, 0.5, 1e-13, 1e-14]
        with pytest.raises(InputError):
            fit_decay_exponent(descending(sv), 4)

    def test_frozen_gaussian_gram_fixture(self):
        # Frozen: 30 bags (seed 2, spread 0.5, box 2), gaussian outer sigma=1,
        # gaussian embedding bw=0.5. Reference values recorded at freeze time.
        bags = make_bags(2, 30, 6, 2, spread=0.5, box=2.0)
        espec = EmbeddingKernelSpec("gaussian", 0.5, 2)
        rep = spectrum(build_gram(OuterKernelSpec.gaussian(1.0), espec, bags))
        a10 = fit_decay_exponent(rep, 10)
        a15 = fit_decay_exponent(rep, 15)
        assert a10 == pytest.approx(2.000128871694303, rel=1e-6)
        assert a15 == pytest.approx(1.9740096445199145, rel=1e-6)
        assert a10 > 1.0
        assert abs(a15 - a10) / a10 <= 0.10


class TestSchedule:
    def test_paper_example_r_half_alpha_one(self):
        sched = schedule(ScheduleParams(r=0.5, alpha_decay=1.0, h=1.0), 100)
        assert sched.beta == pytest.approx(1.0, abs=1e-15)
        assert sched.zeta == pytest.approx(2.0, abs=1e-15)
        assert sched.n_points == 46052
        assert sched.lam == pytest.approx(0.01, rel=1e-12)

    def test_paper_example_r_three_alpha_two(self):
        sched = schedule(ScheduleParams(r=3.0, alpha_decay=2.0, h=1.0), 100)
        assert sched.beta == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert sched.zeta == pytest.approx(14.0 / 9.0, abs=1e-15)

    def test_paper_example_r_one_alpha_two(self):
        sched = schedule(ScheduleParams(r=1.0, alpha_decay=2.0, h=1.0), 100)
        assert sched.beta == pytest.approx(0.8, abs=1e-15)
        assert sched.zeta == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 3.0, 5.0])
    def test_beta_continuous_at_r_two(self, alpha):
        below = schedule(ScheduleParams(r=2.0, alpha_decay=alpha), 50)
        above = schedule(ScheduleParams(r=2.0 + 1e-12, alpha_decay=alpha), 50)
        assert below.beta == pytest.approx(2 * alpha / (4 * alpha + 1), abs=1e-12)
        assert above.beta == pytest.approx(below.beta, abs=1e-9)

    def test_small_r_uses_same_branch(self):
        # The sub-1/2 range reuses the main-branch formulas.
        p = ScheduleParams(r=0.25, alpha_decay=2.0)
        sched = schedule(p, 100)
        assert sched.beta == pytest.approx(2 * 2 / (2 * 2 * 0.25 + 1), abs=1e-15)

    def test_larger_r_needs_smaller_zeta(self):
        zetas = [
            schedule(ScheduleParams(r=r, alpha_decay=2.0), 50).zeta
            for r in (0.5, 0.75, 1.0, 1.5, 2.0)
        ]
        assert all(z1 > z2 for z1, z2 in zip(zetas, zetas[1:]))

    def test_kappa4_scale_multiplies_lambda(self):
        base = schedule(ScheduleParams(r=1.0, alpha_decay=2.0), 100)
        scaled = schedule(ScheduleParams(r=1.0, alpha_decay=2.0, kappa4_scale=3.0), 100)
        assert scaled.lam == pytest.approx(3.0 * base.lam, rel=1e-14)

    def test_m_precondition(self):
        with pytest.raises(InputError):
            schedule(ScheduleParams(r=1.0, alpha_decay=2.0), 2)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            ScheduleParams(r=0.0, alpha_decay=2.0)
        with pytest.raises(ConfigError):
            ScheduleParams(r=1.0, alpha_decay=0.9)
        with pytest.raises(ConfigError):
            ScheduleParams(r=1.0, alpha_decay=2.0, h=1.5)

    @given(
        r=st.floats(0.1, 5.0),
        alpha=st.floats(1.0, 6.0),
        h=st.floats(0.05, 1.0),
        m=st.integers(3, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_outputs_in_sane_ranges(self, r, alpha, h, m):
        sched = schedule(ScheduleParams(r=r, alpha_decay=alpha, h=h), m)
        # beta < 2 holds only for r >= 1/2; the reused branch below 1/2 can
        # push it up to 2 alpha.
        assert 0 < sched.beta <= 2 * alpha
        assert sched.zeta > 0
        assert sched.lam > 0
        assert sched.n_points >= 1


class TestRateFit:
    def test_recovers_planted_slope(self):
        ms = [10, 20, 40, 80, 160]
        points = [(m, 4.0 * m**-0.5) for m in ms]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_zero_slope(self):
        fit = rate_fit([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            rate_fit([(10, 1.0), (20, 0.5)])

    def test_nonpositive_errors(self):
        with pytest.raises(InputError):
            rate_fit([(10, 1.0), (20, 0.0), (40, 0.5)])

    @given(
        slope=st.floats(-2.0, -0.05),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_planted_slopes_property(self, slope, scale):
        points = [(m, scale * m**slope) for m in (8, 16, 32, 64)]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(slope, abs=1e-8)


@given(
    points=st.lists(
        st.tuples(st.integers(3, 10**5), st.floats(1e-6, 1e3)),
        min_size=3, max_size=11, unique_by=lambda p: p[0],
    )
)
def test_rate_fit_agrees_with_numpys_least_squares(points):
    # np.polyfit, numpy's SVD least squares, is the oracle for the closed-form line.
    fit = rate_fit(points)
    x, z = np.log([p[0] for p in points]), np.log([p[1] for p in points])
    slope, intercept = np.polyfit(x, z, deg=1)
    assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)


def test_rate_fit_needs_two_distinct_m_values():
    with pytest.raises(InputError, match="at least 2 distinct m values"):
        rate_fit([(10, 1.0), (10, 0.5), (10, 0.3)])


class TestSelectLambda:
    def test_ties_go_to_the_smaller_lambda(self):
        # A zero y makes every alpha zero, and every grid value ties at MSE 0.
        values, _ = _selection_gram("random_spd")
        schemes = ("coefficient_l2", "krr")
        picks = select_lambda_holdout(values, np.zeros(30), [1e-2, 1e-6, 1.0], schemes, 0.3, 13)
        for lam, table in picks.values():
            assert lam == 1e-6 and [mse for _, mse in table] == [0.0] * 3

    def test_the_fit_keeps_at_least_two_bags(self, monkeypatch):
        # 4 bags at holdout_frac 0.9 would all be held out; 2 are kept for the fit.
        blocks, real = [], analysis.alpha_paths

        def spy(schemes, g_values, y, lams):
            blocks.append(g_values.shape)
            return real(schemes, g_values, y, lams)

        monkeypatch.setattr(analysis, "alpha_paths", spy)
        values, y = _selection_gram("random_spd")
        select_lambda_holdout(values[:4, :4], y[:4], [1e-4, 1e-2], ("krr",), 0.9, seed=13)
        assert blocks == [(2, 2)]

    def test_returns_grid_member_and_table(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 20))
        values = a @ a.T / 20
        y = rng.normal(size=20)
        grid = list(np.logspace(-6, 0, 7))
        lam, table = select_lambda_holdout(values, y, grid, ("krr",), 0.3, seed=4)["krr"]
        assert lam in [t[0] for t in table]
        assert len(table) == 7
        assert all(mse >= 0 for _, mse in table)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(15, 15))
        values = a @ a.T / 15
        y = rng.normal(size=15)
        grid = list(np.logspace(-5, 0, 5))
        first = select_lambda_holdout(values, y, grid, ("coefficient_l2",), 0.3, seed=9)
        second = select_lambda_holdout(values, y, grid, ("coefficient_l2",), 0.3, seed=9)
        assert first == second

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            select_lambda_holdout(np.eye(5), np.ones(5), [], ("krr",), 0.3, seed=0)

    @pytest.mark.parametrize("scheme", ["coefficient_l2", "krr"])
    @pytest.mark.parametrize("kind", ["random_spd", "dog_indefinite", "tilted_asymmetric"])
    def test_table_matches_per_lambda_solves(self, kind, scheme):
        values, y = _selection_gram(kind)
        grid = list(np.logspace(-8, 0, 10))
        if scheme == "krr" and kind != "random_spd":
            grid = list(np.logspace(0, 2, 9))  # where every ridge system is PD
        lam, table = select_lambda_holdout(values, y, grid, (scheme,), 0.3, seed=13)[scheme]
        oracle_lam, oracle = holdout_oracle(values, y, grid, scheme, 0.3, seed=13)
        assert lam == oracle_lam
        assert [t[0] for t in table] == [t[0] for t in oracle]
        for (_, mse), (_, want) in zip(table, oracle):
            assert mse == pytest.approx(want, rel=1e-8, abs=0)

    @pytest.mark.parametrize("kind", ["dog_indefinite", "tilted_asymmetric"])
    def test_ridge_grid_with_indefinite_system_raises(self, kind):
        values, y = _selection_gram(kind)
        grid = list(np.logspace(-8, 0, 10))
        with pytest.raises(NumericalError):
            holdout_oracle(values, y, grid, "krr", 0.3, seed=13)
        with pytest.raises(NumericalError):
            select_lambda_holdout(values, y, grid, ("krr",), 0.3, seed=13)


    def test_ridge_error_names_the_first_lambda_with_an_indefinite_system(self):
        values, y = _selection_gram("dog_indefinite")
        n_hold = round(0.3 * len(y))
        kept = np.random.default_rng(np.random.SeedSequence(entropy=13)).permutation(len(y))[n_hold:]
        block, m = values[np.ix_(kept, kept)], len(kept)
        e_min = scipy.linalg.eigvalsh(block)[0]
        assert e_min < 0
        # e_min + lam m changes sign at -e_min / m; no grid value lies within rounding of it.
        grid = [-e_min / m * f for f in (4.0, 2.0, 0.5, 0.25)]
        first = next(lam for lam in sorted(grid) if e_min + lam * m <= 0)
        with pytest.raises(NumericalError, match=re.escape(f"at lambda {first:g}") + "$"):
            select_lambda_holdout(values, y, grid, ("krr",), 0.3, seed=13)
        # alpha_paths keeps the order it is given: the first failing value is the third.
        with pytest.raises(NumericalError, match=re.escape(f"at lambda {grid[2]:g}") + "$"):
            alpha_paths(("krr",), block.copy(), y[kept], grid)

    @pytest.mark.parametrize("kind", ["random_spd", "dog_indefinite"])
    def test_both_schemes_share_one_decomposition(self, kind, dsytrd_calls):
        values, y = _selection_gram(kind)
        grid = list(np.logspace(-8, 0, 10))
        if kind != "random_spd":
            grid = list(np.logspace(0, 2, 9))  # where every ridge system is PD
        both = select_lambda_holdout(values, y, grid, ("coefficient_l2", "krr"), 0.3, seed=13)
        assert len(dsytrd_calls) == 1
        for scheme in ("coefficient_l2", "krr"):
            lam, table = both[scheme]
            assert lam == select_lambda_holdout(values, y, grid, (scheme,), 0.3, seed=13)[scheme][0]
            oracle_lam, oracle = holdout_oracle(values, y, grid, scheme, 0.3, seed=13)
            assert lam == oracle_lam
            for (_, mse), (_, want) in zip(table, oracle):
                assert mse == pytest.approx(want, rel=1e-8, abs=0)

    def test_one_asymmetric_entry_takes_the_gram_product_route(self, dsytrd_calls):
        values, y = _selection_gram("random_spd")
        n_hold = round(0.3 * len(y))
        kept = np.random.default_rng(np.random.SeedSequence(entropy=13)).permutation(len(y))[n_hold:]
        values[kept[0], kept[1]] += 1e-3
        grid = list(np.logspace(-8, 0, 10))
        both = select_lambda_holdout(values, y, grid, ("coefficient_l2", "krr"), 0.3, seed=13)
        assert len(dsytrd_calls) == 2  # G for the ridge scheme, G^T G for the coefficient one
        for scheme in ("coefficient_l2", "krr"):
            lam, table = both[scheme]
            oracle_lam, oracle = holdout_oracle(values, y, grid, scheme, 0.3, seed=13)
            assert lam == oracle_lam
            for (_, mse), (_, want) in zip(table, oracle):
                assert mse == pytest.approx(want, rel=1e-8, abs=0)


@pytest.fixture
def dsytrd_calls(monkeypatch):
    """Count tridiagonal reductions (LAPACK dsytrd calls, not workspace queries); one
    list entry per call, its order."""
    calls = []
    original = blas._Lapack.__call__

    def counted(self, name, *args):
        if name == "dsytrd" and args[-1] != -1:
            calls.append(args[1])
        return original(self, name, *args)

    monkeypatch.setattr(blas._Lapack, "__call__", counted)
    return calls


def holdout_oracle(values, y, grid, scheme, holdout_frac, seed):
    """Reference lambda selection: the same split, one Cholesky solve per grid value."""
    m = len(y)
    n_hold = min(m - 2, max(1, round(holdout_frac * m)))
    perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(m)
    hold, kept = perm[:n_hold], perm[n_hold:]
    table = []
    for lam in sorted(grid):
        alpha = solve_alpha(scheme, values[np.ix_(kept, kept)], y[kept], lam)
        table.append((lam, float(np.mean((values[np.ix_(hold, kept)] @ alpha - y[hold]) ** 2))))
    return min(table, key=lambda t: t[1])[0], table


def _selection_gram(kind: str):
    """A 30 x 30 Gram of the given kind, with labels smooth in the bags."""
    bags = make_bags(5, 30, 8, 2, spread=0.3, box=3.0)
    y = np.array([np.sin(b.points.mean()) for b in bags])
    y += 0.05 * np.random.default_rng(6).normal(size=30)
    if kind == "random_spd":
        a = np.random.default_rng(21).normal(size=(30, 30))
        return a @ a.T / 30, y
    espec = EmbeddingKernelSpec(**INDEFINITE_EMBEDDING)
    if kind == "dog_indefinite":
        kspec = OuterKernelSpec.dog(**INDEFINITE_DOG)
    else:
        kspec = OuterKernelSpec.tilted(1.0, 0.5, bags[0])
    return build_gram(kspec, espec, bags).values, y


def _sweep_config(**overrides):
    base = dict(
        meta=MetaDistributionSpec(
            dim=1, scale=0.1, target="linear_mean", noise_sd=0.05, noise_bound=2.0, seed=11
        ),
        embedding_kernel=EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=OuterKernelSpec.gaussian(1.0),
        scheme="coefficient_l2",
        m_values=(8, 12, 16),
        replications=2,
        schedule_params=ScheduleParams(r=1.0, alpha_decay=2.0),
        lambda_mode="grid",
        lambda_grid=tuple(np.logspace(-8, 0, 6)),
        n_max=20,
        n_test=16,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRateExperiment:
    def test_rows_complete_and_positive(self):
        result = run_rate_experiment(_sweep_config())
        assert len(result.rows) == 6
        assert all(r.error > 0 for r in result.rows)
        assert result.fit is not None
        assert set(result.medians) == {8, 12, 16}
        assert result.capped_m == (8, 12, 16)  # schedule N far above n_max=20

    def test_deterministic_rerun(self):
        a = run_rate_experiment(_sweep_config())
        b = run_rate_experiment(_sweep_config())
        assert a.rows == b.rows

    def test_replication_prefix_stability(self):
        # First replication of a 2-rep run matches a 1-rep run bit for bit.
        one = run_rate_experiment(_sweep_config(replications=1))
        two = run_rate_experiment(_sweep_config(replications=2))
        ones = [r for r in two.rows if r.rep == 0]
        assert tuple(ones) == one.rows

    def test_schedule_lambda_mode(self):
        result = run_rate_experiment(_sweep_config(lambda_mode="schedule"))
        sched_lams = {
            m: schedule(ScheduleParams(r=1.0, alpha_decay=2.0), m).lam for m in (8, 12, 16)
        }
        for row in result.rows:
            assert row.lam == pytest.approx(sched_lams[row.m], rel=1e-12)

    def test_replications_validated(self):
        with pytest.raises(ConfigError):
            _sweep_config(replications=0)

    def test_n_max_validated(self):
        with pytest.raises(ConfigError, match="n_max must be >= 1"):
            _sweep_config(n_max=0)

    def test_repeated_m_values_refused(self):
        with pytest.raises(ConfigError, match="m_values must be distinct"):
            _sweep_config(m_values=(8, 12, 8))

    def test_a_dimension_mismatch_is_refused_with_the_config(self):
        meta = MetaDistributionSpec(
            dim=2, scale=0.1, target="linear_mean", noise_sd=0.05, noise_bound=2.0, seed=11
        )
        with pytest.raises(ConfigError, match="synthetic bags have dimension 2, kernel expects 1"):
            _sweep_config(meta=meta)

    @pytest.mark.parametrize("replications", [1, 2, 3, 4])
    def test_medians_are_numpys_bit_for_bit(self, replications):
        result = run_rate_experiment(_sweep_config(m_values=(8, 12), replications=replications))
        for m, median in result.medians.items():
            errors = [row.error for row in result.rows if row.m == m]
            assert len(errors) == replications
            assert median.hex() == float(np.median(errors)).hex()


def _saturation_config(**overrides):
    base = dict(
        meta=MetaDistributionSpec(
            dim=1, scale=0.1, target="smooth_composite", noise_sd=0.05, noise_bound=2.0, seed=21
        ),
        embedding_kernel=EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=OuterKernelSpec.gaussian(1.0),
        m=24,
        n_points=20,
        n_test=16,
        lambda_grid=tuple(np.logspace(-8, 0, 6)),
    )
    base.update(overrides)
    return SaturationConfig(**base)


class TestSaturationCompare:
    def test_indefinite_kernel_rejected(self):
        with pytest.raises(ContractError):
            saturation_compare(_saturation_config(outer_kernel=OuterKernelSpec.dog(0.5, 1.5, 0.9)))

    def test_two_bags_are_refused_before_any_draw(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("bags drawn before the lambda rule was checked")

        monkeypatch.setattr(analysis, "generate", not_reached)
        with pytest.raises(InputError, match="holdout selection needs at least 3 bags, got 2"):
            saturation_compare(_saturation_config(m=2))

    def test_a_dimension_mismatch_is_refused_before_any_draw(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("bags drawn before their dimension was checked")

        monkeypatch.setattr(analysis, "generate", not_reached)
        espec = EmbeddingKernelSpec("gaussian", 0.25, 2)
        with pytest.raises(ConfigError, match="synthetic bags have dimension 1, kernel expects 2"):
            saturation_compare(_saturation_config(embedding_kernel=espec))

    def test_wrong_target_rejected(self):
        meta = MetaDistributionSpec(
            dim=1, scale=0.1, target="linear_mean", noise_sd=0.05, noise_bound=2.0, seed=21
        )
        with pytest.raises(ConfigError):
            saturation_compare(_saturation_config(meta=meta))

    def test_report_complete(self):
        report = saturation_compare(_saturation_config())
        assert report.err_coefficient > 0 and math.isfinite(report.err_coefficient)
        assert report.err_krr > 0 and math.isfinite(report.err_krr)
        assert report.ratio == pytest.approx(report.err_coefficient / report.err_krr)
        assert report.winner in ("coefficient_l2", "krr")
        assert report.lambda_coefficient in report.lambda_grid
        assert report.lambda_krr in report.lambda_grid

    def test_one_eigendecomposition_selects_both_lambdas(self, dsytrd_calls):
        saturation_compare(_saturation_config())
        assert len(dsytrd_calls) == 1

    def test_one_cross_gram_scores_both_schemes(self, monkeypatch):
        from dataclasses import replace

        from distreg import analysis, excess_error, fit_coefficient, fit_krr, generate, solver

        builds = []
        real = solver.build_cross_gram
        monkeypatch.setattr(
            solver, "build_cross_gram", lambda *a, **k: builds.append(1) or real(*a, **k)
        )
        cfg = _saturation_config()
        report = saturation_compare(cfg)
        assert len(builds) == 1

        # Each scheme scored on its own, with a cross-Gram each, gives the same bits.
        def draw(key, m):
            meta = replace(cfg.meta, seed=analysis._derived_seed(cfg.meta.seed, key))
            return generate(meta, m, cfg.n_points)

        train, test = draw(0, cfg.m), draw(1, cfg.n_test)
        g = build_gram(cfg.outer_kernel, cfg.embedding_kernel, train.bags)
        fits = ((fit_coefficient, report.lambda_coefficient), (fit_krr, report.lambda_krr))
        alone = [
            excess_error(
                fit(g, train.labels(), lam, train.bags, cfg.outer_kernel, cfg.embedding_kernel)[0],
                test.with_targets(),
            )
            for fit, lam in fits
        ]
        assert len(builds) == 3
        assert [report.err_coefficient, report.err_krr] == alone
        assert report.ratio == alone[0] / alone[1]

    def test_deterministic(self):
        a = saturation_compare(_saturation_config())
        b = saturation_compare(_saturation_config())
        assert a == b

    def test_interpolating_problem_gives_ratio_near_one(self):
        # Noiseless smooth problem with a grid reaching interpolation: both
        # schemes hit the same embedding-sampling floor, so the ratio ~ 1.
        cfg = _saturation_config(
            meta=MetaDistributionSpec(
                dim=1, scale=0.1, target="smooth_composite", noise_sd=0.0,
                noise_bound=2.0, seed=70707,
            ),
            m=50,
            n_points=100,
            n_test=32,
            lambda_grid=tuple(np.logspace(-12, -2, 11)),
        )
        report = saturation_compare(cfg)
        assert report.err_coefficient < 0.1 and report.err_krr < 0.1
        assert report.ratio == pytest.approx(1.0, abs=0.1)


def _meta(target: str, dim: int) -> MetaDistributionSpec:
    return MetaDistributionSpec(
        dim=dim, scale=0.1, target=target, noise_sd=0.05, noise_bound=2.0, seed=11
    )


_DOG = OuterKernelSpec.dog(0.5, 1.5, 0.9)
_TILTED_2D = OuterKernelSpec.tilted(1.0, 0.5, Bag("ref", [[0.1, 0.2]]))
_SYNTH_2D = "synthetic bags have dimension 2, kernel expects 1"
_NOT_PSD = "KRR requires positive semi-definite K"

# (config builder, one bad field, error, message): every field a trial needs,
# for both experiments.
CONFIG_FAULTS = {
    "sweep-threads": (_sweep_config, {"threads": 0}, ConfigError, "threads must be a positive"),
    "sweep-n-test": (_sweep_config, {"n_test": 0}, ConfigError, "n_test must be >= 1, got 0"),
    "sweep-n-max": (_sweep_config, {"n_max": 0}, ConfigError, "n_max must be >= 1, got 0"),
    "sweep-reps": (_sweep_config, {"replications": 0}, ConfigError, "replications must be >= 1"),
    "sweep-no-m": (_sweep_config, {"m_values": ()}, ConfigError, "m_values must be nonempty"),
    "sweep-same-m": (_sweep_config, {"m_values": (8, 8)}, ConfigError, "must be distinct"),
    "sweep-two-bags": (
        _sweep_config, {"m_values": (8, 2)}, InputError, "schedule requires 3 <= m"
    ),
    "sweep-scheme": (_sweep_config, {"scheme": "ridge"}, ConfigError, "unknown scheme 'ridge'"),
    "sweep-krr-dog": (
        _sweep_config, {"scheme": "krr", "outer_kernel": _DOG}, ContractError, _NOT_PSD
    ),
    "sweep-mode": (_sweep_config, {"lambda_mode": "auto"}, ConfigError, "unknown lambda mode"),
    "sweep-fixed": (_sweep_config, {"lambda_mode": "fixed"}, ConfigError, "fixed lambda must"),
    "sweep-grid": (_sweep_config, {"lambda_grid": ()}, ConfigError, "lambda grid must be"),
    "sweep-holdout": (_sweep_config, {"holdout_frac": 1.0}, ConfigError, "holdout_frac must"),
    "sweep-dim": (_sweep_config, {"meta": _meta("linear_mean", 2)}, ConfigError, _SYNTH_2D),
    "sweep-ref-dim": (
        _sweep_config, {"outer_kernel": _TILTED_2D}, ConfigError, "bag 'ref' has dimension 2"
    ),
    "saturation-threads": (
        _saturation_config, {"threads": 0}, ConfigError, "threads must be a positive"
    ),
    "saturation-n-test": (
        _saturation_config, {"n_test": 0}, ConfigError, "n_test must be >= 1, got 0"
    ),
    "saturation-n-points": (
        _saturation_config, {"n_points": 0}, ConfigError, "n_points must be >= 1, got 0"
    ),
    "saturation-two-bags": (
        _saturation_config, {"m": 2}, InputError, "needs at least 3 bags, got 2"
    ),
    "saturation-dog": (_saturation_config, {"outer_kernel": _DOG}, ContractError, _NOT_PSD),
    "saturation-target": (
        _saturation_config, {"meta": _meta("linear_mean", 1)}, ConfigError, "smooth_composite"
    ),
    "saturation-grid": (_saturation_config, {"lambda_grid": ()}, ConfigError, "lambda grid"),
    "saturation-holdout": (
        _saturation_config, {"holdout_frac": 0.0}, ConfigError, "holdout_frac must"
    ),
    "saturation-dim": (
        _saturation_config, {"meta": _meta("smooth_composite", 2)}, ConfigError, _SYNTH_2D
    ),
}


@pytest.mark.parametrize(
    "build, fault, error, shown", CONFIG_FAULTS.values(), ids=list(CONFIG_FAULTS)
)
def test_config_faults_are_refused_when_the_config_is_built(
    monkeypatch, build, fault, error, shown
):
    # Building the config refuses the fault: no bag is drawn and no Gram built first.
    def not_reached(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(analysis, "generate", not_reached)
    monkeypatch.setattr(analysis, "build_gram", not_reached)
    with pytest.raises(error, match=re.escape(shown)):
        build(**fault)


def test_krr_beats_noise_floor_on_easy_fixture():
    # Easy linear target: held-out-tuned ridge error lands far below the
    # label-noise floor plus 20%.
    from dataclasses import replace

    from distreg.analysis import _derived_seed
    from distreg import excess_error, fit_krr, generate
    from distreg.gram import build_gram

    noise_sd = 0.05
    meta = MetaDistributionSpec(
        dim=1, scale=0.1, target="linear_mean", noise_sd=noise_sd,
        noise_bound=2.0, seed=515151,
    )
    espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
    kspec = OuterKernelSpec.gaussian(1.0)
    train = generate(replace(meta, seed=_derived_seed(meta.seed, 0)), 80, 80)
    test = generate(replace(meta, seed=_derived_seed(meta.seed, 1)), 64, 80)
    g = build_gram(kspec, espec, train.bags, threads=2)
    y = train.labels()
    lam, _ = select_lambda_holdout(
        g.values, y, list(np.logspace(-8, 0, 10)), ("krr",), 0.3, _derived_seed(meta.seed, 2)
    )["krr"]
    model, _ = fit_krr(g, y, lam, train.bags, kspec, espec)
    err = excess_error(model, test.with_targets(), threads=2)
    assert err <= 1.2 * noise_sd
