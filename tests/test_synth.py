"""Synthetic two-stage generator: determinism, truncation, second-stage redraws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import ConfigError, InputError, MetaDistributionSpec, generate, synth
from distreg.synth import TARGETS


def meta(**overrides) -> MetaDistributionSpec:
    base = dict(
        dim=1, scale=0.1, target="linear_mean", noise_sd=0.05, noise_bound=2.0, seed=314
    )
    base.update(overrides)
    return MetaDistributionSpec(**base)


class TestTargets:
    def test_linear_mean_is_theta(self):
        assert TARGETS["linear_mean"](np.array([0.5]), 0.1) == 0.5

    def test_quadratic_mean(self):
        value = TARGETS["quadratic_mean"](np.array([0.5, 0.3]), 0.1)
        assert value == pytest.approx((0.25 + 0.09) / 2)

    def test_mean_plus_variance(self):
        assert TARGETS["mean_plus_variance"](np.array([0.4]), 0.2) == pytest.approx(0.4 + 0.04)

    def test_smooth_composite_peak(self):
        assert TARGETS["smooth_composite"](np.array([0.5]), 0.1) == pytest.approx(1.0)
        assert TARGETS["smooth_composite"](np.array([0.2]), 0.1) < 1.0

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            meta(target="fourier_soup")


class TestGenerate:
    def test_noiseless_labels_equal_targets(self):
        ds = generate(meta(noise_sd=0.0), 8, 12)
        assert np.array_equal(ds.labels(), ds.targets)

    def test_same_seed_bitwise_identical(self):
        a = generate(meta(), 6, 9)
        b = generate(meta(), 6, 9)
        assert np.array_equal(a.targets, b.targets)
        for ba, bb in zip(a.bags, b.bags):
            assert ba.id == bb.id
            assert ba.label == bb.label
            assert np.array_equal(ba.points, bb.points)

    def test_different_seed_differs(self):
        a = generate(meta(), 4, 6)
        b = generate(meta(seed=315), 4, 6)
        assert not np.array_equal(a.bags[0].points, b.bags[0].points)

    def test_points_in_unit_box(self):
        ds = generate(meta(dim=2, scale=0.2), 20, 50)
        for bag in ds.bags:
            assert np.all(bag.points >= 0.0) and np.all(bag.points <= 1.0)

    def test_labels_bounded(self):
        ds = generate(meta(noise_sd=0.5, noise_bound=1.5), 50, 3)
        assert np.max(np.abs(ds.labels())) <= 1.5

    def test_params_enable_target_recomputation(self):
        ds = generate(meta(noise_sd=0.3), 10, 5)
        for bag, target in zip(ds.bags, ds.targets):
            assert bag.params is not None
            value = TARGETS[ds.meta.target](bag.params.theta, bag.params.scale)
            assert value == pytest.approx(target)

    def test_bag_sizes_and_dimension(self):
        ds = generate(meta(dim=3), 4, 17)
        assert all(b.size == 17 and b.dim == 3 for b in ds.bags)

    def test_invalid_counts(self):
        with pytest.raises(InputError):
            generate(meta(), 0, 5)
        with pytest.raises(InputError):
            generate(meta(), 5, 0)

    @pytest.mark.parametrize(
        "m, n, dim",
        [(2**62, 5, 1), (1, 1, 10**300), (2**20, 2**20, 2**20)],
        ids=["huge-m", "huge-dim", "huge-product"],
    )
    def test_sizes_past_the_array_limit_fail_before_drawing(self, m, n, dim):
        # Each product of m, N and dim is past what one float64 array can hold.
        with pytest.raises(ConfigError, match="largest float64 array"):
            generate(meta(dim=dim), m, n)

    def test_target_exceeding_bound_rejected(self):
        # mean_plus_variance with huge scale stays within [0.2, 0.8] + s^2 but
        # a tiny bound makes the precondition fail.
        with pytest.raises(ConfigError):
            generate(meta(target="mean_plus_variance", noise_bound=0.1, noise_sd=0.1), 3, 3)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_label_bound_holds_for_any_seed(self, seed):
        ds = generate(meta(seed=seed, noise_sd=0.4, noise_bound=1.2), 10, 2)
        assert np.max(np.abs(ds.labels())) <= 1.2


class TestResample:
    """The same spec at another N redraws the second stage of the same bags."""

    def test_same_seed_same_n_reproduces_points(self):
        ds = generate(meta(), 5, 8)
        again = generate(ds.meta, 5, 8)
        for a, b in zip(ds.bags, again.bags):
            assert np.array_equal(a.points, b.points)

    def test_labels_and_targets_unchanged(self):
        ds = generate(meta(), 5, 8)
        re = generate(ds.meta, 5, 20)
        assert np.array_equal(re.targets, ds.targets)
        assert [b.label for b in re.bags] == [b.label for b in ds.bags]

    def test_bag_means_concentrate(self):
        # |mean - theta| at N = 10_000 must beat N = 10 for >= 45 of 50 bags.
        ds = generate(meta(dim=1, scale=0.15, seed=2718), 50, 10)
        big = generate(ds.meta, 50, 10_000)
        wins = 0
        for small_bag, big_bag in zip(ds.bags, big.bags):
            theta = small_bag.params.theta
            err_small = abs(float(np.mean(small_bag.points)) - float(theta[0]))
            err_big = abs(float(np.mean(big_bag.points)) - float(theta[0]))
            wins += err_big < err_small
        assert wins >= 45


def test_spec_validation():
    with pytest.raises(ConfigError):
        meta(scale=0.0)
    with pytest.raises(ConfigError):
        meta(noise_sd=-0.1)
    with pytest.raises(ConfigError):
        meta(noise_bound=0.0)
    with pytest.raises(ConfigError):
        meta(dim=0)


# ------------------------------------------------- per-bag reference draws


def reference_target(name: str, theta: np.ndarray, s: float) -> float:
    """The target of one theta in Python floats, one family at a time."""
    tbar = float(np.mean(theta))
    if name == "linear_mean":
        return tbar
    if name == "quadratic_mean":
        return float(np.mean(theta**2))
    if name == "mean_plus_variance":
        return float(np.mean(theta) + s**2)
    return float(np.exp(-((tbar - 0.5) ** 2) / (2 * 0.15**2)))


def reference_points(seed: int, thetas, scales, n: int) -> list:
    """Each bag drawn alone from its own stream by the rejection loop."""
    return [
        synth._draw_truncated_points(synth._bag_rng(seed, i), np.asarray(t), s, n)
        for i, (t, s) in enumerate(zip(thetas, scales))
    ]


def reference_generate(spec: MetaDistributionSpec, m: int, n: int):
    """(thetas, targets, labels, points) of generate, one bag at a time."""
    rng = synth._meta_rng(spec.seed)
    thetas = rng.uniform(synth.THETA_LOW, synth.THETA_HIGH, size=(m, spec.dim))
    targets = np.array([reference_target(spec.target, t, spec.scale) for t in thetas])
    labels = [
        synth._truncated_label(rng, float(t), spec.noise_sd, spec.noise_bound) for t in targets
    ]
    return thetas, targets, labels, reference_points(spec.seed, thetas, [spec.scale] * m, n)


def assert_bags_equal(bags, points, labels=None, thetas=None):
    assert len(bags) == len(points)
    for i, (bag, want) in enumerate(zip(bags, points)):
        assert bag.points.shape == want.shape and bag.points.tobytes() == want.tobytes(), i
        if labels is not None:
            assert np.float64(bag.label).tobytes() == np.float64(labels[i]).tobytes(), i
        if thetas is not None:
            assert bag.params.theta.tobytes() == thetas[i].tobytes(), i


GRID_N = (1, 2, 7, 16, 17, 33)
GRID_SCALE = (0.05, 0.3, 1.0)
GRID_M = (1, 5, 64)


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_draws_equal_per_bag_reference(target, dim):
    """generate at two N, byte for byte against one bag at a time."""
    for k, (n, scale, m) in enumerate(itertools.product(GRID_N, GRID_SCALE, GRID_M)):
        spec = meta(dim=dim, scale=scale, target=target, noise_sd=0.1, noise_bound=3.0, seed=k)
        ds = generate(spec, m, n)
        thetas, targets, labels, points = reference_generate(spec, m, n)
        assert ds.targets.tobytes() == targets.tobytes()
        assert [b.id for b in ds.bags] == [f"bag-{i:04d}" for i in range(m)]
        assert_bags_equal(ds.bags, points, labels, thetas)
        re = generate(spec, m, n + 3)
        assert re.targets.tobytes() == targets.tobytes()
        points = reference_points(k, thetas, [scale] * m, n + 3)
        assert_bags_equal(re.bags, points, labels, thetas)


def test_scale_one_redraws_short_bags(monkeypatch):
    """At scale 1 many first batches hold fewer than N accepted points."""
    calls = []
    per_bag = synth._draw_truncated_points

    def counted(*args):
        calls.append(args)
        return per_bag(*args)

    monkeypatch.setattr(synth, "_draw_truncated_points", counted)
    generate(meta(scale=0.05), 40, 16)
    assert calls == []
    ds = generate(meta(scale=1.0), 40, 12)
    assert 0 < len(calls) < 40
    monkeypatch.undo()
    _, _, _, points = reference_generate(ds.meta, 40, 12)
    assert_bags_equal(ds.bags, points)


def test_group_of_one_bag_gives_the_same_bytes(monkeypatch):
    spec = meta(scale=1.0, dim=2, target="smooth_composite")
    ds = generate(spec, 30, 9)
    re = generate(spec, 30, 20)
    monkeypatch.setattr(synth, "_GROUP_DRAWS", 1)
    assert_bags_equal(generate(spec, 30, 9).bags, [b.points for b in ds.bags])
    assert_bags_equal(generate(spec, 30, 20).bags, [b.points for b in re.bags])


@pytest.mark.parametrize("noise_sd", [0.0, 0.2])
def test_first_k_bags_do_not_depend_on_m(noise_sd):
    """Points, thetas and targets of bag i do not depend on m. Labels do when
    there is noise: the meta stream draws every theta before any label noise."""
    spec = meta(dim=2, scale=0.5, noise_sd=noise_sd)
    few, many = generate(spec, 7, 11), generate(spec, 50, 11)
    assert few.targets.tobytes() == many.targets[:7].tobytes()
    labels = [b.label for b in many.bags[:7]] if noise_sd == 0.0 else None
    thetas = [b.params.theta for b in many.bags[:7]]
    assert_bags_equal(few.bags, [b.points for b in many.bags[:7]], labels, thetas)


def test_target_value_matches_the_dataset_targets():
    for target in TARGETS:
        ds = generate(meta(dim=3, target=target, scale=0.3), 20, 2)
        for bag, t in zip(ds.bags, ds.targets):
            value = TARGETS[target](bag.params.theta, 0.3)
            assert value == t == reference_target(target, bag.params.theta, 0.3)
