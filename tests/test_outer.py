"""Outer kernel families: formulas, symmetry flags, indefiniteness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import (
    Bag,
    ConfigError,
    EmbeddingKernelSpec,
    OuterKernelSpec,
    build_cross_gram,
    build_gram,
    embed_inner,
)

from conftest import embed_sq_dist, make_bags, make_indefinite_fixture, outer_eval


def test_gaussian_on_embedding_identical_bags(gaussian_embedding):
    a = Bag("a", np.array([[0.1, 0.4], [0.9, 0.2]]))
    same = Bag("a", np.array([[0.1, 0.4], [0.9, 0.2]]))
    k = OuterKernelSpec.gaussian(1.0)
    assert outer_eval(k, gaussian_embedding, a, same) == 1.0


def test_dog_identical_bags_cancel(gaussian_embedding):
    a = Bag("a", np.array([[0.5, 0.5]]))
    same = Bag("a", np.array([[0.5, 0.5]]))
    k = OuterKernelSpec.dog(1.0, 2.0, 1.0)
    assert outer_eval(k, gaussian_embedding, a, same) == 0.0


def test_linear_reduces_to_embed_inner(gaussian_embedding):
    x = Bag("x", np.array([[0.0, 0.0]]))
    y = Bag("y", np.array([[1.0, 0.0]]))
    k = OuterKernelSpec.linear()
    assert outer_eval(k, gaussian_embedding, x, y) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_tilted_formula(gaussian_embedding):
    ref = Bag("ref", np.array([[0.5, 0.5]]))
    a, b = make_bags(5, 2, 4, 2)
    k = OuterKernelSpec.tilted(sigma=1.0, c=0.7, ref_bag=ref)
    d2 = embed_sq_dist(gaussian_embedding, a, b)
    tilt = 1.0 + 0.7 * embed_inner(gaussian_embedding, a, ref)
    assert outer_eval(k, gaussian_embedding, a, b) == pytest.approx(
        math.exp(-0.5 * d2) * tilt, rel=1e-12
    )


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            OuterKernelSpec(family="polynomial")

    def test_tilted_requires_ref_bag(self):
        with pytest.raises(ConfigError):
            OuterKernelSpec(family="tilted_asymmetric", sigma=1.0, c=1.0)

    def test_dog_requires_distinct_sigmas(self):
        with pytest.raises(ConfigError):
            OuterKernelSpec.dog(1.0, 1.0, 0.5)

    def test_positive_params(self):
        with pytest.raises(ConfigError):
            OuterKernelSpec.gaussian(-1.0)
        with pytest.raises(ConfigError):
            OuterKernelSpec.tanh(0.0, 1.0)

    @pytest.mark.parametrize(
        "family, given, unused",
        [
            ("gaussian_on_embedding", {"sigma": 1.0, "c": 3.0}, "c"),
            ("linear_embedding", {"sigma": 1.0}, "sigma"),
            ("dog_indefinite", {"sigma1": 1.0, "sigma2": 2.0, "c": 1.0, "offset": 0.5}, "offset"),
            ("tanh_indefinite", {"scale": 1.0, "offset": 0.5, "sigma": 1.0}, "sigma"),
            ("tilted_asymmetric", {"sigma": 1.0, "c": 1.0, "scale": 2.0}, "scale"),
            ("gaussian_on_embedding", {"sigma": 1.0, "ref_bag": Bag("r", [[0.5]])}, "ref_bag"),
        ],
    )
    def test_parameters_the_family_does_not_take(self, family, given, unused):
        with pytest.raises(ConfigError, match=f"{family}' takes no '{unused}'"):
            OuterKernelSpec(family=family, **given)

    def test_flags_per_family(self):
        ref = Bag("r", np.zeros((1, 2)))
        cases = [
            (OuterKernelSpec.gaussian(1.0), True, True),
            (OuterKernelSpec.linear(), True, True),
            (OuterKernelSpec.dog(1.0, 2.0, 1.0), True, False),
            (OuterKernelSpec.tanh(1.0, 0.5), True, False),
            (OuterKernelSpec.tilted(1.0, 1.0, ref), False, False),
        ]
        for spec, symmetric, psd in cases:
            assert spec.symmetric is symmetric
            assert spec.psd_claimed is psd


def max_asymmetry(kspec, espec, bags) -> float:
    """Largest gap between K(a, b) and K(b, a) over all pairs, from one cross-Gram
    of the bags with themselves."""
    values = build_cross_gram(kspec, espec, bags, bags)
    return float(np.max(np.abs(values - values.T)))


class TestCheckSymmetry:
    def test_gaussian_symmetric(self, gaussian_embedding):
        bags = make_bags(9, 5, 4, 2)
        assert max_asymmetry(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags) <= 1e-10

    def test_tilt_vanishes_at_small_c(self, gaussian_embedding):
        # c is required positive; a negligible tilt must look symmetric.
        bags = make_bags(10, 4, 3, 2)
        k = OuterKernelSpec.tilted(1.0, 1e-14, bags[0])
        assert max_asymmetry(k, gaussian_embedding, bags) <= 1e-10

    def test_tilted_asymmetric_on_seeded_bags(self, gaussian_embedding):
        bags = make_bags(12, 5, 4, 2)
        k = OuterKernelSpec.tilted(1.0, 1.0, bags[0])
        assert max_asymmetry(k, gaussian_embedding, bags) > 1e-6

    def test_flags_agree_on_builtins(self, gaussian_embedding):
        bags = make_bags(13, 4, 3, 2)
        for spec in (
            OuterKernelSpec.gaussian(0.8),
            OuterKernelSpec.linear(),
            OuterKernelSpec.dog(0.5, 1.5, 0.8),
            OuterKernelSpec.tanh(2.0, 0.1),
        ):
            symmetric = max_asymmetry(spec, gaussian_embedding, bags) <= 1e-10
            assert symmetric == spec.symmetric


def test_psd_families_have_psd_grams(gaussian_embedding):
    for seed in (0, 1, 2):
        bags = make_bags(seed, 8, 5, 2)
        for kspec in (OuterKernelSpec.gaussian(0.7), OuterKernelSpec.linear()):
            g = build_gram(kspec, gaussian_embedding, bags)
            ev = np.linalg.eigvalsh(0.5 * (g.values + g.values.T))
            assert ev.min() >= -1e-8 * max(ev.max(), 0.0)


def test_frozen_dog_fixture_is_indefinite():
    kspec, espec, bags = make_indefinite_fixture()
    g = build_gram(kspec, espec, bags)
    ev = np.linalg.eigvalsh(0.5 * (g.values + g.values.T))
    assert ev.min() < -1e-6


def test_point_order_invariance(gaussian_embedding):
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(6, 2))
    a = Bag("a", pts)
    a_shuffled = Bag("a", pts[::-1].copy())
    b = Bag("b", rng.normal(size=(5, 2)))
    for kspec in (
        OuterKernelSpec.gaussian(1.0),
        OuterKernelSpec.dog(0.5, 1.5, 0.9),
        OuterKernelSpec.tanh(1.5, 0.2),
    ):
        v1 = outer_eval(kspec, gaussian_embedding, a, b)
        v2 = outer_eval(kspec, gaussian_embedding, a_shuffled, b)
        assert v1 == pytest.approx(v2, abs=1e-12)


@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 5.0), offset=st.floats(0.01, 3.0))
@settings(max_examples=30, deadline=None)
def test_tanh_output_in_open_interval(seed, scale, offset):
    espec = EmbeddingKernelSpec("gaussian", 1.0, 2)
    rng = np.random.default_rng(seed)
    a = Bag("a", rng.normal(size=(3, 2)))
    b = Bag("b", rng.normal(size=(4, 2)))
    v = outer_eval(OuterKernelSpec.tanh(scale, offset), espec, a, b)
    assert -1.0 < v < 1.0


def test_spec_roundtrip_through_dict():
    ref = Bag("ref", np.array([[0.1, 0.2], [0.3, 0.4]]))
    specs = [
        OuterKernelSpec.gaussian(1.3),
        OuterKernelSpec.linear(),
        OuterKernelSpec.dog(0.4, 2.0, 1.0),
        OuterKernelSpec.tanh(2.0, 0.25),
        OuterKernelSpec.tilted(0.9, 0.5, ref),
    ]
    for spec in specs:
        back = OuterKernelSpec.from_dict(spec.to_dict())
        assert back.family == spec.family
        assert back.symmetric == spec.symmetric
        if spec.ref_bag is not None:
            assert np.array_equal(back.ref_bag.points, spec.ref_bag.points)


def one_shot_outer(kspec, inner, row_self, col_self, row_ref=None):
    """The outer-kernel table as whole-matrix passes on a copy: the oracle for
    `apply_outer`, which maps its `inner` in place one row chunk at a time."""
    inner = inner.copy()
    if kspec.family == "linear_embedding":
        return inner
    if kspec.family == "tanh_indefinite":
        return np.tanh(inner * kspec.scale + kspec.offset)
    d2 = np.add.outer(row_self, col_self)
    d2 -= inner * 2.0
    np.clip(d2, 0.0, None, out=d2)

    def gaussian(sigma):
        return np.exp(d2 * -0.5 / sigma**2)

    if kspec.family == "dog_indefinite":
        return gaussian(kspec.sigma1) - gaussian(kspec.sigma2) * kspec.c
    values = gaussian(kspec.sigma)
    if kspec.family == "tilted_asymmetric":
        values *= (1.0 + kspec.c * row_ref)[:, None]
    return values


@pytest.mark.parametrize(
    "rows, cols, budget",
    [(23, 23, 51), (23, 17, 51), (17, 40, 7 * 40), (300, 1000, None), (1000, 300, None)],
)
def test_apply_outer_in_row_chunks_equals_one_shot_formula(rows, cols, budget, monkeypatch):
    # Row counts that are not a multiple of the chunk's, square (Gram) and
    # rectangular (cross-Gram) shapes, the shipped budget and small ones.
    from distreg import embedding
    from distreg.outer import apply_outer

    if budget is not None:
        monkeypatch.setattr(embedding, "_CHUNK_BUDGET", budget)
    rng = np.random.default_rng(rows * cols)
    mu_r, mu_c = rng.normal(size=(rows, 3)), rng.normal(size=(cols, 3))
    mu_r[: min(rows, cols) // 2] = mu_c[: min(rows, cols) // 2]  # distances ~0: the clip acts
    inner = mu_r @ mu_c.T
    row_self, col_self = np.sum(mu_r**2, axis=1), np.sum(mu_c**2, axis=1)
    row_ref = rng.normal(size=rows)
    ref = Bag("ref", [[0.0]])
    for kspec in (
        OuterKernelSpec.linear(),
        OuterKernelSpec.gaussian(0.7),
        OuterKernelSpec.dog(0.3, 1.1, 0.8),
        OuterKernelSpec.tanh(1.3, 0.2),
        OuterKernelSpec.tilted(0.9, 0.6, ref),
    ):
        want = one_shot_outer(kspec, inner, row_self, col_self, row_ref)
        scratch = inner.copy()
        got = apply_outer(kspec, scratch, row_self, col_self, row_ref)
        assert got is scratch
        assert got.tobytes() == want.tobytes(), kspec.family
