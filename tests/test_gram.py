"""Gram assembly, cross blocks, and spectrum extraction.

The entrywise oracle below recomputes every outer kernel value from naive
pure-Python double loops, independent of the chunked vectorized path.
"""

import math

import numpy as np
import pytest

from distreg import (
    Bag,
    EmbeddingKernelSpec,
    GramMatrix,
    InputError,
    OuterKernelSpec,
    build_cross_gram,
    build_gram,
    spectrum,
)

from conftest import gram_from_matrix, make_bags
from test_embedding import naive_inner


def naive_outer(kspec, espec, a, b) -> float:
    """Scalar oracle: outer kernel from brute-force embedding geometry."""
    if kspec.family == "linear_embedding":
        return naive_inner(espec, a, b)
    if kspec.family == "tanh_indefinite":
        return math.tanh(kspec.scale * naive_inner(espec, a, b) + kspec.offset)
    d2 = max(
        naive_inner(espec, a, a) + naive_inner(espec, b, b) - 2 * naive_inner(espec, a, b),
        0.0,
    )
    if kspec.family == "gaussian_on_embedding":
        return math.exp(-0.5 * d2 / kspec.sigma**2)
    if kspec.family == "dog_indefinite":
        return math.exp(-0.5 * d2 / kspec.sigma1**2) - kspec.c * math.exp(
            -0.5 * d2 / kspec.sigma2**2
        )
    tilt = 1.0 + kspec.c * naive_inner(espec, a, kspec.ref_bag)
    return math.exp(-0.5 * d2 / kspec.sigma**2) * tilt


class TestBuildGram:
    def test_single_point_bag_gaussian(self, gaussian_embedding):
        bag = Bag("only", np.array([[0.3, 0.3]]))
        g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, [bag])
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 1.0

    def test_two_identical_bags_dog_zero(self, gaussian_embedding):
        pts = np.array([[0.2, 0.8], [0.4, 0.1]])
        bags = [Bag("a", pts), Bag("b", pts.copy())]
        g = build_gram(OuterKernelSpec.dog(1.0, 2.0, 1.0), gaussian_embedding, bags)
        assert np.allclose(g.values, 0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "kspec",
        [
            OuterKernelSpec.gaussian(0.8),
            OuterKernelSpec.linear(),
            OuterKernelSpec.dog(0.5, 1.5, 0.9),
            OuterKernelSpec.tanh(1.2, 0.3),
        ],
        ids=lambda k: k.family,
    )
    def test_matches_entrywise_oracle(self, gaussian_embedding, kspec):
        bags = make_bags(21, 5, 4, 2)
        g = build_gram(kspec, gaussian_embedding, bags)
        for i, a in enumerate(bags):
            for j, b in enumerate(bags):
                assert g.values[i, j] == pytest.approx(
                    naive_outer(kspec, gaussian_embedding, a, b), abs=1e-12
                )

    def test_tilted_matches_oracle_with_row_first(self, gaussian_embedding):
        bags = make_bags(22, 4, 3, 2)
        kspec = OuterKernelSpec.tilted(1.0, 0.8, bags[1])
        g = build_gram(kspec, gaussian_embedding, bags)
        for i, a in enumerate(bags):
            for j, b in enumerate(bags):
                assert g.values[i, j] == pytest.approx(
                    naive_outer(kspec, gaussian_embedding, a, b), abs=1e-12
                )

    def test_symmetric_kernel_gives_exactly_symmetric_matrix(self, gaussian_embedding):
        bags = make_bags(23, 7, 5, 2, spread=0.8)
        g = build_gram(OuterKernelSpec.dog(0.4, 1.1, 0.7), gaussian_embedding, bags)
        assert np.array_equal(g.values, g.values.T)

    def test_thread_count_does_not_change_bits(self, gaussian_embedding):
        bags = make_bags(24, 9, 6, 2)
        kspec = OuterKernelSpec.gaussian(1.0)
        g1 = build_gram(kspec, gaussian_embedding, bags, threads=1)
        g4 = build_gram(kspec, gaussian_embedding, bags, threads=4)
        assert np.array_equal(g1.values, g4.values)

    def test_rerun_reproduces_bits(self, gaussian_embedding):
        bags = make_bags(25, 6, 4, 2)
        kspec = OuterKernelSpec.tanh(1.0, 0.2)
        a = build_gram(kspec, gaussian_embedding, bags).values
        b = build_gram(kspec, gaussian_embedding, bags).values
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self, gaussian_embedding):
        bags = [Bag("a", np.zeros((2, 3)))]
        with pytest.raises(InputError):
            build_gram(OuterKernelSpec.linear(), gaussian_embedding, bags)

    def test_empty_bag_list(self, gaussian_embedding):
        with pytest.raises(InputError):
            build_gram(OuterKernelSpec.linear(), gaussian_embedding, [])

    def test_provenance(self, gaussian_embedding):
        bags = make_bags(26, 3, 2, 2)
        g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
        assert g.row_ids == g.col_ids == tuple(b.id for b in bags)
        assert len(g.kernel_fingerprint) == 16

    def test_mixed_bag_sizes(self, gaussian_embedding):
        # Chunked assembly must handle unequal N per bag.
        rng = np.random.default_rng(5)
        bags = [Bag(f"b{i}", rng.normal(size=(n, 2))) for i, n in enumerate([1, 7, 3, 12])]
        kspec = OuterKernelSpec.gaussian(1.0)
        g = build_gram(kspec, gaussian_embedding, bags)
        for i, a in enumerate(bags):
            for j, b in enumerate(bags):
                assert g.values[i, j] == pytest.approx(
                    naive_outer(kspec, gaussian_embedding, a, b), abs=1e-12
                )


class TestPoolDispatch:
    """Row tasks go to a thread pool only when they are big enough to gain."""

    def test_four_point_bags_never_start_a_pool(self, pool_starts):
        # The shape of the many-small-bags saturation problem.
        espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
        train, test = make_bags(30, 1000, 4, 1), make_bags(31, 64, 4, 1)
        kspec = OuterKernelSpec.gaussian(1.0)
        build_gram(kspec, espec, train, threads=2)
        build_cross_gram(kspec, espec, test, train, threads=2)
        assert pool_starts == []

    def test_hundred_point_bags_use_the_pool(self, pool_starts):
        # 25 bags of 100 points: 1.3e5 evaluations per Gram row on average.
        espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
        train, test = make_bags(32, 25, 100, 1), make_bags(33, 4, 100, 1)
        kspec = OuterKernelSpec.gaussian(1.0)
        build_gram(kspec, espec, train, threads=2)
        assert pool_starts == [2]
        # The cross-Gram rows go to the pool; the self inner products of
        # single bags (1e4 evaluations each) do not.
        build_cross_gram(kspec, espec, test, train, threads=2)
        assert pool_starts == [2, 2]


class TestCrossGram:
    def test_equals_gram_when_test_is_train(self, gaussian_embedding):
        bags = make_bags(31, 6, 4, 2)
        kspec = OuterKernelSpec.gaussian(0.9)
        g = build_gram(kspec, gaussian_embedding, bags)
        cross = build_cross_gram(kspec, gaussian_embedding, bags, bags)
        assert np.allclose(cross, g.values, atol=1e-12)

    def test_identical_test_bag_hits_one(self, gaussian_embedding):
        bags = make_bags(32, 4, 3, 2)
        test = [Bag("t", bags[0].points.copy())]
        cross = build_cross_gram(
            OuterKernelSpec.gaussian(1.0), gaussian_embedding, test, bags
        )
        assert cross.shape == (1, 4)
        assert cross[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_kernel_order_matters(self, gaussian_embedding):
        bags = make_bags(33, 6, 4, 2)
        a_set, b_set = bags[:3], bags[3:]
        kspec = OuterKernelSpec.tilted(1.0, 1.0, bags[0])
        ab = build_cross_gram(kspec, gaussian_embedding, a_set, b_set)
        ba = build_cross_gram(kspec, gaussian_embedding, b_set, a_set)
        assert not np.allclose(ab, ba.T, atol=1e-10)

    def test_entries_match_oracle(self, gaussian_embedding):
        bags = make_bags(34, 5, 3, 2)
        kspec = OuterKernelSpec.dog(0.5, 1.4, 0.8)
        cross = build_cross_gram(kspec, gaussian_embedding, bags[:2], bags[2:])
        for i, a in enumerate(bags[:2]):
            for j, b in enumerate(bags[2:]):
                assert cross[i, j] == pytest.approx(
                    naive_outer(kspec, gaussian_embedding, a, b), abs=1e-12
                )

    def test_empty_lists_rejected(self, gaussian_embedding):
        with pytest.raises(InputError):
            build_cross_gram(
                OuterKernelSpec.linear(), gaussian_embedding, [], make_bags(1, 2, 3, 2)
            )


class TestSpectrum:
    def test_identity_three(self):
        rep = spectrum(gram_from_matrix(np.eye(3)))
        assert np.allclose(rep.singular_values, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert rep.eigenvalues is not None
        assert np.allclose(rep.eigenvalues, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_diagonal(self):
        rep = spectrum(gram_from_matrix(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(rep.singular_values, [1.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_descending_and_nonnegative(self, gaussian_embedding):
        bags = make_bags(41, 12, 5, 2)
        g = build_gram(OuterKernelSpec.dog(0.4, 1.5, 0.9), gaussian_embedding, bags)
        rep = spectrum(g)
        sv = rep.singular_values
        assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)

    def test_matches_svd_oracle_on_20_bag_gram(self, gaussian_embedding):
        # Oracle: singular values via the eigendecomposition of A^T A.
        bags = make_bags(42, 20, 5, 2)
        g = build_gram(OuterKernelSpec.gaussian(0.8), gaussian_embedding, bags)
        rep = spectrum(g)
        scaled = g.values / 20
        ev = np.linalg.eigvalsh(scaled.T @ scaled)
        oracle = np.sqrt(np.clip(ev, 0.0, None))[::-1]
        assert np.allclose(rep.singular_values, oracle, atol=1e-8)

    def test_trace_consistency(self, gaussian_embedding):
        bags = make_bags(43, 15, 4, 2)
        g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
        rep = spectrum(g)
        assert rep.eigenvalues is not None
        assert np.sum(rep.eigenvalues) == pytest.approx(
            np.trace(g.values) / g.m, abs=1e-8
        )

    def test_asymmetric_has_no_eigenvalues(self, gaussian_embedding):
        bags = make_bags(44, 5, 3, 2)
        kspec = OuterKernelSpec.tilted(1.0, 1.0, bags[0])
        rep = spectrum(build_gram(kspec, gaussian_embedding, bags))
        assert rep.eigenvalues is None
        assert np.all(rep.singular_values >= 0)

    def test_non_square_rejected(self):
        g = GramMatrix(
            values=np.zeros((2, 3)),
            row_ids=("a", "b"),
            col_ids=("x", "y", "z"),
            kernel_fingerprint="test",
        )
        with pytest.raises(InputError):
            spectrum(g)

    def test_scale_note_mentions_proxy(self):
        rep = spectrum(gram_from_matrix(np.eye(2)))
        assert "proxies" in rep.scale_note
