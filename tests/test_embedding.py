"""Embedding kernel and mean-embedding geometry tests.

The oracle for inner products is a naive pure-Python double loop over
pointwise kernel values; the library path must match it to 1e-12.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import distreg
from distreg import (
    Bag,
    EmbeddingKernelSpec,
    InputError,
    OuterKernelSpec,
    build_gram,
    embed_inner,
)
from distreg import embedding
from distreg.embedding import HOLDER_EXPONENT, kernel_matrix

from conftest import embed_sq_dist, make_bags

# Every embedding family takes the value 1 at zero distance and is bounded by it.
KERNEL_BOUND = 1.0


def naive_inner(spec: EmbeddingKernelSpec, a: Bag, b: Bag) -> float:
    """Brute-force double loop, independent of the vectorized path."""
    total = 0.0
    for s in a.points:
        for t in b.points:
            d2 = float(np.dot(s - t, s - t))
            if spec.family == "gaussian":
                total += math.exp(-0.5 * d2 / spec.bandwidth**2)
            elif spec.family == "exponential":
                total += math.exp(-math.sqrt(d2) / spec.bandwidth)
            else:
                total += 1.0 / (1.0 + d2 / spec.bandwidth**2)
    return total / (a.size * b.size)


def kernel_eval(spec: EmbeddingKernelSpec, s, t) -> float:
    """k(s, t) for two points, as the one entry of a 1 x 1 kernel_matrix block."""
    return float(kernel_matrix(spec, np.atleast_2d(s), np.atleast_2d(t))[0, 0])


class TestKernelEval:
    def test_gaussian_zero_distance(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 3)
        s = np.array([0.3, -0.2, 1.0])
        assert kernel_eval(spec, s, s) == 1.0

    def test_gaussian_unit_distance(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        v = kernel_eval(spec, np.zeros(2), np.array([1.0, 0.0]))
        assert v == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_cauchy_closed_form(self):
        spec = EmbeddingKernelSpec("cauchy", 2.0, 1)
        v = kernel_eval(spec, np.array([0.0]), np.array([2.0]))
        assert v == pytest.approx(0.5, abs=1e-15)

    def test_exponential_closed_form(self):
        spec = EmbeddingKernelSpec("exponential", 2.0, 1)
        v = kernel_eval(spec, np.array([0.0]), np.array([1.0]))
        assert v == pytest.approx(math.exp(-0.5), abs=1e-15)

    @pytest.mark.parametrize("family", sorted(HOLDER_EXPONENT))
    def test_symmetric_and_bounded(self, family):
        spec = EmbeddingKernelSpec(family, 0.7, 2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s, t = rng.normal(size=2), rng.normal(size=2)
            v = kernel_eval(spec, s, t)
            assert v == kernel_eval(spec, t, s)
            assert 0.0 < v <= KERNEL_BOUND


def two_pass_kernel_matrix(spec: EmbeddingKernelSpec, s, t, out=None) -> np.ndarray:
    """The kernel block as evaluated before the constants were folded into one
    multiplier, a scale and a division per element, on scipy's cdist distances."""
    d2 = cdist(s, t, "sqeuclidean")
    if spec.family == "gaussian":
        d2 *= -0.5
        d2 /= spec.bandwidth**2
    elif spec.family == "exponential":
        np.sqrt(d2, out=d2)
        d2 /= -spec.bandwidth
    else:
        d2 /= spec.bandwidth**2
        d2 += 1.0
        return np.reciprocal(d2, out=d2)
    return np.exp(d2, out=d2)


FAMILY_DIMS = [(family, d) for family in HOLDER_EXPONENT for d in (1, 2)]

# Tile shapes on both sides of embedding._UNBUFFERED_ROW (64 values per row).
TILE_SHAPES = [(70, 90), (300, 20)]


class TestKernelMatrix:
    @pytest.mark.parametrize("family,d", [(f, d) for f in HOLDER_EXPONENT for d in (1, 2, 3, 5)])
    @pytest.mark.parametrize("bandwidth", [0.25, 0.5, 1.0, 4.0])
    def test_power_of_two_bandwidth_keeps_two_pass_bits(self, family, d, bandwidth):
        # Distances summed coordinate by coordinate are cdist's, bit for bit,
        # whether the tile's rows take the difference passes buffered or not.
        rng = np.random.default_rng(11)
        spec = EmbeddingKernelSpec(family, bandwidth, d)
        for rows, cols in TILE_SHAPES:
            s, t = rng.normal(size=(rows, d)), 2.0 * rng.normal(size=(cols, d))
            expected = two_pass_kernel_matrix(spec, s, t)
            assert np.array_equal(kernel_matrix(spec, s, t), expected)
            # Into a view of a larger buffer, as the Gram's tiles are.
            buffer = np.full(2 * rows * cols, np.nan)
            out = buffer[: rows * cols].reshape(rows, cols)
            assert kernel_matrix(spec, s, t, out) is out
            assert np.array_equal(out, expected)
            assert np.isnan(buffer[rows * cols :]).all()

    @pytest.mark.parametrize("family,d", FAMILY_DIMS)
    def test_other_bandwidth_values_within_1e15(self, family, d):
        # At bw = 0.3 the folded multiplier is rounded, and a value moves by
        # about |exponent| ulps. Points within 0.3 of each other per
        # coordinate keep |exponent| (the Cauchy ratio d^2 / bw^2) <= d.
        rng = np.random.default_rng(12)
        s, t = rng.uniform(0.0, 0.3, size=(70, d)), rng.uniform(0.0, 0.3, size=(90, d))
        spec = EmbeddingKernelSpec(family, 0.3, d)
        folded, two_pass = kernel_matrix(spec, s, t), two_pass_kernel_matrix(spec, s, t)
        assert np.allclose(folded, two_pass, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("family,d", FAMILY_DIMS)
    def test_other_bandwidth_inner_products_within_1e15(self, family, d, monkeypatch):
        # At bw = 0.3 the folded multiplier is rounded, so single kernel values
        # may move in the last bits; the embedding inner products stay within
        # 1e-15 relative of the two-pass ones.
        spec = EmbeddingKernelSpec(family, 0.3, d)
        bags = make_bags(5, 8, 40, d)
        folded = np.array([[embed_inner(spec, a, b) for b in bags] for a in bags])
        monkeypatch.setattr(embedding, "kernel_matrix", two_pass_kernel_matrix)
        two_pass = np.array([[embed_inner(spec, a, b) for b in bags] for a in bags])
        assert np.allclose(folded, two_pass, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1, 3])
    def test_distances_out_of_range_give_zero_and_no_warning(self, d):
        # 2e200 apart: the squared distance is inf, and the kernel value 0.
        bags = [Bag("plus", np.full((1, d), 1e200)), Bag("minus", np.full((1, d), -1e200))]
        espec = EmbeddingKernelSpec("gaussian", 1.0, d)
        assert kernel_matrix(espec, bags[0].points, bags[1].points)[0, 0] == 0.0
        g = build_gram(OuterKernelSpec.gaussian(1.0), espec, bags)
        # Embedding distance^2 2 (self inner products 1, cross 0): exp(-2 / 2).
        assert np.array_equal(np.diag(g.values), [1.0, 1.0])
        assert g.values[0, 1] == g.values[1, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_predict_loads_no_scipy(self, tmp_path):
        # Prediction is a cross-Gram and a mat-vec: numpy alone. scipy.linalg
        # would cost every `distreg predict` ~0.25 s and ~30 MB.
        bags = tmp_path / "bags.ndjson"
        bags.write_text(
            '{"id": "t0", "y": null, "points": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.1]]}\n'
            '{"id": "t1", "y": null, "points": [[0.9, 0.8]]}\n'
        )
        model = Path(__file__).parent / "data" / "model_small.json"  # d=2, tilted
        code = (
            "import sys, distreg.cli as cli\n"
            f"rc = cli.main(['predict', '--model', {str(model)!r}, '--bags', {str(bags)!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src = str(Path(distreg.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "id,prediction" and len(lines) == 4
        assert lines[-1] == "0 []"


def spread_values(rng, shape) -> np.ndarray:
    """Signed values over 600 decades, so that the order of additions shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)


class TestSegmentSums:
    """segment_sums is np.add.reduceat along the last axis, bit for bit."""

    @pytest.mark.parametrize("size", range(1, 13))
    def test_equal_segments(self, size):
        rng = np.random.default_rng(size)
        for shape in [(37 * size,), (5, 11 * size), (3, 2, 7 * size)]:
            x = spread_values(rng, shape)
            starts = np.arange(0, shape[-1], size)
            want = np.add.reduceat(x, starts, axis=-1)
            assert embedding.segment_sums(x, starts).tobytes() == want.tobytes()

    def test_transposed_input(self):
        x = spread_values(np.random.default_rng(5), (40, 6)).T
        starts = np.arange(0, 40, 4)
        want = np.add.reduceat(x, starts, axis=-1)
        assert embedding.segment_sums(x, starts).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "sizes",
        [[3], [4, 4, 4, 5], [1, 7, 2, 8, 3], [9, 1, 1], [2, 2, 2, 2, 1], [150, 4, 4]],
        ids=lambda s: "-".join(map(str, s)),
    )
    def test_ragged_segments(self, sizes):
        rng = np.random.default_rng(len(sizes))
        x = spread_values(rng, (6, sum(sizes)))
        starts = np.cumsum([0] + sizes[:-1])
        want = np.add.reduceat(x, starts, axis=-1)
        assert embedding.segment_sums(x, starts).tobytes() == want.tobytes()

    def test_signed_zeros(self):
        x = np.array([[-0.0, -0.0, -0.0, 0.0, -0.0, -0.0]])
        for starts in ([0, 2, 4], [0, 3], [0]):
            want = np.add.reduceat(x, starts, axis=-1)
            assert embedding.segment_sums(x, np.array(starts)).tobytes() == want.tobytes()


class TestEmbedInner:
    def test_single_atom_self(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        bag = Bag("x", np.array([[0.1, 0.9]]))
        assert embed_inner(spec, bag, bag) == 1.0

    def test_two_single_point_bags(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        a = Bag("a", np.array([[0.0, 0.0]]))
        b = Bag("b", np.array([[1.0, 0.0]]))
        assert embed_inner(spec, a, b) == pytest.approx(math.exp(-0.5), abs=1e-15)

    @pytest.mark.parametrize("family", sorted(HOLDER_EXPONENT))
    def test_matches_naive_double_loop(self, family):
        spec = EmbeddingKernelSpec(family, 0.8, 2)
        a, b = make_bags(11, 2, 3, 2)
        assert embed_inner(spec, a, b) == pytest.approx(naive_inner(spec, a, b), abs=1e-12)

    def test_matches_oracle_on_50_seeded_pairs(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        for seed in range(50):
            a, b = make_bags(seed, 2, 4 + seed % 5, 2)
            assert embed_inner(spec, a, b) == pytest.approx(
                naive_inner(spec, a, b), abs=1e-12
            )

    def test_exact_symmetry(self):
        spec = EmbeddingKernelSpec("exponential", 0.6, 3)
        a, b = make_bags(7, 2, 9, 3)
        assert embed_inner(spec, a, b) == embed_inner(spec, b, a)

    def test_empty_bag_rejected(self):
        with pytest.raises(InputError):
            Bag("empty", np.zeros((0, 2)))

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(InputError):
            Bag("nan-points", np.array([[np.nan, 0.0]]))
        with pytest.raises(InputError):
            Bag("nan-label", np.zeros((1, 2)), label=float("nan"))

    @pytest.mark.parametrize("label", ["abc", 10**400, [1.0, 2.0], np.ones(2), 1j])
    def test_label_that_is_not_a_number_rejected(self, label):
        with pytest.raises(InputError, match="is not a number"):
            Bag("odd-label", np.zeros((1, 2)), label=label)

    @pytest.mark.parametrize("label", [0, 2.5, np.float64(-1.0), np.float32(3.0), True])
    def test_finite_number_labels_accepted(self, label):
        assert Bag("ok", np.zeros((1, 2)), label=label).label == label

    @given(seed=st.integers(0, 10_000), na=st.integers(1, 6), nb=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_and_cauchy_schwarz(self, seed, na, nb):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        rng = np.random.default_rng(seed)
        a = Bag("a", rng.normal(size=(na, 2)))
        b = Bag("b", rng.normal(size=(nb, 2)))
        iab = embed_inner(spec, a, b)
        assert abs(iab) <= KERNEL_BOUND
        iaa, ibb = embed_inner(spec, a, a), embed_inner(spec, b, b)
        assert iab**2 <= iaa * ibb + 1e-10


class TestEmbedSqDist:
    def test_identical_bags_zero(self):
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        a = Bag("a", np.array([[0.1, 0.2], [0.5, 0.5]]))
        same = Bag("a", np.array([[0.1, 0.2], [0.5, 0.5]]))
        assert embed_sq_dist(spec, a, same) == 0.0

    def test_permuted_multiset_near_zero(self):
        # Same multiset in a different order: only summation-order roundoff
        # remains, and the clamp keeps it nonnegative.
        spec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        pts = np.random.default_rng(8).normal(size=(6, 2))
        a = Bag("a", pts)
        b = Bag("b", pts[::-1].copy())
        d2 = embed_sq_dist(spec, a, b)
        assert 0.0 <= d2 <= 1e-12

    def test_single_point_expansion(self):
        spec = EmbeddingKernelSpec("cauchy", 1.5, 2)
        x = Bag("x", np.array([[0.0, 0.0]]))
        y = Bag("y", np.array([[0.7, -0.3]]))
        k = kernel_eval(spec, x.points[0], y.points[0])
        assert embed_sq_dist(spec, x, y) == pytest.approx(2.0 - 2.0 * k, abs=1e-15)

    def test_matches_inner_expansion(self):
        spec = EmbeddingKernelSpec("gaussian", 0.9, 2)
        for seed in (1, 2, 3):
            a, b = make_bags(seed, 2, 6, 2)
            expected = (
                naive_inner(spec, a, a)
                + naive_inner(spec, b, b)
                - 2.0 * naive_inner(spec, a, b)
            )
            assert embed_sq_dist(spec, a, b) == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        spec = EmbeddingKernelSpec("exponential", 1.0, 2)
        rng = np.random.default_rng(seed)
        a = Bag("a", rng.normal(size=(3, 2)))
        b = Bag("b", rng.normal(size=(4, 2)))
        assert embed_sq_dist(spec, a, b) >= 0.0


def test_subsample_concentration_probe():
    # Two independent N-samples of one distribution drift together as N grows:
    # the median embedding distance must decrease strictly across the ladder.
    spec = EmbeddingKernelSpec("gaussian", 0.5, 1)
    rng = np.random.default_rng(2024)
    medians = []
    for n in (10, 100, 1000):
        dists = []
        for _ in range(50):
            a = Bag("a", rng.normal(0.5, 0.2, size=(n, 1)))
            b = Bag("b", rng.normal(0.5, 0.2, size=(n, 1)))
            dists.append(math.sqrt(embed_sq_dist(spec, a, b)))
        medians.append(np.median(dists))
    assert medians[0] > medians[1] > medians[2]


def test_bandwidth_must_be_positive():
    from distreg import ConfigError

    with pytest.raises(ConfigError):
        EmbeddingKernelSpec("gaussian", 0.0, 1)


def test_unknown_family_rejected():
    from distreg import ConfigError

    with pytest.raises(ConfigError):
        EmbeddingKernelSpec("sinc", 1.0, 1)


def test_holder_exponents_documented():
    assert HOLDER_EXPONENT["gaussian"] == 1.0
    assert HOLDER_EXPONENT["exponential"] == 0.5
    assert HOLDER_EXPONENT["cauchy"] == 1.0
    spec = EmbeddingKernelSpec("exponential", 1.0, 1)
    assert HOLDER_EXPONENT[spec.family] == 0.5
