"""Gram assembly, cross blocks, and spectrum extraction.

The entrywise oracle below recomputes every outer kernel value from naive
pure-Python double loops, independent of the chunked vectorized path.
"""

import hashlib
import json
import math
import mmap
import sys
import threading
import tracemalloc
import weakref

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

from distreg import ConfigError, embedding, gram
from distreg.embedding import kernel_matrix
from distreg.gram import kernel_fingerprint
from distreg.outer import apply_outer

from conftest import gram_from_matrix, make_bags, pair_inner
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

    @pytest.mark.parametrize("ref_dim,dim", [(3, 2), (2, 1)])
    def test_reference_bag_dimension_mismatch(self, ref_dim, dim):
        # With dim 1 a 2-d reference bag would otherwise reach kernel_matrix's
        # 1-d branch, which reads only the first coordinate.
        espec = EmbeddingKernelSpec("gaussian", 1.0, dim)
        bags = make_bags(27, 3, 4, dim)
        kspec = OuterKernelSpec.tilted(1.0, 0.5, Bag("ref", np.zeros((2, ref_dim))))
        with pytest.raises(InputError, match=f"bag 'ref' has dimension {ref_dim}"):
            build_gram(kspec, espec, bags)
        with pytest.raises(InputError, match=f"bag 'ref' has dimension {ref_dim}"):
            build_cross_gram(kspec, espec, bags[:1], bags)

    def test_empty_bag_list(self, gaussian_embedding):
        with pytest.raises(InputError):
            build_gram(OuterKernelSpec.linear(), gaussian_embedding, [])

    def test_provenance(self, gaussian_embedding):
        bags = make_bags(26, 3, 2, 2)
        g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
        assert g.ids == tuple(b.id for b in bags)
        assert len(kernel_fingerprint(OuterKernelSpec.gaussian(1.0), gaussian_embedding)) == 16

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
        # The cross-Gram rows go to the pool; self inner products never do.
        build_cross_gram(kspec, espec, test, train, threads=2)
        assert pool_starts == [2, 2]

    def test_one_thread_unless_asked(self, pool_starts):
        espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
        train, test = make_bags(32, 25, 100, 1), make_bags(33, 4, 100, 1)
        kspec = OuterKernelSpec.gaussian(1.0)
        build_gram(kspec, espec, train)
        build_cross_gram(kspec, espec, test, train)
        assert pool_starts == []
        for threads in (0, -3):
            with pytest.raises(ConfigError, match="threads must be a positive integer"):
                build_gram(kspec, espec, train, threads=threads)
            with pytest.raises(ConfigError, match="threads must be a positive integer"):
                build_cross_gram(kspec, espec, test, train, threads=threads)


def test_a_worker_error_reaches_the_caller_and_no_thread_is_left(monkeypatch, pool_starts):
    espec, kspec = EmbeddingKernelSpec("gaussian", 0.25, 1), OuterKernelSpec.gaussian(1.0)
    train = make_bags(32, 25, 100, 1)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("third row block")
        return embedding.pair_sums(*args)

    monkeypatch.setattr(gram, "pair_sums", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="third row block"):
        build_gram(kspec, espec, train, threads=2)
    assert pool_starts == [2]
    # The failing call and at most one block already in flight: not all 20.
    assert len(calls) <= 4
    assert threading.active_count() == before


def test_pool_workers_take_every_task_once():
    # More workers than cores, switching threads every microsecond: a task the
    # shared iterator lost or gave out twice would show in the list.
    done, interval = [], sys.getswitchinterval()
    runner = threading.Thread(target=gram._pool, args=(done.append, iter(range(20_000)), 8))
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(done) == list(range(20_000))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_tiles_are_unmapped_when_each_call_returns(threads, d, monkeypatch):
    # Each thread maps one tile (at d >= 2 with its difference buffer) per
    # inner-product call, at most, and the call unmaps it on return.
    made, per_call = [], []

    class RecordingMap(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            tile = super().__new__(cls, *args, **kwargs)
            made.append((weakref.ref(tile), len(tile)))
            return tile

    def counted(fn):
        def call(*args):
            first = len(made)
            result = fn(*args)
            per_call.append(made[first:])
            return result

        return call

    monkeypatch.setattr(mmap, "mmap", RecordingMap)
    for name in ("_embedding_inners", "_self_inners"):
        monkeypatch.setattr(gram, name, counted(getattr(gram, name)))
    espec, kspec = EmbeddingKernelSpec("gaussian", 0.5, d), OuterKernelSpec.gaussian(1.0)
    train, test = make_bags(32, 25, 100, d), make_bags(33, 4, 100, d)
    build_gram(kspec, espec, train, threads=threads)
    build_cross_gram(kspec, espec, test, train, threads=threads)
    assert len(per_call) == 4  # the Gram; the cross-Gram and both self inner products
    assert all(1 <= len(maps) <= threads for maps in per_call)
    assert all(ref() is None for ref, _ in made)
    assert {size for _, size in made} == {min(d, 2) * embedding._CHUNK_BUDGET * 8}


@pytest.mark.parametrize(
    "sizes", [[4] * 64, [4] * 20 + [100, 3, 70, 1, 64, 2] + [5] * 9], ids=["4x64", "ragged"]
)
@pytest.mark.parametrize("threads", [1, 2])
def test_small_bags_share_self_inner_product_calls(threads, sizes, monkeypatch):
    # Runs of bags of at most 64 points in all take one pair_sums call and keep
    # the bits of the Gram diagonal; a larger bag runs alone.
    rng = np.random.default_rng(46)
    bags = [Bag(f"b{i}", rng.normal(size=(n, 1))) for i, n in enumerate(sizes)]
    espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
    diagonal = build_gram(OuterKernelSpec.linear(), espec, bags, threads=threads).self_inners
    calls = []

    def counting(*args):
        calls.append(len(args[2]) - 1)  # row bags
        return embedding.pair_sums(*args)

    monkeypatch.setattr(gram, "pair_sums", counting)
    assert np.array_equal(gram._self_inners(espec, bags), diagonal)
    assert calls == ([16] * 4 if sizes == [4] * 64 else [16, 4, 1, 1, 1, 1, 1, 10])


@pytest.mark.parametrize("family", ["linear", "gaussian", "dog", "tanh", "tilted"])
def test_kernel_fingerprint_is_the_sha256_of_the_kernel_pair(family, gaussian_embedding):
    kspec = {
        "linear": OuterKernelSpec.linear(),
        "gaussian": OuterKernelSpec.gaussian(1.0),
        "dog": OuterKernelSpec.dog(0.3, 1.1, 0.8),
        "tanh": OuterKernelSpec.tanh(1.3, 0.2),
        "tilted": OuterKernelSpec.tilted(0.9, 0.6, Bag("ref", [[0.1, 0.2], [0.3, 0.5]])),
    }[family]
    doc = {"outer": kspec.to_dict(), "embedding": gaussian_embedding.to_dict()}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert kernel_fingerprint(kspec, gaussian_embedding) == hashlib.sha256(text).hexdigest()[:16]


def test_tiny_bags_are_reduced_in_row_blocks(monkeypatch):
    # 1000 rows of 4 points: one kernel block per row would be 1000 calls.
    espec = EmbeddingKernelSpec("gaussian", 0.25, 1)
    calls = []

    def counting(spec, s, t, out=None):
        calls.append(len(s))
        return kernel_matrix(spec, s, t, out)

    monkeypatch.setattr(embedding, "kernel_matrix", counting)
    build_gram(OuterKernelSpec.gaussian(1.0), espec, make_bags(30, 1000, 4, 1), threads=2)
    assert len(calls) <= 120


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_tiles_bound_peak_memory(threads):
    # Each thread reduces in tiles of at most _CHUNK_BUDGET values (1 MiB), in
    # one buffer for the whole Gram. One row bag against all 6000 column points
    # at once would take 4.8 MB per thread; the 60 x 60 results take ~30 kB.
    # A pair of 500-point bags would take 2 MB: its first bag's points are
    # split across tiles instead. The tiles are mmap views, which tracemalloc
    # does not see (test_kernel_tiles_are_unmapped_when_each_call_returns
    # checks the mappings); a tile made as a numpy array would add 1 MiB.
    rng = np.random.default_rng(41)
    train, test = ([Bag(f"{p}{i}", rng.normal(size=(100, 1))) for i in range(60)] for p in "tb")
    big = [Bag(f"c{i}", rng.normal(size=(500, 1))) for i in range(6)]
    espec, kspec = EmbeddingKernelSpec("gaussian", 0.5, 1), OuterKernelSpec.gaussian(1.0)
    for build in (
        lambda: build_gram(kspec, espec, train, threads=threads),
        lambda: build_cross_gram(kspec, espec, test, train, threads=threads),
        lambda: build_gram(kspec, espec, big, threads=threads),
        lambda: build_cross_gram(kspec, espec, big[:2], big[2:], threads=threads),
    ):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_self_inner_products_write_into_the_tile_buffer(threads, monkeypatch):
    # The test bags' self inner products of a cross-Gram are reduced in slices of
    # the per-thread tile, like the Gram's rows: every kernel block gets an `out`.
    rng = np.random.default_rng(43)
    test = [Bag(f"t{i}", rng.normal(size=(500, 1))) for i in range(3)]
    train = [Bag(f"r{i}", rng.normal(size=(20, 1))) for i in range(4)]
    espec, kspec = EmbeddingKernelSpec("gaussian", 0.5, 1), OuterKernelSpec.gaussian(1.0)
    outs = []

    def spy(spec, s, t, out=None):
        outs.append(out)
        return kernel_matrix(spec, s, t, out)

    monkeypatch.setattr(embedding, "kernel_matrix", spy)
    build_cross_gram(kspec, espec, test, train, threads=threads)
    # Two slices for each 500 x 500 self inner product, and the cross blocks.
    assert len(outs) >= 2 * len(test) and all(out is not None for out in outs)


@pytest.mark.parametrize("min_evals", [gram._POOL_MIN_EVALS, 0], ids=lambda v: f"pool{v}")
@pytest.mark.parametrize("threads", [1, 2])
def test_tilt_equals_the_pairwise_inner_products(threads, min_evals, monkeypatch):
    # The tilt's <mu_row, mu_ref> reach apply_outer as `row_ref`.
    rng = np.random.default_rng(44)
    train = [Bag(f"r{i}", rng.normal(size=(n, 2))) for i, n in enumerate([30, 1, 12, 45, 7])]
    test = [Bag(f"t{i}", rng.normal(size=(n, 2))) for i, n in enumerate([9, 30, 2])]
    ref = Bag("ref", rng.normal(size=(17, 2)))
    espec, kspec = EmbeddingKernelSpec("gaussian", 0.7, 2), OuterKernelSpec.tilted(0.9, 0.6, ref)
    row_refs = []

    def spy(kspec, inner, row_self, col_self, row_ref):
        row_refs.append(row_ref.copy())
        return apply_outer(kspec, inner, row_self, col_self, row_ref)

    monkeypatch.setattr(gram, "_POOL_MIN_EVALS", min_evals)
    monkeypatch.setattr(gram, "apply_outer", spy)
    build_gram(kspec, espec, train, threads=threads)
    build_cross_gram(kspec, espec, test, train, threads=threads)
    want = [[pair_inner(espec, b, ref) for b in bags] for bags in (train, test)]
    assert [r.tolist() for r in row_refs] == want


@pytest.mark.parametrize("threads", [1, 2])
def test_tilt_writes_into_the_tile_buffer(threads, monkeypatch):
    # The tilt's inner products with the reference bag are reduced in the
    # per-thread tile, like the Gram's rows: every kernel block gets an `out`.
    rng = np.random.default_rng(45)
    train = [Bag(f"r{i}", rng.normal(size=(40, 1))) for i in range(4)]
    ref = Bag("ref", rng.normal(size=(25, 1)))
    espec = EmbeddingKernelSpec("gaussian", 0.5, 1)
    kspec = OuterKernelSpec.tilted(1.0, 0.5, ref)
    outs = []

    def spy(spec, s, t, out=None):
        outs.append((len(s), len(t), out))
        return kernel_matrix(spec, s, t, out)

    monkeypatch.setattr(embedding, "kernel_matrix", spy)
    build_gram(kspec, espec, train, threads=threads)
    # The reference bag's 25 points meet the row bags' in at least one block.
    assert any(25 in (rows, cols) for rows, cols, _ in outs)
    assert all(out is not None for _, _, out in outs)


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (40, 40), (13, 29), (29, 13)])
def test_reorder_in_place_equals_fancy_indexing(shape):
    from distreg.gram import _reorder

    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    for rows, cols in (
        (rng.permutation(shape[0]), rng.permutation(shape[1])),
        (np.arange(shape[0]), rng.permutation(shape[1])),
        (rng.permutation(shape[0]), np.arange(shape[1])),
    ):
        want, got = a[np.ix_(rows, cols)], a.copy()
        _reorder(got, rows, cols)
        assert got.tobytes() == want.tobytes()

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
        sv = spectrum(gram_from_matrix(np.eye(3)))
        assert np.allclose(sv, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_diagonal(self):
        sv = spectrum(gram_from_matrix(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(sv, [1.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_descending_and_nonnegative(self, gaussian_embedding):
        bags = make_bags(41, 12, 5, 2)
        g = build_gram(OuterKernelSpec.dog(0.4, 1.5, 0.9), gaussian_embedding, bags)
        sv = spectrum(g)
        assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)

    def test_matches_svd_oracle_on_20_bag_gram(self, gaussian_embedding):
        # Oracle: singular values via the eigendecomposition of A^T A.
        bags = make_bags(42, 20, 5, 2)
        g = build_gram(OuterKernelSpec.gaussian(0.8), gaussian_embedding, bags)
        sv = spectrum(g)
        scaled = g.values / 20
        ev = np.linalg.eigvalsh(scaled.T @ scaled)
        oracle = np.sqrt(np.clip(ev, 0.0, None))[::-1]
        assert np.allclose(sv, oracle, atol=1e-8)

    def test_trace_consistency(self, gaussian_embedding):
        # A Gaussian outer Gram is PSD, so its singular values are its eigenvalues.
        bags = make_bags(43, 15, 4, 2)
        g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
        sv = spectrum(g)
        assert np.sum(sv) == pytest.approx(np.trace(g.values) / g.m, abs=1e-8)

    def test_asymmetric_has_no_eigenvalues(self, gaussian_embedding):
        bags = make_bags(44, 5, 3, 2)
        kspec = OuterKernelSpec.tilted(1.0, 1.0, bags[0])
        sv = spectrum(build_gram(kspec, gaussian_embedding, bags))
        assert np.all(sv >= 0)

    def test_non_square_rejected(self):
        # A GramMatrix is square by construction, so spectrum never sees one that is not.
        with pytest.raises(InputError, match="shape"):
            GramMatrix(values=np.zeros((2, 3)), ids=("a", "b"))
        with pytest.raises(InputError, match="shape"):
            GramMatrix(values=np.zeros((3, 3)), ids=("a", "b"))
