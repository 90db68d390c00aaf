"""Bitwise invariance of embedding inner products across paths, chunking and threads.

Every embedding inner product goes through one canonical reduction, so the
value of a pair must not depend on which function computed it, the order of
its arguments, the chunk budget or the thread count. The bags are ragged
(1 to 150 points) so that chunk boundaries and pairwise-summation blocks
fall in different places for different paths; ids repeat, and some test bags
are training bags themselves or copies of them.
"""

import numpy as np
import pytest

from distreg import (
    Bag,
    EmbeddingKernelSpec,
    OuterKernelSpec,
    build_cross_gram,
    build_gram,
    embed_inner,
    outer_eval,
)
from distreg import embedding, gram

KERNEL_CASES = [("gaussian", 1), ("gaussian", 2), ("exponential", 2), ("cauchy", 1)]


def ragged_bags(family: str, d: int):
    rng = np.random.default_rng(2013 + d)
    sizes = [1, 150, 7, 64, 129, 2, 33, 150, 1, 90, 17, 128]
    train = [
        Bag(f"b{i % 5}", rng.uniform(0.0, 1.0, size=d) + 0.4 * rng.normal(size=(n, d)))
        for i, n in enumerate(sizes)
    ]
    test = [
        train[3],
        Bag(train[7].id, train[7].points.copy()),
        Bag("b1", rng.normal(size=(45, d))),
        Bag("t", rng.normal(size=(1, d))),
        train[0],
    ]
    espec = EmbeddingKernelSpec(family, 0.3 if d == 1 else 0.6, d)
    return espec, train, test


def outer_specs(ref: Bag):
    return [
        OuterKernelSpec.linear(),
        OuterKernelSpec.gaussian(0.7),
        OuterKernelSpec.dog(0.3, 1.1, 0.8),
        OuterKernelSpec.tanh(1.3, 0.2),
        OuterKernelSpec.tilted(0.9, 0.6, ref),
    ]


@pytest.fixture(params=KERNEL_CASES, ids=lambda c: f"{c[0]}-d{c[1]}")
def case(request):
    return ragged_bags(*request.param)


def test_chunk_budget_does_not_change_bits(case, monkeypatch):
    espec, train, test = case
    kspec = OuterKernelSpec.linear()
    results = []
    for budget in (8_000_000, 5000, 300, 1):
        monkeypatch.setattr(embedding, "_CHUNK_BUDGET", budget)
        results.append(
            (
                build_gram(kspec, espec, train).values,
                build_cross_gram(kspec, espec, test, train),
                build_cross_gram(kspec, espec, train, test),
            )
        )
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert np.array_equal(a, b)


def test_thread_count_does_not_change_bits(case):
    espec, train, test = case
    kspec = OuterKernelSpec.tilted(0.9, 0.6, test[2])
    g1 = build_gram(kspec, espec, train, threads=1).values
    g2 = build_gram(kspec, espec, train, threads=2).values
    assert np.array_equal(g1, g2)
    c1 = build_cross_gram(kspec, espec, test, train, threads=1)
    c2 = build_cross_gram(kspec, espec, test, train, threads=2)
    assert np.array_equal(c1, c2)


def test_pooled_rows_give_the_serial_bits(case, monkeypatch, pool_starts):
    # The ragged bags' row tasks are too small for the pool; a threshold of 0
    # sends every one of them there.
    espec, train, test = case
    kspec = OuterKernelSpec.tilted(0.9, 0.6, test[2])

    def run(threads):
        return (
            build_gram(kspec, espec, train, threads=threads).values,
            build_cross_gram(kspec, espec, test, train, threads=threads),
            gram._self_inners(espec, test, threads),
        )

    serial = run(2)
    assert pool_starts == []
    monkeypatch.setattr(gram, "_POOL_MIN_EVALS", 0)
    pooled = run(2)
    # One pool for the Gram, three for the cross-Gram (inner products and the
    # self inner products of both bag lists), one for the last call.
    assert len(pool_starts) == 5
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "sizes,pooled",
    [([4, 3, 5, 4] * 15, False), ([300, 510, 420, 350, 280], True)],
    ids=["below-threshold", "above-threshold"],
)
def test_thread_count_does_not_change_bits_on_either_side_of_the_pool_threshold(
    sizes, pooled, pool_starts
):
    rng = np.random.default_rng(77)
    train = [Bag(f"b{i}", rng.normal(size=(n, 1))) for i, n in enumerate(sizes)]
    test = [Bag(f"t{i}", rng.normal(size=(n, 1))) for i, n in enumerate(sizes[::-1][:4])]
    espec = EmbeddingKernelSpec("gaussian", 0.3, 1)
    kspec = OuterKernelSpec.gaussian(0.7)
    one = build_gram(kspec, espec, train, threads=1).values
    cross_one = build_cross_gram(kspec, espec, test, train, threads=1)
    assert pool_starts == []
    two = build_gram(kspec, espec, train, threads=2).values
    cross_two = build_cross_gram(kspec, espec, test, train, threads=2)
    assert bool(pool_starts) == pooled
    assert np.array_equal(one, two)
    assert np.array_equal(cross_one, cross_two)


def test_gram_equals_cross_gram_of_train_with_itself(case):
    espec, train, _ = case
    for kspec in outer_specs(train[5]):
        g = build_gram(kspec, espec, train).values
        assert np.array_equal(g, build_cross_gram(kspec, espec, train, train))


def test_cross_gram_argument_order_is_a_transpose(case):
    espec, train, test = case
    for kspec in outer_specs(train[5])[:4]:
        ab = build_cross_gram(kspec, espec, test, train)
        ba = build_cross_gram(kspec, espec, train, test)
        assert np.array_equal(ab, ba.T)


def test_self_inner_products_equal_gram_diagonal(case):
    espec, train, test = case
    diag = np.diag(build_gram(OuterKernelSpec.linear(), espec, train).values)
    assert np.array_equal(diag, [embed_inner(espec, b, b) for b in train])
    assert np.array_equal(diag, gram._self_inners(espec, train, threads=2))
    assert np.array_equal(gram._self_inners(espec, test, threads=1)[[0, 4]], diag[[3, 0]])


def test_embed_inner_and_outer_eval_equal_gram_entries(case):
    espec, train, test = case
    inner = build_gram(OuterKernelSpec.linear(), espec, train).values
    for i, a in enumerate(train):
        for j, b in enumerate(train):
            assert embed_inner(espec, a, b) == inner[i, j]
    for kspec in outer_specs(train[5]):
        g = build_gram(kspec, espec, train).values
        cross = build_cross_gram(kspec, espec, test, train)
        for i in range(0, len(train), 3):
            for j, b in enumerate(train):
                assert outer_eval(kspec, espec, train[i], b) == g[i, j]
        for i, a in enumerate(test):
            for j, b in enumerate(train):
                assert outer_eval(kspec, espec, a, b) == cross[i, j]


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_reusing_fit_self_inners_equals_recomputing(case, threads, tmp_path):
    from dataclasses import replace

    from distreg import fit_coefficient, io, predict

    espec, train, test = case
    y = np.linspace(-1.0, 1.0, len(train))
    for kspec in outer_specs(train[5]):
        g = build_gram(kspec, espec, train, threads=threads)
        model, _ = fit_coefficient(g, y, 1e-3, train, kspec, espec)
        assert model.train_self_inners is g.self_inners is not None
        recomputed = replace(model, train_self_inners=None)
        reused = predict(model, test, threads=threads)
        assert np.array_equal(reused, predict(recomputed, test, threads=threads))
        io.save_model(model, tmp_path / "model.json")
        loaded = io.load_model(tmp_path / "model.json")
        assert np.array_equal(reused, predict(loaded, test, threads=threads))
