"""Bitwise invariance of embedding inner products across paths, chunking and threads.

Every embedding inner product goes through one canonical reduction, so the
value of a pair must not depend on which function computed it, the order of
its arguments, the chunk budget or the thread count. The bags are ragged
(1 to 150 points) so that chunk boundaries and pairwise-summation blocks
fall in different places for different paths; ids repeat, and some test bags
are training bags themselves or copies of them. A second case of ~120 mostly
tiny bags exercises row blocks of several bags and equal-segment sums. The
last tests check the CLI's output files across fresh processes and threads,
and the fit report's condition estimate across fresh processes.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from distreg import (
    Bag,
    EmbeddingKernelSpec,
    OuterKernelSpec,
    build_cross_gram,
    build_gram,
    embed_inner,
)
import distreg
from distreg import embedding, gram

from conftest import outer_eval, pair_inner

KERNEL_CASES = [("gaussian", 1), ("gaussian", 2), ("exponential", 2), ("cauchy", 1)]
# Chunk budgets, in kernel values: one that takes every case below in one
# chunk, the shipped tile, and budgets that cut its bags into several chunks.
BUDGETS = [8_000_000, embedding._CHUNK_BUDGET, 5000, 300, 1]


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
    for budget in BUDGETS:
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
            gram._self_inners(espec, test),
        )

    serial = run(2)
    assert pool_starts == []
    monkeypatch.setattr(gram, "_POOL_MIN_EVALS", 0)
    pooled = run(2)
    # Two pools for the Gram and two for the cross-Gram: inner products and
    # the tilt. Self inner products run serially.
    assert len(pool_starts) == 4
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


def tiny_bags():
    """About 120 bags, mostly runs of equal tiny bags (1 to 7 points), in rank
    order by id, plus a few ragged ones; ids repeat, and some test bags are
    training bags, copies of them, or rank between them."""
    rng = np.random.default_rng(4242)
    runs = [("a", 48, 4), ("b", 24, 2), ("c", 16, 7), ("d", 12, 1), ("e", 12, 3)]
    train = [
        Bag(f"{p}{i:03d}", rng.uniform(0.0, 1.0) + 0.3 * rng.normal(size=(n, 1)))
        for p, count, n in runs
        for i in range(count)
    ]
    train += [
        Bag("a010", rng.normal(size=(5, 1))),
        Bag("b005", rng.normal(size=(3, 1))),
        Bag("c007", rng.normal(size=(7, 1))),
        Bag("r", rng.normal(size=(13, 1))),
        Bag("r", rng.normal(size=(40, 1))),
        Bag("a0305", rng.normal(size=(9, 1))),
        Bag(train[100].id, train[100].points.copy()),
    ]
    test = [
        train[7],
        Bag(train[30].id, train[30].points.copy()),
        *[Bag(f"a{i:03d}5", rng.normal(size=(4, 1))) for i in range(0, 48, 3)],
        *[Bag(f"b{i:03d}", rng.normal(size=(2, 1))) for i in range(0, 24, 5)],
        Bag("c0125", rng.normal(size=(6, 1))),
        train[-2],
    ]
    return EmbeddingKernelSpec("gaussian", 0.3, 1), train, test


@pytest.fixture(scope="module")
def tiny_case():
    espec, train, test = tiny_bags()
    reference = (
        np.array([[pair_inner(espec, a, b) for b in train] for a in train]),
        np.array([[pair_inner(espec, a, b) for b in train] for a in test]),
    )
    return espec, train, test, reference


@pytest.mark.parametrize("min_evals", [gram._POOL_MIN_EVALS, 2000, 0], ids=lambda v: f"block{v}")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget", BUDGETS)
def test_row_blocks_of_tiny_bags_give_the_pairwise_bits(
    tiny_case, monkeypatch, budget, threads, min_evals
):
    # The reference is pair_inner, one bag pair at a time outside the block path.
    espec, train, test, (inner, cross) = tiny_case
    monkeypatch.setattr(embedding, "_CHUNK_BUDGET", budget)
    monkeypatch.setattr(gram, "_POOL_MIN_EVALS", min_evals)
    linear = OuterKernelSpec.linear()
    assert np.array_equal(build_gram(linear, espec, train, threads=threads).values, inner)
    assert np.array_equal(build_cross_gram(linear, espec, test, train, threads=threads), cross)
    assert np.array_equal(build_cross_gram(linear, espec, train, test, threads=threads), cross.T)


def test_tiny_bag_blocks_straddle_the_diagonal_and_the_band(tiny_case, monkeypatch):
    espec, train, test, _ = tiny_case
    calls = []

    def spy(spec, row_points, row_bounds, points, bounds, row_first, scratch):
        calls.append((len(row_bounds) - 1, len(bounds) - 1, row_first))
        return embedding.pair_sums(spec, row_points, row_bounds, points, bounds, row_first, scratch)

    monkeypatch.setattr(gram, "pair_sums", spy)
    monkeypatch.setattr(gram, "_POOL_MIN_EVALS", 4000)
    build_gram(OuterKernelSpec.linear(), espec, train)
    # A block of several rows holds the diagonal entries of all of them.
    assert sum(rows > 1 for rows, _, _ in calls) > 5
    calls.clear()
    build_cross_gram(OuterKernelSpec.linear(), espec, test, train)
    # A block's row-first and column-first calls overlap on a band of columns.
    bands = [
        rows > 1 and cols + prev[1] > len(train)
        for prev, (rows, cols, row_first) in zip(calls, calls[1:])
        if not row_first
    ]
    assert sum(bands) > 2


def test_tiny_bag_outer_values_equal_outer_eval(tiny_case):
    espec, train, test, _ = tiny_case
    for kspec in outer_specs(train[-3]):
        g = build_gram(kspec, espec, train).values
        cross = build_cross_gram(kspec, espec, test, train)
        for i in range(0, len(train), 11):
            for j in range(0, len(train), 3):
                assert outer_eval(kspec, espec, train[i], train[j]) == g[i, j]
        for i in range(0, len(test), 2):
            for j in range(0, len(train), 3):
                assert outer_eval(kspec, espec, test[i], train[j]) == cross[i, j]


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
    assert np.array_equal(diag, [pair_inner(espec, b, b) for b in train])
    assert np.array_equal(diag, gram._self_inners(espec, train))
    assert np.array_equal(gram._self_inners(espec, test)[[0, 4]], diag[[3, 0]])


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


def test_cli_outputs_do_not_depend_on_threads_across_processes(tmp_path):
    # generate, fit, predict, sweep and spectrum as fresh processes, 4 times at
    # --threads 1 and 4 times at --threads 2. Bags of 100 points put the Gram rows
    # and the cross-Gram rows of predict and of the sweep over the pool threshold,
    # so 2 threads start a pool. Of the fit report (`fit --json`) every field is
    # compared but the wall time, which varies by design; spectrum's `--json` line
    # (its fitted decay exponent among the fields) is compared whole.
    synth = {"scale": 0.1, "target": "linear_mean", "noise_sd": 0.05, "noise_bound": 2.0,
             "seed": 3}
    cfg, sweep_cfg = tmp_path / "config.json", tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "data": {"synth": {**synth, "dim": 2, "m": 30, "N": 100}},
        "embedding_kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 2},
        "outer_kernel": {"family": "gaussian_on_embedding", "sigma": 1.0},
        "lambda": {"grid": [1e-4, 1e-2, 1.0]},
        "seed": 7,
    }))
    sweep_cfg.write_text(json.dumps({
        "data": {"synth": {**synth, "dim": 1}},
        "embedding_kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
        "outer_kernel": {"family": "gaussian_on_embedding", "sigma": 1.0},
        "lambda": {"grid": [1e-4, 1e-2, 1.0]},
        "m": [10, 20, 30],
        "replications": 1,
        "n_max": 100,
        "seed": 7,
    }))
    src = str(Path(distreg.__file__).resolve().parents[1])
    names = ("bags.ndjson", "model.json", "preds.csv", "sweep/rates.csv", "sweep/summary.json",
             "spectrum/spectrum.csv", "spectrum/effective_dimension.csv")

    def run(index: int) -> list:
        threads, out = "12"[index // 4], tmp_path / f"run{index}"
        bags, model, preds = (out / name for name in names[:3])
        out.mkdir()
        for argv in (
            ["generate", "--config", cfg, "--out", bags],
            ["fit", "--config", cfg, "--out", model, "--threads", threads, "--json"],
            ["predict", "--model", model, "--bags", bags, "--out", preds, "--threads", threads],
            ["sweep", "--config", sweep_cfg, "--out", out / "sweep", "--threads", threads],
            ["spectrum", "--config", cfg, "--out", out / "spectrum", "--threads", threads,
             "--json"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "distreg", *map(str, argv)],
                capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            if argv[0] == "fit":
                report = json.loads(proc.stdout)
            if argv[0] == "spectrum":
                spectrum_line = proc.stdout
        assert set(report) == {"objective_value", "residual_norm", "condition_estimate", "wall_time"}
        assert set(json.loads(spectrum_line)) == {"alpha_hat", "m", "top_singular_value"}
        del report["wall_time"]
        return [(out / name).read_bytes() for name in names] + [report, spectrum_line]

    with ThreadPoolExecutor(max_workers=4) as pool:
        outputs = list(pool.map(run, range(8)))
    assert all(files == outputs[0] for files in outputs[1:])


# Fits the coefficient scheme on 1000 bags of 4 points, as the many_small_bags
# benchmark does, several times with differently sized objects allocated in
# between, and prints every condition estimate in hex. LAPACK's dpocon, the
# estimate before, gave two values here, within and between processes.
CONDITION_SCRIPT = """
from distreg import EmbeddingKernelSpec, OuterKernelSpec, build_gram, fit_coefficient, synth
meta = synth.MetaDistributionSpec(dim=1, scale=0.1, target="smooth_composite",
                                  noise_sd=0.05, noise_bound=2.0, seed=424242)
espec, kspec = EmbeddingKernelSpec("gaussian", 0.25, 1), OuterKernelSpec.gaussian(1.0)
train = synth.generate(meta, 1000, 4)
g = build_gram(kspec, espec, train.bags)
held = []
for k in range(8):
    held.append([bytes(8 * i + 8) for i in range(3 * k)])
    _, report = fit_coefficient(g, train.labels(), 1e-6, train.bags, kspec, espec)
    print(report.condition_estimate.hex())
"""


def test_condition_estimate_is_the_same_in_fresh_processes():
    src = str(Path(distreg.__file__).resolve().parents[1])

    def run(_):
        proc = subprocess.run(
            [sys.executable, "-c", CONDITION_SCRIPT],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    with ThreadPoolExecutor(max_workers=2) as pool:
        values = [v for out in pool.map(run, range(8)) for v in out]
    assert len(values) == 64 and len(set(values)) == 1, sorted(set(values))
