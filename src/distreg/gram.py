"""Training Gram matrices, test-vs-train cross blocks, embedding inner products
and the Gram spectrum.

Entries are outer-kernel values on empirical mean embeddings, with the row
bag always in the first kernel slot. Assembly reduces every entry to
embedding inner products, each an exact double sum by the one canonical
reduction, `embedding.pair_sums`: the bag with the smaller Bag._order_key
is first, and the value of a pair depends on its two bags alone. Cross
inner products have one route, `_embedding_inners`: the Gram, the
cross-Gram, the tilt against the reference bag and `embed_inner` (its 1 x 1
block) all go through it, and a cross-Gram's self inner products through
`_self_inners`, small bags a run at a time. Row bags are reduced in blocks
of consecutive bags in rank order, each block against a packed run of
column bags in one call per direction, so a Gram of many small bags costs a
few kernel blocks rather than one per row. All of these agree bit for bit
on every pair, whatever the block, the thread count or the chunk budget.
Dense storage only.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

try:  # CPython's own SHA-256: hashlib would also map OpenSSL's libcrypto (~3.6 MB)
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .blas import serial_blas
from .embedding import Bag, EmbeddingKernelSpec, bag_runs, check_dims, pair_sums, row_chunks
from .embedding import kernel_matrix  # noqa: F401  (bench/spans.py wraps gram.kernel_matrix)
from .errors import ConfigError, InputError, NumericalError
from .outer import OuterKernelSpec, apply_outer

# Pointwise kernel evaluations that make a row block, and the mean per row bag
# from which a thread pool gains. A block of consecutive row bags holds at most
# this many, or one row bag that passes it alone (a run of `bag_runs`), so bags
# of a few points share one kernel block and one reduction. The pool rule is
# per row bag, as measured on 2 cores, symmetric d=1 Gaussian Grams,
# 2 threads against one, with one row bag per task: tasks of 8e3-6.4e4
# evaluations (1000 bags of 4 or 8 points, 500-800 of 12 or 16) ran 7-65%
# slower; break-even lay between 8e4 and 1.3e5, depending on the bag size; 25
# bags of 100 points (1.3e5 per task) ran 10-18% faster. Blocks of tiny bags
# stay serial: pooling them measured no faster.
_POOL_MIN_EVALS = 100_000

# Points of consecutive bags whose self inner products are the diagonal of one
# `pair_sums` call: 16 bags of 4 points cost one call and 4096 evaluations, not 16 and 256.
_SELF_RUN_POINTS = 64


def kernel_fingerprint(kspec: OuterKernelSpec, espec: EmbeddingKernelSpec) -> str:
    """Stable hash of the (outer, embedding) kernel pair, for provenance checks."""
    doc = json.dumps(
        {"outer": kspec.to_dict(), "embedding": espec.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256(doc.encode()).hexdigest()[:16]


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            "Gram matrix has non-finite entries; the outer kernel's parameters "
            "are out of floating-point range for these embeddings"
        )


@dataclass(frozen=True)
class GramMatrix:
    """An m x m outer-kernel matrix over the bags named by `ids`, in that order.

    The values must be finite: everything downstream (lambda selection, the
    solves, the spectrum) assumes it. `self_inners` are the bags' embedding
    self inner products when the matrix was built from bags, else None.
    """

    values: np.ndarray
    ids: tuple[str, ...]
    self_inners: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.values.shape != (len(self.ids),) * 2:
            raise InputError(
                f"Gram matrix of shape {self.values.shape} does not match {len(self.ids)} bag ids"
            )
        _check_finite(self.values)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def _pool(fill: Callable, tasks: Iterator, workers: int) -> None:
    """Call fill(t) for every t of `tasks` on `workers` threads that share the
    iterator. Once a call has failed no worker starts another, and the first
    error is raised once all have stopped."""
    errors = []

    def work() -> None:
        try:
            for t in tasks:
                if errors:
                    return
                fill(t)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    pool = [threading.Thread(target=work) for _ in range(workers)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads}")


def _pack(bags: Sequence[Bag]) -> tuple[np.ndarray, np.ndarray]:
    """The bags' points, concatenated, and the bounds of each bag in them."""
    return np.concatenate([b.points for b in bags]), np.cumsum([0] + [b.size for b in bags])


def _embedding_inners(
    espec: EmbeddingKernelSpec,
    row_bags: Sequence[Bag],
    col_bags: Sequence[Bag],
    threads: int,
    symmetric: bool,
) -> np.ndarray:
    """Embedding inner products <mu_r, mu_c> of every row bag with every column bag.

    Order keys are ranked once over both lists, and both lists packed once in
    rank order; the result is assembled in that order and put back in the
    callers' order at the end, unless it already is. Each row bag splits the
    column run into the bags ranked below it (column bag first in the pair)
    and the rest (row bag first). Equal keys mean equal points, so ties may
    break either way. Rows are reduced in blocks of consecutive row bags (runs
    of `bag_runs` over their evaluations), each against the column bags in one
    `pair_sums` call per direction: a cross block from its first row's split on
    with rows first, and up to its last row's split with columns first, each
    entry taken from the direction its pair prescribes. With `symmetric` (one
    list) a block reduces only from its first rank on, and once every block is
    done the strict lower triangle is mirrored from the upper one. Blocks only
    reduce; the sums are divided by the bag sizes once at the end. All of it
    works in place: the result is the one array of its shape this makes.
    """
    union = list(row_bags) if symmetric else [*row_bags, *col_bags]
    rank = np.argsort(sorted(range(len(union)), key=lambda k: union[k]._order_key()))
    row_rank, col_rank = rank[: len(row_bags)], rank[len(union) - len(col_bags) :]
    row_order, col_order = np.argsort(row_rank), np.argsort(col_rank)
    row_points, row_bounds = _pack([row_bags[i] for i in row_order])
    points, bounds = (
        (row_points, row_bounds) if symmetric else _pack([col_bags[j] for j in col_order])
    )
    splits = np.searchsorted(col_rank[col_order], row_rank[row_order])
    row_sizes, col_sizes = np.diff(row_bounds), np.diff(bounds)
    inner = np.empty((len(row_sizes), len(col_sizes)))
    scratch = threading.local()  # one kernel tile mapping per thread, unmapped on return

    def fill(block: tuple[int, int]) -> None:
        a, b = block
        lo, hi = splits[a], splits[b - 1]
        run = row_points[row_bounds[a] : row_bounds[b]], row_bounds[a : b + 1] - row_bounds[a]
        out = inner[a:b]
        out[:, lo:] = pair_sums(espec, *run, points, bounds[lo:], True, scratch)
        if not symmetric and hi > 0:
            col_first = pair_sums(espec, *run, points, bounds[: hi + 1], False, scratch)
            out[:, :lo] = col_first[:, :lo]
            band = np.arange(lo, hi) < splits[a:b, None]
            np.copyto(out[:, lo:hi], col_first[:, lo:], where=band)

    # Row k reduces against every column point after its split point (all of
    # them unless symmetric).
    reach = bounds[-1] - (bounds[splits] if symmetric else 0)
    row_evals = row_sizes * reach
    blocks = list(bag_runs(np.concatenate(([0], np.cumsum(row_evals))), _POOL_MIN_EVALS))
    # A pool only when the row bags average at least _POOL_MIN_EVALS evaluations.
    if threads > 1 and len(blocks) > 1 and row_evals.sum() >= _POOL_MIN_EVALS * len(row_sizes):
        _pool(fill, iter(blocks), min(threads, len(blocks)))
    else:
        for block in blocks:
            fill(block)
    if symmetric:
        mirror_upper(inner)
    # N_r * N_c is an exact integer, so a mirrored sum divides to the same bits.
    for rows in row_chunks(inner.shape):
        inner[rows] /= row_sizes[rows, None] * col_sizes
    if not all(np.array_equal(order, np.arange(len(order))) for order in (row_order, col_order)):
        _reorder(inner, np.argsort(row_order), np.argsort(col_order))
    return inner


def mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of the square `a` onto its lower one, in place."""
    for k in range(1, len(a)):
        a[k, :k] = a[:k, k]


def _reorder(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """a[:] = a[np.ix_(rows, cols)] in place, walking each cycle of `rows` with one row aside."""
    rows, done = rows.tolist(), [False] * len(rows)
    for start in range(len(rows)):
        i, held = start, None if done[start] else a[start].copy()
        while not done[i]:
            done[i], src = True, rows[i]
            a[i] = (held if src == start else a[src])[cols]
            i = src


def _self_inners(espec: EmbeddingKernelSpec, bags: Sequence[Bag]) -> np.ndarray:
    """<mu_b, mu_b> per bag, runs of bags of at most _SELF_RUN_POINTS points in all
    from the diagonal of one `pair_sums` call (a pair's sum is its two bags' alone)."""
    out = np.empty(len(bags))
    scratch = threading.local()  # one kernel tile mapping, unmapped on return
    for a, b in bag_runs(np.cumsum([0] + [bag.size for bag in bags]), _SELF_RUN_POINTS):
        points, bounds = _pack(bags[a:b])
        sums = pair_sums(espec, points, bounds, points, bounds, True, scratch)
        out[a:b] = np.diagonal(sums) / np.diff(bounds) ** 2
    return out


def _outer_block(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    row_bags: Sequence[Bag],
    col_bags: Sequence[Bag],
    threads: int,
    symmetric: bool = False,
    col_self: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outer-kernel block and the column bags' self inner products.

    `col_self`, when given, must be those self inner products; they are then
    not recomputed.
    """
    refs = [kspec.ref_bag] if kspec.family == "tilted_asymmetric" else []
    check_dims(espec, [*row_bags, *col_bags, *refs])
    check_threads(threads)
    inner = _embedding_inners(espec, row_bags, col_bags, threads, symmetric)
    if symmetric:
        row_self = col_self = np.diag(inner).copy()
    else:
        row_self = _self_inners(espec, row_bags)
        if col_self is None:
            col_self = _self_inners(espec, col_bags)
    row_ref = _embedding_inners(espec, row_bags, refs, threads, False)[:, 0] if refs else None
    return apply_outer(kspec, inner, row_self, col_self, row_ref), col_self


def build_gram(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    bags: Sequence[Bag],
    threads: int = 1,
) -> GramMatrix:
    """Assemble the m x m training Gram matrix K(mu_i, mu_j).

    Embedding inner products are reduced once per unordered pair and
    mirrored, so for symmetric outer kernels the result is exactly symmetric.
    It equals build_cross_gram(bags, bags) bit for bit. The self inner
    products (the inner-product diagonal) are kept as `self_inners`. Raises
    NumericalError if an entry is not finite.
    """
    if len(bags) < 1:
        raise InputError("build_gram needs at least one bag")
    values, self_inners = _outer_block(kspec, espec, bags, bags, threads, symmetric=True)
    return GramMatrix(values, tuple(b.id for b in bags), self_inners)


def build_cross_gram(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    test_bags: Sequence[Bag],
    train_bags: Sequence[Bag],
    threads: int = 1,
    train_self_inners: np.ndarray | None = None,
) -> np.ndarray:
    """Test-vs-train block K(mu_test_t, mu_train_i), test embedding first.

    For asymmetric kernels the argument order matters and is test-first,
    matching the prediction formula. `train_self_inners`, if given, are the
    training bags' self inner products (a GramMatrix's `self_inners`), which
    are then not recomputed; the result is the same bit for bit. Raises
    NumericalError if an entry is not finite.
    """
    if len(test_bags) < 1 or len(train_bags) < 1:
        raise InputError("build_cross_gram needs nonempty bag lists")
    values, _ = _outer_block(
        kspec, espec, test_bags, train_bags, threads, col_self=train_self_inners
    )
    _check_finite(values)
    return values


def check_dims_before_work(kspec: OuterKernelSpec, espec: EmbeddingKernelSpec, dim) -> None:
    """Raise ConfigError, before any bag is read or drawn, if synthetic bags of `dim` (None
    for a file) or the tilt's reference bag, both config values, differ from the kernel's."""
    if dim is not None and dim != espec.dim:
        raise ConfigError(f"synthetic bags have dimension {dim}, kernel expects {espec.dim}")
    ref = kspec.ref_bag
    if ref is not None and ref.dim != espec.dim:
        raise ConfigError(f"bag {ref.id!r} has dimension {ref.dim}, kernel expects {espec.dim}")


def embed_inner(espec: EmbeddingKernelSpec, a: Bag, b: Bag) -> float:
    """Inner product <mu_a, mu_b> = (1/(N_a N_b)) sum_i sum_j k(a_i, b_j) of two bags'
    empirical mean embeddings, as the 1 x 1 block of `_embedding_inners`: it equals
    embed_inner(b, a) and the Gram entries bit for bit."""
    check_dims(espec, (a, b))
    return float(_embedding_inners(espec, [a], [b], 1, False)[0, 0])


@serial_blas
def spectrum(g: GramMatrix) -> np.ndarray:
    """Descending singular values of (1/m) * gram: empirical proxies for the
    spectrum of the integral operator, which may be indefinite or asymmetric.
    numpy's svd calls LAPACK's dgesdd in numpy's own library with the arguments
    scipy's svdvals passes: same bits. NumericalError if it does not converge."""
    try:
        return np.linalg.svd(g.values / g.m, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD of the Gram matrix failed: {err}") from None
