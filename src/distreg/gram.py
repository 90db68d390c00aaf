"""Training Gram matrices, test-vs-train cross blocks, and spectrum extraction.

Entries are outer-kernel values on empirical mean embeddings, with the row
bag always in the first kernel slot. Assembly reduces every entry to
embedding inner products, each an exact double sum by the one canonical
reduction, `embedding.pair_sums`: the bag with the smaller Bag._order_key
is first, and the value of a pair depends on its two bags alone. The Gram,
the cross-Gram (in either argument order), the self inner products,
`embed_inner` and `outer_eval` therefore agree bit for bit on every pair,
whatever the thread count or the chunk budget. Dense storage only.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .blas import serial_blas
from .embedding import Bag, EmbeddingKernelSpec, check_dims, embed_inner, pair_sums
from .embedding import kernel_matrix  # noqa: F401  (bench/spans.py wraps gram.kernel_matrix)
from .errors import InputError, NumericalError
from .outer import OuterKernelSpec, apply_outer

_SCALE_NOTE = (
    "singular values and eigenvalues are those of (1/m) * gram; empirical "
    "proxies for the integral-operator spectrum"
)

# Mean pointwise kernel evaluations per row task from which a thread pool
# gains. Measured on 2 cores, symmetric d=1 Gaussian Grams, 2 threads against
# one: tasks of 8e3-6.4e4 evaluations (1000 bags of 4 or 8 points, 500-800
# of 12 or 16) ran 7-65% slower; break-even lay between 8e4 and 1.3e5,
# depending on the bag size; 25 bags of 100 points (1.3e5 per task) ran
# 10-18% faster.
_POOL_MIN_EVALS = 100_000


def default_threads() -> int:
    """Thread count for Gram assembly: DISTREG_THREADS if set, else 1."""
    raw = os.environ.get("DISTREG_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def kernel_fingerprint(kspec: OuterKernelSpec, espec: EmbeddingKernelSpec) -> str:
    """Stable hash of the (outer, embedding) kernel pair, for provenance checks."""
    doc = json.dumps(
        {"outer": kspec.to_dict(), "embedding": espec.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            "Gram matrix has non-finite entries; the outer kernel's parameters "
            "are out of floating-point range for these embeddings"
        )


@dataclass(frozen=True)
class GramMatrix:
    """An m x m outer-kernel matrix plus provenance.

    The values must be finite: everything downstream (lambda selection, the
    solves, the spectrum) assumes it. `self_inners` are the bags' embedding
    self inner products when the matrix was built from bags, else None.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    kernel_fingerprint: str
    self_inners: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_finite(self.values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def square(self) -> bool:
        return self.values.shape[0] == self.values.shape[1]


@dataclass(frozen=True)
class SpectrumReport:
    """Descending spectrum of (1/m) * gram.

    `eigenvalues` is populated only when the matrix is numerically symmetric.
    """

    singular_values: np.ndarray
    eigenvalues: np.ndarray | None
    scale_note: str = _SCALE_NOTE


def _parallel_rows(fill: Callable[[int], None], n: int, threads: int, evals: int) -> None:
    """Call fill(i) for i in range(n); fill(i) owns row i and `evals` is the
    pointwise kernel evaluations of all n calls together.

    The calls go to a pool of `threads` threads only when they average at
    least _POOL_MIN_EVALS evaluations; smaller tasks run in a serial loop.
    """
    if threads > 1 and n > 1 and evals >= _POOL_MIN_EVALS * n:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(n)))
    else:
        for i in range(n):
            fill(i)


def _embedding_inners(
    espec: EmbeddingKernelSpec,
    row_bags: Sequence[Bag],
    col_bags: Sequence[Bag],
    threads: int,
    symmetric: bool,
) -> np.ndarray:
    """Embedding inner products <mu_r, mu_c> of every row bag with every column bag.

    Order keys are ranked once over both lists and the column bags packed once
    in rank order, so a row bag meets two runs: bags ranked below it (column
    bag first in the pair) and the rest (row bag first). Equal keys mean equal
    points, so ties may break either way. With `symmetric` (one list) only
    the second run is reduced and the rest is mirrored.
    """
    union = list(row_bags) if symmetric else [*row_bags, *col_bags]
    rank = np.argsort(sorted(range(len(union)), key=lambda k: union[k]._order_key()))
    row_rank, col_rank = rank[: len(row_bags)], rank[len(union) - len(col_bags) :]
    col_order = np.argsort(col_rank)
    cols = [col_bags[j] for j in col_order]
    points = np.concatenate([b.points for b in cols])
    bounds = np.cumsum([0] + [b.size for b in cols])
    splits = np.searchsorted(col_rank[col_order], row_rank)
    col_sizes = np.array([b.size for b in col_bags])
    inner = np.zeros((len(row_bags), len(col_bags)))

    def fill(i: int) -> None:
        row, split = row_bags[i], splits[i]
        if not symmetric:
            inner[i, col_order[:split]] = pair_sums(espec, row, points, bounds[: split + 1], False)
        inner[i, col_order[split:]] = pair_sums(espec, row, points, bounds[split:], True)
        inner[i] /= row.size * col_sizes

    # Row i reduces against every column point after its split point (all of
    # them unless symmetric).
    reach = bounds[-1] - (bounds[splits] if symmetric else 0)
    evals = int(np.sum(np.array([b.size for b in row_bags]) * reach))
    _parallel_rows(fill, len(row_bags), threads, evals)
    if symmetric:
        lower = row_rank[:, None] > col_rank[None, :]
        inner[lower] = inner.T[lower]
    return inner


def _self_inners(espec: EmbeddingKernelSpec, bags: Sequence[Bag], threads: int) -> np.ndarray:
    out = np.empty(len(bags))

    def fill(i: int) -> None:
        b = bags[i]
        out[i] = pair_sums(espec, b, b.points, np.array([0, b.size]), True)[0] / b.size**2

    _parallel_rows(fill, len(bags), threads, sum(b.size**2 for b in bags))
    return out


def _outer_block(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    row_bags: Sequence[Bag],
    col_bags: Sequence[Bag],
    threads: int | None,
    symmetric: bool = False,
    col_self: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outer-kernel block and the column bags' self inner products.

    `col_self`, when given, must be those self inner products; they are then
    not recomputed.
    """
    check_dims(espec, [*row_bags, *col_bags])
    threads = default_threads() if threads is None else max(1, threads)
    inner = _embedding_inners(espec, row_bags, col_bags, threads, symmetric)
    if symmetric:
        row_self = col_self = np.diag(inner).copy()
    else:
        row_self = _self_inners(espec, row_bags, threads)
        if col_self is None:
            col_self = _self_inners(espec, col_bags, threads)
    row_ref = None
    if kspec.family == "tilted_asymmetric":
        # Called through this module's name, which bench/spans.py wraps as the tilt.
        row_ref = np.array([embed_inner(espec, b, kspec.ref_bag) for b in row_bags])
    return apply_outer(kspec, inner, row_self, col_self, row_ref), col_self


def build_gram(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    bags: Sequence[Bag],
    threads: int | None = None,
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
    ids = tuple(b.id for b in bags)
    values, self_inners = _outer_block(kspec, espec, bags, bags, threads, symmetric=True)
    return GramMatrix(
        values=values,
        row_ids=ids,
        col_ids=ids,
        kernel_fingerprint=kernel_fingerprint(kspec, espec),
        self_inners=self_inners,
    )


def build_cross_gram(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    test_bags: Sequence[Bag],
    train_bags: Sequence[Bag],
    threads: int | None = None,
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


@serial_blas
def spectrum(g: GramMatrix, symmetry_tol: float = 1e-10) -> SpectrumReport:
    """Spectrum of (1/m) * gram: singular values, plus eigenvalues if symmetric."""
    if not g.square:
        raise InputError("spectrum requires a square Gram matrix")
    scaled = g.values / g.m
    singular = np.sort(scipy.linalg.svdvals(scaled))[::-1]
    eigenvalues = None
    if np.max(np.abs(g.values - g.values.T)) <= symmetry_tol:
        sym = 0.5 * (scaled + scaled.T)
        eigenvalues = np.sort(scipy.linalg.eigh(sym, eigvals_only=True))[::-1]
    return SpectrumReport(singular_values=singular, eigenvalues=eigenvalues)
