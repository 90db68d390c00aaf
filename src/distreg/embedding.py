"""Embedding kernels on the base space and the geometry of empirical mean embeddings.

A bag of points stands in for an unobserved distribution; its empirical mean
embedding is the average of kernel sections over the points. Inner products
and squared distances between embeddings reduce to double sums of pointwise
kernel values, computed here exactly (no random-feature approximation).
Intended scale: up to a few hundred bags of up to a few hundred points each;
cost of one inner product is O(N_a * N_b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, InputError

# All supported families take the value 1 at zero distance, so the embedding
# kernel bound is a shared constant.
KERNEL_BOUND = 1.0

# Upper bound on the number of pointwise kernel values held in memory by one
# chunk of the double-sum reduction (~64 MB of float64).
_CHUNK_BUDGET = 8_000_000

# Holder exponent of the feature map s -> k(., s) in the embedding norm,
# per family: ||k(.,s) - k(.,t)||^2 = 2 - 2 k(s,t).
HOLDER_EXPONENT = {
    "gaussian": 1.0,
    "exponential": 0.5,
    "cauchy": 1.0,
}

EMBEDDING_FAMILIES = tuple(HOLDER_EXPONENT)


@dataclass(frozen=True)
class EmbeddingKernelSpec:
    """Base-space kernel: family, length scale, and point dimension.

    Families: gaussian exp(-d^2 / (2 bw^2)), exponential exp(-d / bw),
    cauchy 1 / (1 + d^2 / bw^2), with d the Euclidean distance. All are
    bounded by 1 and Holder continuous in embedding norm.
    """

    family: str
    bandwidth: float
    dim: int

    def __post_init__(self):
        if self.family not in EMBEDDING_FAMILIES:
            raise ConfigError(
                f"unknown embedding kernel family {self.family!r}; "
                f"expected one of {EMBEDDING_FAMILIES}"
            )
        if not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")

    @property
    def holder_exponent(self) -> float:
        return HOLDER_EXPONENT[self.family]

    def to_dict(self) -> dict:
        return {"family": self.family, "bandwidth": self.bandwidth, "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingKernelSpec":
        try:
            return cls(family=d["family"], bandwidth=float(d["bandwidth"]), dim=int(d["dim"]))
        except KeyError as exc:
            raise ConfigError(f"embedding kernel spec missing field {exc}") from exc


@dataclass(frozen=True)
class BagParams:
    """Generator provenance of a synthetic bag: enough to redraw its points."""

    theta: np.ndarray
    scale: float

    def to_dict(self) -> dict:
        return {"theta": [float(v) for v in np.atleast_1d(self.theta)], "s": self.scale}


@dataclass(frozen=True)
class Bag:
    """One second-stage sample: an (N, d) point array plus an optional label.

    `params` is present only for synthetically generated bags and records the
    distribution parameters, which makes noiseless targets recomputable and
    second-stage resampling possible.
    """

    id: str
    points: np.ndarray
    label: float | None = None
    params: BagParams | None = field(default=None, compare=False)

    def __post_init__(self):
        shape_error = f"bag {self.id!r}: points must be a nonempty (N, d) array of numbers"
        try:
            pts = np.array(self.points, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:  # ragged rows, strings, objects
            raise InputError(shape_error) from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError(shape_error)
        if not np.all(np.isfinite(pts)):
            raise InputError(f"bag {self.id!r}: points contain non-finite values")
        if self.label is not None:
            try:
                finite = bool(np.isfinite(self.label))
            except (TypeError, ValueError) as exc:
                raise InputError(f"bag {self.id!r}: label {self.label!r} is not a number") from exc
            if not finite:
                raise InputError(f"bag {self.id!r}: label is not finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _order_key(self) -> tuple:
        # Canonical ordering key for symmetric double sums.
        return (self.id, self.points.shape, self.points.tobytes())


def check_dims(spec: EmbeddingKernelSpec, bags: Iterable[Bag]) -> None:
    for b in bags:
        if b.dim != spec.dim:
            raise InputError(f"bag {b.id!r} has dimension {b.dim}, kernel expects {spec.dim}")


def kernel_matrix(spec: EmbeddingKernelSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pointwise kernel values k(s_i, t_j) as an (len(s), len(t)) matrix.

    Evaluated in place on the squared distances; k(s_i, t_j) == k(t_j, s_i) bitwise.
    Each family's constants are folded into one multiplier, so a value costs
    one multiply and no division before exp or reciprocal. The values are
    those of the two-pass form (x * -0.5 / bw**2, x / -bw, x / bw**2) bit for
    bit when bw**2 (for the exponential family, bw) is a power of two, since
    then the multiplier is exact; otherwise they can differ in the last bit.
    """
    if s.shape[1] == 1:
        d2 = np.subtract.outer(s[:, 0], t[:, 0])
        d2 *= d2
    else:
        d2 = cdist(s, t, "sqeuclidean")
    if spec.family == "gaussian":
        d2 *= -0.5 / spec.bandwidth**2
    elif spec.family == "exponential":
        np.sqrt(d2, out=d2)
        d2 *= -1.0 / spec.bandwidth
    else:  # cauchy
        d2 *= 1.0 / spec.bandwidth**2
        d2 += 1.0
        return np.reciprocal(d2, out=d2)
    return np.exp(d2, out=d2)


def kernel_eval(spec: EmbeddingKernelSpec, s: np.ndarray, t: np.ndarray) -> float:
    """Evaluate k(s, t) for two points of dimension spec.dim."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if s.shape[0] != spec.dim or t.shape[0] != spec.dim:
        raise InputError(
            f"points of dimension {s.shape[0]}/{t.shape[0]} incompatible with dim={spec.dim}"
        )
    return float(kernel_matrix(spec, s[None, :], t[None, :])[0, 0])


def pair_sums(
    spec: EmbeddingKernelSpec, row: Bag, points: np.ndarray, bounds: np.ndarray, row_first: bool
) -> np.ndarray:
    """Double sums of kernel values of `row` against each bag of a packed run.

    Bag c of the run is points[bounds[c]:bounds[c + 1]]. The one reduction
    behind every embedding inner product: for a pair (first, second), the
    values of each point of `first` against `second` are summed, then those
    sums in the point order of `first`, both as np.add.reduceat segments along
    a last axis, whose value depends on the segment alone. Callers set
    `row_first` by Bag._order_key, so a pair's sum is fixed by its two bags,
    whatever the argument order, the rest of the run, chunking or threads.
    """
    out = np.empty(len(bounds) - 1)
    cap = max(1, _CHUNK_BUDGET // row.size)
    start = 0
    while start < len(out):
        # Whole bags only: as many as the budget holds, and at least one.
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + cap, "right")) - 1)
        lo, hi = bounds[start], bounds[stop]
        offsets = bounds[start:stop] - lo
        if row_first:
            kmat = kernel_matrix(spec, row.points, points[lo:hi])
            per_point = np.add.reduceat(kmat, offsets, axis=1).T.copy()
            out[start:stop] = np.add.reduceat(per_point, [0], axis=1)[:, 0]
        else:
            kmat = kernel_matrix(spec, points[lo:hi], row.points)
            per_point = np.add.reduceat(kmat, [0], axis=1).ravel()
            out[start:stop] = np.add.reduceat(per_point, offsets)
        start = stop
    return out


def embed_inner(spec: EmbeddingKernelSpec, a: Bag, b: Bag) -> float:
    """Inner product of the empirical mean embeddings of two bags.

    <mu_a, mu_b> = (1/(N_a N_b)) sum_i sum_j k(a_i, b_j), by `pair_sums` on a
    one-bag run with the smaller Bag._order_key first. So embed_inner(a, b)
    and embed_inner(b, a) agree bit for bit, and equal the Gram entries.
    """
    check_dims(spec, (a, b))
    row_first = a._order_key() <= b._order_key()
    total = pair_sums(spec, a, b.points, np.array([0, b.size]), row_first)[0]
    return float(total) / (a.size * b.size)


def embed_sq_dist(spec: EmbeddingKernelSpec, a: Bag, b: Bag) -> float:
    """Squared embedding distance ||mu_a - mu_b||^2, clamped at zero.

    Expanded as <a,a> + <b,b> - 2<a,b>; roundoff can push the expansion a few
    ulp below zero, hence the clamp.
    """
    d2 = embed_inner(spec, a, a) + embed_inner(spec, b, b) - 2.0 * embed_inner(spec, a, b)
    return max(d2, 0.0)
