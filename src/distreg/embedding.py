"""Embedding kernels on the base space and the geometry of empirical mean embeddings.

A bag of points stands in for an unobserved distribution; its empirical mean
embedding is the average of kernel sections over the points. Inner products
and squared distances between embeddings reduce to double sums of pointwise
kernel values. The kernel and the one exact reduction of those sums
(`pair_sums`, no random-feature approximation) live here; `gram` assembles
every inner product from it.
Intended scale: up to a few hundred bags of up to a few hundred points each;
cost of one inner product is O(N_a * N_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, InputError, config_float, config_int, config_keys

# Kernel values in one tile of the double-sum reduction: 1 MiB of float64, so its
# numpy passes stay in a core's L2 (2 MiB on the 2-core Xeon measured, where 2^16
# ran ~20% slower on 200-bag Grams and 2^18 no faster). Tiles are views of a
# per-thread buffer: a fresh 1 MiB array each would be mmapped and faulted in.
# The dense m x m passes work in row chunks of as many values (`row_chunks`).
_CHUNK_BUDGET = 1 << 17

# Tile rows of at least this many values take the difference passes with numpy's
# smallest ufunc buffer (16): numpy 2.4 buffers a broadcast pass whose rows are
# shorter than its 8192-value buffer. On the 2-core Xeon a 100 x 1310 tile's pass
# cost 1.3-1.4 ns per value buffered, 0.3 ns not; rows of 28 values ran slower.
_UNBUFFERED_ROW = 64

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

    def to_dict(self) -> dict:
        return {"family": self.family, "bandwidth": self.bandwidth, "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingKernelSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"embedding kernel spec must be an object, got {d!r}")
        config_keys(d, ("family", "bandwidth", "dim"), "embedding kernel")
        try:
            bandwidth = config_float(d["bandwidth"], "embedding kernel 'bandwidth'")
            return cls(d["family"], bandwidth, config_int(d["dim"], "embedding kernel 'dim'", 1))
        except KeyError as exc:
            raise ConfigError(f"embedding kernel spec missing field {exc}") from exc


@dataclass(frozen=True)
class BagParams:
    """Generator provenance of a synthetic bag: enough to redraw its points."""

    theta: np.ndarray
    scale: float

    def to_dict(self) -> dict:
        return {"theta": [float(v) for v in np.atleast_1d(self.theta)], "s": self.scale}


def float_points(points) -> np.ndarray:
    """`points` as a C-ordered float64 array, by the one rule for bag points: a
    string or a boolean, which numpy would parse as a number, raises TypeError."""
    if isinstance(points, np.ndarray) and points.dtype.kind in "fiu":
        return np.array(points, dtype=np.float64, order="C")
    values = np.array(points, dtype=object)  # then one cast: faster than parsing to float64
    if any(issubclass(t, (str, bytes, bool, np.bool_)) for t in set(map(type, values.flat))):
        raise TypeError("values must be numbers, not strings or booleans")
    return values.astype(np.float64)


@dataclass(frozen=True)
class Bag:
    """One second-stage sample: an (N, d) point array plus an optional float label.

    `params` is present only for synthetically generated bags and records the
    distribution parameters, which makes noiseless targets recomputable.
    """

    id: str
    points: np.ndarray
    label: float | None = None
    params: BagParams | None = field(default=None, compare=False)

    def __post_init__(self):
        shape_error = f"bag {self.id!r}: points must be a nonempty (N, d) array of numbers"
        try:
            pts = float_points(self.points)
        except (TypeError, ValueError, OverflowError) as exc:  # strings, bools, ragged, huge ints
            raise InputError(shape_error) from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError(shape_error)
        if not np.isfinite(pts).all():
            raise InputError(f"bag {self.id!r}: points contain non-finite values")
        if self.label is not None:
            try:
                finite = math.isfinite(self.label)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"bag {self.id!r}: label is not a number") from exc
            if not finite:
                raise InputError(f"bag {self.id!r}: label is not finite")
            object.__setattr__(self, "label", float(self.label))
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


def kernel_matrix(spec: EmbeddingKernelSpec, s: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Pointwise kernel values k(s_i, t_j) as an (len(s), len(t)) matrix,
    written into `out` (C-contiguous, of that shape) when given.

    Squared distances are summed coordinate by coordinate, in the order and to
    the bits of scipy.spatial's squared Euclidean distance; one past the float
    range is inf, with kernel value 0. The kernel is evaluated in place, and
    k(s_i, t_j) == k(t_j, s_i) bitwise. Each family's constants are folded
    into one multiplier, so a value costs one multiply and no division
    before exp or reciprocal. The values are those of the two-pass form
    (x * -0.5 / bw**2, x / -bw, x / bw**2) bit for bit when bw**2 (for the
    exponential family, bw) is a power of two, since then the multiplier is
    exact; otherwise they can differ in the last bit.
    """
    s, t = np.ascontiguousarray(s.T), np.ascontiguousarray(t.T)  # one row per coordinate
    bufsize = np.setbufsize(16) if t.shape[1] >= _UNBUFFERED_ROW else None
    try:  # np.errstate scopes the buffer size only on numpy >= 2
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = np.subtract.outer(s[0], t[0], out=out)
            d2 *= d2
            for k in range(1, len(s)):
                diff = np.subtract.outer(s[k], t[k], out=None if k == 1 else diff)
                diff *= diff
                d2 += diff
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
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


def row_chunks(shape: tuple[int, int]) -> Iterator[slice]:
    """Slices of consecutive rows of an array of `shape`, each of one row or at most
    _CHUNK_BUDGET values."""
    step = max(1, _CHUNK_BUDGET // max(1, shape[1]))
    return (slice(a, a + step) for a in range(0, shape[0], step))


# Segments of at most this many values can be summed by strided adds: np.add.reduceat
# copies a segment's first value and adds the pairwise sum of the rest, and
# numpy's pairwise sum is a plain left-to-right loop below 8 values.
# tests/test_embedding.py::TestSegmentSums checks this against reduceat.
_STRIDED_MAX = 8


def segment_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """np.add.reduceat(x, starts, axis=-1) for increasing `starts` from 0, bit for bit.

    Several equal segments of at most _STRIDED_MAX values are summed as
    x0 + ((x1 + x2) + ...), one vectorized add per position: the reduceat
    order without its per-segment dispatch. Everything else goes to reduceat.
    """
    n, count = x.shape[-1], len(starts)
    size = n // count
    if count == 1 or size > _STRIDED_MAX or size * count != n or np.any(np.diff(starts) != size):
        return np.add.reduceat(x, starts, axis=-1)
    v = x.reshape(*x.shape[:-1], count, size)
    if size == 1:
        return v[..., 0].copy()
    rest = v[..., 1].copy()
    for k in range(2, size):
        rest += v[..., k]
    return np.add(v[..., 0], rest, out=rest)


def pair_sums(
    spec: EmbeddingKernelSpec,
    row_points: np.ndarray,
    row_bounds: np.ndarray,
    points: np.ndarray,
    bounds: np.ndarray,
    row_first: bool,
    scratch,
) -> np.ndarray:
    """Double sums of kernel values of each bag of a packed row run against each
    bag of a packed column run, as a (rows, columns) array.

    Row bag r is row_points[row_bounds[r]:row_bounds[r + 1]] (row_bounds[0] is
    0), column bag c is points[bounds[c]:bounds[c + 1]]. The one reduction
    behind every embedding inner product: for a pair (first, second), the
    values of each point of `first` against `second` are summed, then those
    sums in the point order of `first`, both as `segment_sums` segments, whose
    value depends on the segment alone. `row_first` puts the row bags first in
    every pair; callers set it by Bag._order_key, so a pair's sum is fixed by
    its two bags, whatever the argument order, the rest of either run,
    chunking or threads. Kernel tiles are views of one buffer per thread, kept
    on the `scratch` threading.local.
    """
    row_starts = row_bounds[:-1]
    out = np.empty((len(row_starts), len(bounds) - 1))
    cap = max(1, _CHUNK_BUDGET // len(row_points))
    start, end = 0, out.shape[1]
    while start < end:
        # Whole bags only: as many as the budget holds, and at least one.
        stop = end
        if bounds[end] - bounds[start] > cap:
            stop = max(start + 1, int(bounds.searchsorted(bounds[start] + cap, "right")) - 1)
        lo, hi = bounds[start], bounds[stop]
        pair = [(row_points, row_starts), (points[lo:hi], bounds[start:stop] - lo)]
        (first, first_starts), (second, second_starts) = pair if row_first else pair[::-1]
        per_point = np.empty((len(second_starts), len(first)))
        # Points of `first` in slices that fit one tile; a point's sums are its own.
        for part in row_chunks((len(first), len(second))):
            size, tile = len(first[part]) * len(second), None
            if size <= _CHUNK_BUDGET:
                if not hasattr(scratch, "tile"):
                    scratch.tile = np.empty(_CHUNK_BUDGET)
                tile = scratch.tile[:size].reshape(-1, len(second))
            kmat = kernel_matrix(spec, first[part], second, tile)
            per_point[:, part] = segment_sums(kmat, second_starts).T
            del kmat  # a fresh array (a column bag past the budget) is freed before the next one
        sums = segment_sums(per_point, first_starts)
        out[:, start:stop] = sums.T if row_first else sums
        start = stop
    return out

