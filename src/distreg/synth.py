"""Synthetic two-stage data with a known regression function.

First stage: per-bag means theta_i drawn uniformly from [0.2, 0.8]^d and a
label y_i = f(theta_i, s) + truncated noise. Second stage: N points per bag
from a Gaussian N(theta_i, s^2 I) truncated to [0,1]^d by rejection. The
target map f is closed-form in the bag parameters, so noiseless targets are
recomputable exactly and excess error can be Monte Carlo estimated.

Bag i's points come from stream i, spawned off the master seed, so they do
not depend on m, and the same seed at another N redraws the second stage of
the same bags: thetas, labels and targets stay. Each bag's first rejection
batch is drawn from its stream; the batches of a group of bags are scaled,
shifted and screened to [0,1]^d as one array, and only a bag with too few
accepted points redraws alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Bag, BagParams
from .errors import ConfigError, InputError, NumericalError, config_float, config_int, config_keys

THETA_LOW, THETA_HIGH = 0.2, 0.8

# Rejection-sampling attempt budget per requested point.
_REJECTION_CAP = 1_000_000
# Draws per group of bags in the batched second stage: 64 KiB of float64, under
# glibc's 128 KiB mmap threshold (64 MB groups raised rate_sweep's peak RSS 0.8 MB).
_GROUP_DRAWS = 8192


def _linear_mean(theta: np.ndarray, s: float) -> np.ndarray:
    return np.mean(theta, axis=-1)


def _quadratic_mean(theta: np.ndarray, s: float) -> np.ndarray:
    return np.mean(theta**2, axis=-1)


def _mean_plus_variance(theta: np.ndarray, s: float) -> np.ndarray:
    return np.mean(theta, axis=-1) + s**2


def _smooth_composite(theta: np.ndarray, s: float) -> np.ndarray:
    # float_power is libm pow, as Python's float ** is; x * x can differ in the last bit
    tbar = np.mean(theta, axis=-1)
    return np.exp(-np.float_power(tbar - 0.5, 2.0) / (2 * 0.15**2))


# Closed-form regression functions of the bag parameters, one theta per row.
TARGETS = {
    "linear_mean": _linear_mean,
    "quadratic_mean": _quadratic_mean,
    "mean_plus_variance": _mean_plus_variance,
    "smooth_composite": _smooth_composite,
}


@dataclass(frozen=True)
class MetaDistributionSpec:
    """Meta-distribution over bags: truncated Gaussians with uniform means."""

    dim: int
    scale: float
    target: str
    noise_sd: float
    noise_bound: float
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if not self.noise_bound > 0:
            raise ConfigError(f"noise_bound must be positive, got {self.noise_bound}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.target not in TARGETS:
            raise ConfigError(
                f"unknown target family {self.target!r}; expected one of {tuple(TARGETS)}"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "MetaDistributionSpec":
        config_keys(d, ("dim", "scale", "target", "noise_sd", "noise_bound", "seed"), "synthetic")
        try:
            return cls(
                dim=config_int(d["dim"], "synthetic 'dim'", 1),
                scale=config_float(d["scale"], "synthetic 'scale'"),
                target=str(d["target"]),
                noise_sd=config_float(d.get("noise_sd", 0.0), "synthetic 'noise_sd'"),
                noise_bound=config_float(d.get("noise_bound", 2.0), "synthetic 'noise_bound'"),
                seed=config_int(d["seed"], "synthetic 'seed'", 0),
            )
        except KeyError as exc:
            raise ConfigError(f"synthetic spec missing field {exc}") from exc


@dataclass(frozen=True)
class TwoStageDataset:
    """Generated bags with labels, plus the noiseless targets they came from."""

    bags: tuple[Bag, ...]
    targets: np.ndarray
    meta: MetaDistributionSpec

    def labels(self) -> np.ndarray:
        return np.array([b.label for b in self.bags], dtype=np.float64)

    def with_targets(self) -> list[tuple[Bag, float]]:
        return list(zip(self.bags, self.targets.tolist()))


def _meta_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


def _bag_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, index)))


def _draw_truncated_points(
    rng: np.random.Generator, theta: np.ndarray, scale: float, n: int
) -> np.ndarray:
    """Rejection-sample n points of N(theta, scale^2 I) restricted to [0,1]^d."""
    d = theta.shape[0]
    out = np.empty((n, d))
    filled = 0
    attempts = 0
    while filled < n:
        want = n - filled
        batch = rng.normal(loc=theta, scale=scale, size=(max(2 * want, 32), d))
        good = batch[np.all((batch >= 0.0) & (batch <= 1.0), axis=1)]
        take = min(want, good.shape[0])
        out[filled : filled + take] = good[:take]
        filled += take
        attempts += batch.shape[0]
        if attempts > _REJECTION_CAP * n:
            raise NumericalError(
                f"rejection sampling exceeded {_REJECTION_CAP} attempts per point "
                f"(theta={theta}, scale={scale})"
            )
    return out


def _truncated_label(
    rng: np.random.Generator, target: float, noise_sd: float, bound: float
) -> float:
    if abs(target) > bound:
        raise ConfigError(
            f"noiseless target {target} already exceeds the label bound {bound}"
        )
    if noise_sd == 0.0:
        return target
    for _ in range(_REJECTION_CAP):
        y = target + rng.normal(0.0, noise_sd)
        if abs(y) <= bound:
            return float(y)
    raise NumericalError("label noise rejection cap exceeded")


def _draw_bags(seed: int, thetas: np.ndarray, scale: float, n: int) -> np.ndarray:
    """n points for each bag i of thetas[i], as an (m, n, d) array.

    Bit for bit _draw_truncated_points(_bag_rng(seed, i), thetas[i], scale, n):
    theta + scale * z is rng.normal(theta, scale) and the first n accepted rows
    are kept in draw order. Groups of bags hold at most _GROUP_DRAWS draws.
    """
    (m, d), batch = thetas.shape, max(2 * n, 32)
    streams = np.random.SeedSequence(entropy=seed, spawn_key=(1,)).spawn(m)
    out = np.empty((m, n, d))
    group = max(1, _GROUP_DRAWS // (batch * d))
    for lo in range(0, m, group):
        z = np.empty((min(group, m - lo), batch, d))
        for stream, rows in zip(streams[lo : lo + group], z):
            np.random.default_rng(stream).standard_normal(out=rows)
        z *= scale
        z += thetas[lo : lo + group, None, :]
        accepted = ((z >= 0.0) & (z <= 1.0)).all(axis=2)
        rank = accepted.cumsum(axis=1)
        full = rank[:, -1] >= n
        out[lo : lo + len(z)][full] = z[accepted & (rank <= n) & full[:, None]].reshape(-1, n, d)
        for i in lo + np.flatnonzero(~full):
            out[i] = _draw_truncated_points(_bag_rng(seed, i), thetas[i], scale, n)
    return out


def generate(meta: MetaDistributionSpec, m: int, n_points: int) -> TwoStageDataset:
    """Draw m bags of n_points each; labels carry truncated noise.

    Fully reproducible from meta.seed: the same spec yields bitwise-identical
    datasets.
    """
    if m < 1 or n_points < 1:
        raise InputError(f"need m >= 1 and N >= 1, got m={m}, N={n_points}")
    if m * n_points * meta.dim > np.iinfo(np.intp).max // 8:
        raise ConfigError("synthetic m * N * dim is past the largest float64 array")
    meta_rng = _meta_rng(meta.seed)
    thetas = meta_rng.uniform(THETA_LOW, THETA_HIGH, size=(m, meta.dim))
    targets = TARGETS[meta.target](thetas, meta.scale)
    labels = [
        _truncated_label(meta_rng, t, meta.noise_sd, meta.noise_bound) for t in targets.tolist()
    ]
    points = _draw_bags(meta.seed, thetas, meta.scale, n_points)
    bags = tuple(
        Bag(f"bag-{i:04d}", points[i], labels[i], BagParams(thetas[i].copy(), meta.scale))
        for i in range(m)
    )
    return TwoStageDataset(bags=bags, targets=targets, meta=meta)

