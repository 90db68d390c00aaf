"""Synthetic two-stage data with a known regression function.

First stage: per-bag means theta_i drawn uniformly from [0.2, 0.8]^d and a
label y_i = f(theta_i, s) + truncated noise. Second stage: N points per bag
from a Gaussian N(theta_i, s^2 I) truncated to [0,1]^d by rejection. The
target map f is closed-form in the bag parameters, so noiseless targets are
recomputable exactly and excess error can be Monte Carlo estimated.

Per-bag point streams are split off the master seed, so bags can be generated
in parallel (or resampled later) with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .embedding import Bag, BagParams
from .errors import ConfigError, InputError, NumericalError, config_float, config_int, config_keys

THETA_LOW, THETA_HIGH = 0.2, 0.8

# Rejection-sampling attempt budget per requested point.
_REJECTION_CAP = 1_000_000


@dataclass(frozen=True)
class SyntheticTarget:
    """A closed-form regression function of the bag parameters.

    `smoothness_rank` orders the families qualitatively (higher = smoother);
    the saturation experiment climbs this ladder instead of controlling the
    source-condition index directly, which is not identifiable here.
    """

    name: str
    fn: Callable[[np.ndarray, float], float]
    smoothness_rank: int


def _linear_mean(theta: np.ndarray, s: float) -> float:
    return float(np.mean(theta))


def _quadratic_mean(theta: np.ndarray, s: float) -> float:
    return float(np.mean(theta**2))


def _mean_plus_variance(theta: np.ndarray, s: float) -> float:
    return float(np.mean(theta) + s**2)


def _smooth_composite(theta: np.ndarray, s: float) -> float:
    tbar = float(np.mean(theta))
    return float(np.exp(-((tbar - 0.5) ** 2) / (2 * 0.15**2)))


TARGETS = {
    "linear_mean": SyntheticTarget("linear_mean", _linear_mean, 0),
    "quadratic_mean": SyntheticTarget("quadratic_mean", _quadratic_mean, 1),
    "mean_plus_variance": SyntheticTarget("mean_plus_variance", _mean_plus_variance, 1),
    "smooth_composite": SyntheticTarget("smooth_composite", _smooth_composite, 2),
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

    def target_value(self, theta: np.ndarray, scale: float | None = None) -> float:
        return TARGETS[self.target].fn(np.asarray(theta, dtype=np.float64), scale or self.scale)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "scale": self.scale,
            "target": self.target,
            "noise_sd": self.noise_sd,
            "noise_bound": self.noise_bound,
            "seed": self.seed,
        }

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

    @property
    def m(self) -> int:
        return len(self.bags)

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


def generate(meta: MetaDistributionSpec, m: int, n_points: int) -> TwoStageDataset:
    """Draw m bags of n_points each; labels carry truncated noise.

    Fully reproducible from meta.seed: the same spec yields bitwise-identical
    datasets.
    """
    if m < 1 or n_points < 1:
        raise InputError(f"need m >= 1 and N >= 1, got m={m}, N={n_points}")
    meta_rng = _meta_rng(meta.seed)
    thetas = meta_rng.uniform(THETA_LOW, THETA_HIGH, size=(m, meta.dim))
    targets = np.array([meta.target_value(t) for t in thetas])
    labels = np.array(
        [
            _truncated_label(meta_rng, float(t), meta.noise_sd, meta.noise_bound)
            for t in targets
        ]
    )
    bags = []
    for i in range(m):
        points = _draw_truncated_points(_bag_rng(meta.seed, i), thetas[i], meta.scale, n_points)
        bags.append(
            Bag(
                id=f"bag-{i:04d}",
                points=points,
                label=float(labels[i]),
                params=BagParams(theta=thetas[i].copy(), scale=meta.scale),
            )
        )
    return TwoStageDataset(bags=tuple(bags), targets=targets, meta=meta)


def resample_second_stage(
    dataset: TwoStageDataset, n_new: int, seed: int
) -> TwoStageDataset:
    """Redraw every bag's points from its stored parameters; labels unchanged.

    With seed equal to the dataset's own seed and n_new equal to the original
    bag size, the redraw reproduces the original points exactly.
    """
    if n_new < 1:
        raise InputError(f"N_new must be >= 1, got {n_new}")
    bags = []
    for i, bag in enumerate(dataset.bags):
        if bag.params is None:
            raise InputError(
                f"bag {bag.id!r} has no stored distribution parameters; cannot resample"
            )
        points = _draw_truncated_points(
            _bag_rng(seed, i), bag.params.theta, bag.params.scale, n_new
        )
        bags.append(replace(bag, points=points))
    return TwoStageDataset(bags=tuple(bags), targets=dataset.targets.copy(), meta=dataset.meta)
