"""Kernel families on mean embeddings: positive semi-definite, indefinite, asymmetric.

Every family is evaluated from embedding-geometry quantities only (inner
products and squared distances of empirical mean embeddings), so any bag pair
valid for the embedding kernel is valid here. The indefinite menu:
difference-of-Gaussians (a linear combination of PSD kernels), tanh of the
embedding inner product, and a tilted-asymmetric variant whose tilt factor
depends on the first argument only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .embedding import Bag, EmbeddingKernelSpec, embed_inner
from .errors import ConfigError, InputError

# family -> (symmetric, PSD claimed)
_FLAGS = {
    "gaussian_on_embedding": (True, True),
    "linear_embedding": (True, True),
    "dog_indefinite": (True, False),
    "tanh_indefinite": (True, False),
    "tilted_asymmetric": (False, False),
}

OUTER_FAMILIES = tuple(_FLAGS)


def _require_positive(name: str, value: float | None) -> float:
    if value is None or not value > 0:
        raise ConfigError(f"parameter {name!r} must be a positive real, got {value}")
    return float(value)


@dataclass(frozen=True)
class OuterKernelSpec:
    """Kernel K on mean embeddings, with family-specific parameters.

    Formulas, writing D2 for the squared embedding distance and E for the
    embedding inner product:

      gaussian_on_embedding  exp(-D2 / (2 sigma^2))
      linear_embedding       E
      dog_indefinite         exp(-D2 / (2 sigma1^2)) - c exp(-D2 / (2 sigma2^2))
      tanh_indefinite        tanh(scale * E + offset)
      tilted_asymmetric      exp(-D2 / (2 sigma^2)) * (1 + c * E(first_arg, ref_bag))

    The tilt factor depends on the first kernel argument only, so the tilted
    family is asymmetric; prediction puts the test embedding in the first slot.
    """

    family: str
    sigma: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None
    c: float | None = None
    scale: float | None = None
    offset: float | None = None
    ref_bag: Bag | None = field(default=None)

    def __post_init__(self):
        if self.family not in OUTER_FAMILIES:
            raise ConfigError(
                f"unknown outer kernel family {self.family!r}; expected one of {OUTER_FAMILIES}"
            )
        if self.family == "gaussian_on_embedding":
            _require_positive("sigma", self.sigma)
        elif self.family == "dog_indefinite":
            s1 = _require_positive("sigma1", self.sigma1)
            s2 = _require_positive("sigma2", self.sigma2)
            _require_positive("c", self.c)
            if s1 == s2:
                raise ConfigError("dog_indefinite requires sigma2 != sigma1")
        elif self.family == "tanh_indefinite":
            _require_positive("scale", self.scale)
            _require_positive("offset", self.offset)
        elif self.family == "tilted_asymmetric":
            _require_positive("sigma", self.sigma)
            _require_positive("c", self.c)
            if self.ref_bag is None:
                raise ConfigError("tilted_asymmetric requires a reference bag")

    @property
    def symmetric(self) -> bool:
        return _FLAGS[self.family][0]

    @property
    def psd_claimed(self) -> bool:
        return _FLAGS[self.family][1]

    # Convenience constructors mirroring the family menu.
    @classmethod
    def gaussian(cls, sigma: float) -> "OuterKernelSpec":
        return cls(family="gaussian_on_embedding", sigma=sigma)

    @classmethod
    def linear(cls) -> "OuterKernelSpec":
        return cls(family="linear_embedding")

    @classmethod
    def dog(cls, sigma1: float, sigma2: float, c: float) -> "OuterKernelSpec":
        return cls(family="dog_indefinite", sigma1=sigma1, sigma2=sigma2, c=c)

    @classmethod
    def tanh(cls, scale: float, offset: float) -> "OuterKernelSpec":
        return cls(family="tanh_indefinite", scale=scale, offset=offset)

    @classmethod
    def tilted(cls, sigma: float, c: float, ref_bag: Bag) -> "OuterKernelSpec":
        return cls(family="tilted_asymmetric", sigma=sigma, c=c, ref_bag=ref_bag)

    def to_dict(self) -> dict:
        d: dict = {"family": self.family}
        for name in ("sigma", "sigma1", "sigma2", "c", "scale", "offset"):
            value = getattr(self, name)
            if value is not None:
                d[name] = value
        if self.ref_bag is not None:
            d["ref_bag"] = {
                "id": self.ref_bag.id,
                "points": self.ref_bag.points.tolist(),
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "OuterKernelSpec":
        d = dict(d)
        family = d.pop("family", None)
        if family is None:
            raise ConfigError("outer kernel spec missing 'family'")
        ref = d.pop("ref_bag", None)
        ref_bag = Bag(id=ref["id"], points=ref["points"]) if ref is not None else None
        allowed = {"sigma", "sigma1", "sigma2", "c", "scale", "offset"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown outer kernel parameters: {sorted(unknown)}")
        return cls(family=family, ref_bag=ref_bag, **{k: float(v) for k, v in d.items()})


def apply_outer(
    kspec: OuterKernelSpec,
    inner: np.ndarray,
    row_self: np.ndarray,
    col_self: np.ndarray,
    row_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Map embedding geometry to outer-kernel values, row bag in the first slot.

    The one table of outer-kernel formulas: `inner[i, j]` = <mu_i, mu_j>,
    `row_self`/`col_self` the self inner products, and `row_ref[i]` =
    <mu_i, mu_ref> for the tilted family's reference bag.
    """
    if kspec.family == "linear_embedding":
        return inner.copy()
    if kspec.family == "tanh_indefinite":
        return np.tanh(kspec.scale * inner + kspec.offset)
    d2 = np.clip(row_self[:, None] + col_self[None, :] - 2.0 * inner, 0.0, None)
    if kspec.family == "gaussian_on_embedding":
        return np.exp(-0.5 * d2 / kspec.sigma**2)
    if kspec.family == "dog_indefinite":
        return np.exp(-0.5 * d2 / kspec.sigma1**2) - kspec.c * np.exp(
            -0.5 * d2 / kspec.sigma2**2
        )
    # tilted_asymmetric: the tilt is a function of the row bag only
    tilt = 1.0 + kspec.c * row_ref
    return np.exp(-0.5 * d2 / kspec.sigma**2) * tilt[:, None]


def outer_eval(
    kspec: OuterKernelSpec, espec: EmbeddingKernelSpec, a: Bag, b: Bag
) -> float:
    """Evaluate K(mu_a, mu_b) with `a` in the first kernel slot.

    The table of `apply_outer` on 1 x 1 geometry, so the value equals the
    matching Gram or cross-Gram entry bit for bit.
    """
    row_ref = None
    if kspec.family == "tilted_asymmetric":
        row_ref = np.array([embed_inner(espec, a, kspec.ref_bag)])
    inner = np.array([[embed_inner(espec, a, b)]])
    self_a, self_b = np.array([embed_inner(espec, a, a)]), np.array([embed_inner(espec, b, b)])
    return float(apply_outer(kspec, inner, self_a, self_b, row_ref)[0, 0])


class SymmetryCheck(NamedTuple):
    symmetric: bool
    max_asymmetry: float


def check_symmetry(
    kspec: OuterKernelSpec,
    espec: EmbeddingKernelSpec,
    bags: Sequence[Bag],
    tol: float = 1e-10,
) -> SymmetryCheck:
    """Empirically validate the symmetric flag on a bag set.

    Evaluates K in both argument orders over all pairs, as one cross-Gram of
    the bags with themselves, and reports its largest gap to its transpose.
    """
    from .gram import build_cross_gram  # gram builds on this module

    if len(bags) < 2:
        raise InputError("check_symmetry needs at least 2 bags")
    values = build_cross_gram(kspec, espec, bags, bags)
    worst = float(np.max(np.abs(values - values.T)))
    return SymmetryCheck(symmetric=worst <= tol, max_asymmetry=worst)
