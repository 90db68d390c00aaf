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
import numpy as np

from .embedding import Bag, row_chunks
from .errors import ConfigError, InputError, config_float, config_keys

# family -> (symmetric, PSD claimed, the parameters it takes)
_FAMILIES = {
    "gaussian_on_embedding": (True, True, ("sigma",)),
    "linear_embedding": (True, True, ()),
    "dog_indefinite": (True, False, ("sigma1", "sigma2", "c")),
    "tanh_indefinite": (True, False, ("scale", "offset")),
    "tilted_asymmetric": (False, False, ("sigma", "c", "ref_bag")),
}

OUTER_FAMILIES = tuple(_FAMILIES)
_NUMBERS = ("sigma", "sigma1", "sigma2", "c", "scale", "offset")


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
        takes = _FAMILIES[self.family][2]
        for name in (*_NUMBERS, "ref_bag"):
            value = getattr(self, name)
            if name not in takes and value is not None:
                raise ConfigError(f"outer kernel family {self.family!r} takes no {name!r}")
            if name in takes and name != "ref_bag":
                _require_positive(name, value)
        if self.family == "dog_indefinite" and self.sigma1 == self.sigma2:
            raise ConfigError("dog_indefinite requires sigma2 != sigma1")
        if "ref_bag" in takes and self.ref_bag is None:
            raise ConfigError("tilted_asymmetric requires a reference bag")

    @property
    def symmetric(self) -> bool:
        return _FAMILIES[self.family][0]

    @property
    def psd_claimed(self) -> bool:
        return _FAMILIES[self.family][1]

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
        for name in _NUMBERS:
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
        if not isinstance(d, dict):
            raise ConfigError(f"outer kernel spec must be an object, got {d!r}")
        d = dict(d)
        family = d.pop("family", None)
        if family is None:
            raise ConfigError("outer kernel spec missing 'family'")
        ref = d.pop("ref_bag", None)
        config_keys(d, _NUMBERS, "outer kernel")
        try:
            ref_bag = Bag(id=ref["id"], points=ref["points"]) if ref is not None else None
            params = {k: config_float(v, f"outer kernel {k!r}") for k, v in d.items()}
            return cls(family=family, ref_bag=ref_bag, **params)
        except KeyError as exc:
            raise ConfigError(f"outer kernel ref_bag missing field {exc}") from exc
        except (TypeError, ValueError, InputError) as exc:
            raise ConfigError(f"malformed outer kernel spec: {exc}") from exc


def _gaussian_of(d2: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-0.5 * d2 / sigma**2), in that operation order, into `out`."""
    out = np.multiply(d2, -0.5, out=out)
    out /= sigma**2
    return np.exp(out, out=out)


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
    <mu_i, mu_ref> for the tilted family's reference bag. `inner` is used as
    scratch and returned as the result: it is mapped in place, one row chunk
    (`embedding.row_chunks`) at a time, so the table makes at most one array of
    a chunk's shape besides (two for dog_indefinite). Parameters out of
    floating-point range (a sigma whose square underflows) give non-finite
    values without a numpy warning; the Gram builders reject them.
    """
    if kspec.family == "linear_embedding":
        return inner
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows in row_chunks(inner.shape):
            values = inner[rows]
            if kspec.family == "tanh_indefinite":
                values *= kspec.scale
                values += kspec.offset
                np.tanh(values, out=values)
                continue
            values *= 2.0
            np.subtract(np.add.outer(row_self[rows], col_self), values, out=values)
            np.clip(values, 0.0, None, out=values)
            if kspec.family == "dog_indefinite":
                wide = _gaussian_of(values, kspec.sigma2)
                wide *= kspec.c
                _gaussian_of(values, kspec.sigma1, out=values)
                values -= wide
                continue
            _gaussian_of(values, kspec.sigma, out=values)
            if kspec.family == "tilted_asymmetric":  # the tilt is a function of the row bag only
                values *= (1.0 + kspec.c * row_ref[rows])[:, None]
    return inner
