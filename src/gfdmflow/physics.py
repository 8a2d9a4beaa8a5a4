"""Rock/fluid constitutive relations, pair averaging, upwind node selection.

Units follow the oilfield system used throughout the package: meters, days,
MPa, mPa*s, millidarcy; ``UNIT_ALPHA = 0.0864`` makes the Darcy flux term
dimensionally consistent in these units.  All functions are pure and accept
plain floats, numpy arrays, or :class:`~gfdmflow.dual.Dual` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .errors import UnphysicalValueError

__all__ = [
    "ReservoirModel",
    "SimState",
    "krw",
    "kro",
    "porosity",
    "pair_transmissibility_parts",
    "upwind_nodes",
]

UNIT_ALPHA = 0.0864


@dataclass(frozen=True)
class ReservoirModel:
    """Per-node rock and fluid description.

    ``permeability``, ``mu_o``, ``mu_w``, ``q_o``, ``q_w`` are per-node
    arrays (length = node count, virtual nodes included); scalars may be
    passed and are broadcast by :meth:`uniform`.
    """

    permeability: np.ndarray
    phi0: float
    Cr: float
    p_ref: float
    mu_o: np.ndarray
    mu_w: np.ndarray
    Swc: float
    Sor: float
    q_o: np.ndarray
    q_w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "permeability", np.asarray(self.permeability, dtype=float))
        object.__setattr__(self, "mu_o", np.asarray(self.mu_o, dtype=float))
        object.__setattr__(self, "mu_w", np.asarray(self.mu_w, dtype=float))
        object.__setattr__(self, "q_o", np.asarray(self.q_o, dtype=float))
        object.__setattr__(self, "q_w", np.asarray(self.q_w, dtype=float))
        if self.Swc < 0 or self.Sor < 0 or self.Swc + self.Sor >= 1:
            raise UnphysicalValueError("need Swc, Sor >= 0 and Swc + Sor < 1")
        if np.any(self.permeability <= 0):
            raise UnphysicalValueError("permeability must be positive")
        if np.any(self.mu_o <= 0) or np.any(self.mu_w <= 0):
            raise UnphysicalValueError("viscosities must be positive")
        if not (0 < self.phi0 < 1):
            raise UnphysicalValueError("initial porosity must lie in (0, 1)")

    @classmethod
    def uniform(
        cls,
        n_nodes: int,
        permeability: float = 100.0,
        phi0: float = 0.3,
        Cr: float = 0.0,
        p_ref: float = 10.0,
        mu_o: float = 10.0,
        mu_w: float = 2.0,
        Swc: float = 0.2,
        Sor: float = 0.2,
        q_o: float = 0.0,
        q_w: float = 0.0,
    ) -> "ReservoirModel":
        ones = np.ones(n_nodes)
        return cls(
            permeability * ones,
            phi0,
            Cr,
            p_ref,
            mu_o * ones,
            mu_w * ones,
            Swc,
            Sor,
            q_o * ones,
            q_w * ones,
        )


@dataclass
class SimState:
    """Oil pressure and water saturation at one time level."""

    p: np.ndarray
    sw: np.ndarray
    t: float = 0.0

    def to_vector(self) -> np.ndarray:
        x = np.empty(2 * len(self.p))
        x[0::2] = self.p
        x[1::2] = self.sw
        return x

    @classmethod
    def from_vector(cls, x: np.ndarray, t: float) -> "SimState":
        return cls(p=x[0::2].copy(), sw=x[1::2].copy(), t=t)


def _normalized_sw(sw, model: ReservoirModel):
    span = 1.0 - model.Sor - model.Swc
    clamped = dual.clip(sw, model.Swc, 1.0 - model.Sor)
    return (clamped - model.Swc) / span


def krw(sw, model: ReservoirModel):
    """Water relative permeability, quadratic in normalized saturation.

    Input is clamped to ``[Swc, 1 - Sor]`` before evaluating, so Newton
    iterates slightly outside the physical range stay bounded.
    """
    return _normalized_sw(sw, model) ** 2


def kro(sw, model: ReservoirModel):
    """Oil relative permeability; mirror image of :func:`krw`."""
    return (1.0 - _normalized_sw(sw, model)) ** 2


def porosity(p, model: ReservoirModel, check: bool = True):
    """Pressure-dependent porosity ``phi0 + Cr (p - p_ref)``.

    With ``check`` a result outside ``(0, 1)`` raises; the residual kernels
    evaluate unchecked because Newton iterates may transiently overshoot.
    """
    phi = model.phi0 + model.Cr * (p - model.p_ref)
    if check:
        vals = np.asarray(dual.value(phi))
        if np.any(vals <= 0) or np.any(vals >= 1):
            raise UnphysicalValueError("porosity left (0, 1)")
    return phi


def pair_transmissibility_parts(i, j, model: ReservoirModel):
    """Harmonic permeability and arithmetic viscosities for a node pair.

    Vectorized over index arrays.
    """
    k = model.permeability
    k_ij = 2.0 / (1.0 / k[i] + 1.0 / k[j])
    mu_o_ij = 0.5 * (model.mu_o[i] + model.mu_o[j])
    mu_w_ij = 0.5 * (model.mu_w[i] + model.mu_w[j])
    return k_ij, mu_o_ij, mu_w_ij


def upwind_nodes(dp, pair_i, pair_j):
    """Upstream node of each directed pair ``pair_i -> pair_j`` with the
    pressure difference ``dp = p_j - p_i``.

    The neighbor ``j`` is upstream when ``dp >= 0`` (ties go to the
    neighbor); both phases use the same oil-pressure test because capillary
    pressure is zero throughout.
    """
    return np.where(dp >= 0, pair_j, pair_i)
