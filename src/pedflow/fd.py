"""Three-dimensional triangular fundamental diagram for bidirectional walking links.

A walking link and its opposite-direction twin share one physical sidewalk
segment.  The share of the total density that belongs to the reference
direction (the density ratio) degrades the free-flow speed and the usable
jam density of that direction, which turns the classic two-dimensional
triangular flow-density relation into a surface over (density, density ratio).
The wave speed is treated as a constant, independent of the density ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

VARIANTS = ("logistic", "power")


@dataclass(frozen=True)
class FDParams:
    """Parameter bundle of the bidirectional fundamental diagram.

    Attributes:
        v_f: free-flow walking speed in m/s.
        omega: kinematic wave speed in m/s (constant, not ratio-dependent).
        k_jam: jam density of the full sidewalk cross-section in ped/m^2.
        variant: "logistic" or "power" speed-degradation law.
        gamma: exponent of the power law; required iff variant == "power".
    """

    v_f: float
    omega: float
    k_jam: float
    variant: str = "logistic"
    gamma: float | None = None

    def __post_init__(self):
        for name in ("v_f", "omega", "k_jam"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        check_speed_law(self.variant, self.gamma)


def check_speed_law(variant: str, gamma: float | None) -> None:
    """Raise ValueError unless (variant, gamma) names a speed-degradation law.

    Each message opens with the name of the offending value, "variant" or
    "gamma", so a caller can prefix it with its own key.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "power":
        if gamma is None:
            raise ValueError("gamma is required by the power variant")
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    elif gamma is not None:
        raise ValueError("gamma is only meaningful for the power variant")


@dataclass(frozen=True)
class FDState:
    """Densities of one direction pair: reference direction and its opposite."""

    k: float
    k_opp: float

    def __post_init__(self):
        if not (0 <= self.k < math.inf and 0 <= self.k_opp < math.inf):
            raise ValueError(f"densities must be nonnegative and finite, got ({self.k}, {self.k_opp})")


def density_ratio(state: FDState) -> float:
    """Share of the total bidirectional density carried by the reference direction:
    `density_ratio_profile` on one pair.

    An empty segment returns 1.0: with nobody walking either way there is no
    counterflow friction, so the reference direction sees the full diagram.
    """
    return float(density_ratio_profile(np.array([state.k, state.k_opp]), np.array([1, 0]))[0])


def effective_jam_density(params: FDParams, rho: float) -> float:
    """Jam density available to the reference direction at density ratio rho."""
    _check_ratio(rho)
    return rho * params.k_jam


def effective_speed(params: FDParams, rho: float) -> float:
    """Free-flow speed degraded by counterflow at density ratio rho:
    `effective_speed_profile` on one ratio.

    Both variants return exactly v_f at rho = 1 (no counterflow).  The power
    variant with rho = 0 and gamma = 0 is the 0**0 corner; it is defined as
    v_f and flagged with a warning because the limit is direction-dependent.
    """
    _check_ratio(rho)
    if params.variant == "power" and rho == 0.0 and params.gamma == 0.0:
        warnings.warn("power-law effective speed at rho=0 with gamma=0 is the 0**0 corner; using v_f by convention",
                      RuntimeWarning, stacklevel=2)
    return float(effective_speed_profile(params.v_f, rho, params.variant, params.gamma))


def critical_density(params: FDParams, rho: float) -> float:
    """Density at the apex of the triangular relation for the given ratio."""
    _check_ratio(rho)
    if rho == 0.0:
        return 0.0
    k_hat = effective_jam_density(params, rho)
    v_hat = effective_speed(params, rho)
    return k_hat * params.omega / (v_hat + params.omega)


def flow(params: FDParams, state: FDState) -> float:
    """Flow in ped/m/s at the given bidirectional density state.

    Below the critical density the state is hypocritical and flow grows at the
    effective speed; above it the state is hypercritical and flow recedes along
    the congested branch toward the effective jam density.
    """
    rho = density_ratio(state)
    k_hat = effective_jam_density(params, rho)
    if state.k > k_hat + 1e-12 * params.k_jam:
        raise ValueError(
            f"density {state.k} exceeds effective storage {k_hat} at density ratio {rho}"
        )
    k = min(state.k, k_hat)
    k_c = critical_density(params, rho)
    if k <= k_c:
        return effective_speed(params, rho) * k
    return params.omega * (k_hat - k)


def capacity_flow(params: FDParams) -> float:
    """Apex flow of the unidirectional diagram (rho = 1), in ped/m/s."""
    return default_capacity(1.0, params.v_f, params.k_jam, params.omega)


def default_capacity(width: float, v_f: float, k_jam: float, omega: float) -> float:
    """Apex flow of the unidirectional relation times width, ped/s; NaN where v_f + omega is 0."""
    return v_f * (k_jam * omega / (v_f + omega)) * width if v_f + omega else math.nan


def density_ratio_profile(k: np.ndarray, twin: np.ndarray, rows=None) -> np.ndarray:
    """Vectorized density_ratio for every link, or for the links in `rows`.

    Rows of k are the links' densities (any trailing time axes); twin[i] is
    the row of link i's opposite direction, -1 for a one-way link, which sees
    no counterflow.
    """
    own, opposite = (k, twin) if rows is None else (k[rows], twin[rows])
    paired = (opposite >= 0).reshape((-1,) + (1,) * (k.ndim - 1))
    total = own + np.where(paired, k[opposite], 0.0)
    return np.where(total > 0, own / np.where(total > 0, total, 1.0), 1.0)


def effective_speed_profile(v_f: np.ndarray | float, rho: np.ndarray, variant: str = "logistic",
                            gamma: float | None = None) -> np.ndarray:
    """Vectorized effective speed for per-link free-flow speeds and ratios.

    A ratio a few ulp below zero (an occupancy that float noise left just
    below empty) reads as 0 in the power variant, where rho**gamma of a
    negative ratio would be NaN.
    """
    check_speed_law(variant, gamma)
    rho = np.asarray(rho, dtype=float)
    if variant == "logistic":
        return v_f * np.exp(rho - 1.0)
    return np.maximum(rho, 0.0) ** gamma * v_f


def _check_ratio(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"density ratio must lie in [0, 1], got {rho}")
