"""Lift/drag models and the crosswind power bound for a tethered hydrokinetic wing.

Coefficients follow a finite-wing parametric model: a lifting-line corrected
linear lift curve and a parabolic drag polar offset to the minimum-drag lift.
The power bound is Loyd's crosswind limit scaled by a harvesting efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateRange

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FoilCoeffs:
    """Parametric section/planform coefficient set for one lifting surface.

    Attributes
    ----------
    gamma : float
        Lift-curve multiplier on the 2*pi thin-foil slope (dimensionless).
    e_lift : float
        Oswald-style span efficiency used in the slope's finite-span correction.
    e_drag : float
        Span efficiency used in the induced-drag factor.
    cl_zero : float
        Lift coefficient at zero angle of attack (camber offset).
    cl_min_drag : float
        Lift coefficient at which profile drag is minimal.
    k_visc : float
        Viscous addition to the induced-drag factor (dimensionless).
    cd_zero : float
        Parasitic drag floor at the minimum-drag lift coefficient.
    """

    gamma: float = 0.96
    e_lift: float = 0.76
    e_drag: float = 0.92
    cl_zero: float = 0.16
    cl_min_drag: float = 0.02
    k_visc: float = 0.03
    cd_zero: float = 0.0065

    def lift_slope(self, aspect_ratio: float) -> float:
        """Finite-span lift-curve slope dCL/dalpha in 1/rad."""
        return 2.0 * math.pi * self.gamma / (
            1.0 + 2.0 * self.gamma / (self.e_lift * aspect_ratio)
        )

    def drag_factor(self, aspect_ratio: float) -> float:
        """Quadratic polar coefficient: CD = factor*(CL - cl_min_drag)^2 + cd_zero."""
        return 1.0 / (math.pi * self.e_drag * aspect_ratio) + self.k_visc


@dataclass(frozen=True)
class FlowEnv:
    """Ambient water current seen by the kite.

    speed is the free-stream current in m/s, density in kg/m^3.
    """

    speed: float = 1.5
    density: float = 1000.0


@dataclass(frozen=True)
class WingPlanform:
    """Rectangular wing defined by span s (m) and aspect ratio AR = s/c."""

    span: float
    aspect_ratio: float

    def __post_init__(self):
        if self.span <= 0.0 or self.aspect_ratio <= 0.0:
            raise ValueError("span and aspect_ratio must be positive")

    @property
    def chord(self) -> float:
        return self.span / self.aspect_ratio

    @property
    def area(self) -> float:
        """Planform area s*c = s^2/AR in m^2."""
        return self.span**2 / self.aspect_ratio


def lift_coeff(foil: FoilCoeffs, aspect_ratio: float, alpha: float) -> float:
    """Lift coefficient at angle of attack alpha (rad)."""
    return foil.lift_slope(aspect_ratio) * alpha + foil.cl_zero


def drag_coeff(foil: FoilCoeffs, aspect_ratio: float, cl: float) -> float:
    """Drag coefficient at lift coefficient cl (parabolic polar)."""
    return foil.drag_factor(aspect_ratio) * (cl - foil.cl_min_drag) ** 2 + foil.cd_zero


DEFAULT_ALPHA_RANGE = (0.0, math.radians(20.0))


@lru_cache(maxsize=4096)
def max_glide_cubed(
    foil: FoilCoeffs,
    aspect_ratio: float,
    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE,
    coarse_n: int = 512,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Maximize CL^3/CD^2 over a pre-stall alpha window.

    Deterministic: coarse scan to bracket the peak, then golden-section
    refinement of the bracket down to ``tol`` radians.

    Returns
    -------
    (value, alpha_star) : tuple of float
        Peak CL^3/CD^2 and the angle of attack (rad) where it occurs.

    Raises
    ------
    DegenerateRange
        If CL <= 0 over the whole window, so the ratio has no positive peak.
    """
    lo, hi = alpha_range
    if not hi > lo:
        raise DegenerateRange("alpha range is empty")

    def ratio(a: float) -> float:
        cl = lift_coeff(foil, aspect_ratio, a)
        cd = drag_coeff(foil, aspect_ratio, cl)
        return cl**3 / cd**2

    if max(lift_coeff(foil, aspect_ratio, lo), lift_coeff(foil, aspect_ratio, hi)) <= 0.0:
        raise DegenerateRange("no positive lift anywhere in the alpha range")

    step = (hi - lo) / coarse_n
    best_i, best_v = 0, -math.inf
    for i in range(coarse_n + 1):
        v = ratio(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)

    # golden-section: shrink [a, b] keeping the interior maximum
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ratio(x1), ratio(x2)
    while (b - a) > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ratio(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ratio(x1)
    alpha_star = 0.5 * (a + b)
    value = ratio(alpha_star)
    if value <= 0.0:
        raise DegenerateRange("glide ratio peak is not positive")
    return value, alpha_star


def loyd_power(
    planform: WingPlanform,
    flow: FlowEnv,
    eta: float = 1.0,
    foil: FoilCoeffs | None = None,
) -> float:
    """Crosswind power bound in watts: (2/27)*eta*rho*v^3*S*max(CL^3/CD^2),
    with S the planform area s^2/AR."""
    foil = foil or FoilCoeffs()
    glide3, _ = max_glide_cubed(foil, planform.aspect_ratio)
    return (2.0 / 27.0) * eta * flow.density * flow.speed**3 * planform.area * glide3
