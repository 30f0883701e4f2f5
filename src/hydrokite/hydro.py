"""Lift/drag models and the crosswind power bound for a tethered hydrokinetic wing.

Coefficients follow a finite-wing parametric model: a lifting-line corrected
linear lift curve and a parabolic drag polar offset to the minimum-drag lift.
The power bound is Loyd's crosswind limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateRange, check_fields


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

    def __post_init__(self):
        # the closed-form glide optimum needs a rising lift curve and a
        # drag polar with a positive floor and curvature
        check_fields(self, positive=("gamma", "e_lift", "e_drag", "cd_zero"),
                     nonnegative=("k_visc",))

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

    def __post_init__(self):
        # still water (speed 0) is a legal environment
        check_fields(self, positive=("density",), nonnegative=("speed",))


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
def max_glide_cubed(foil: FoilCoeffs, aspect_ratio: float) -> float:
    """Peak CL^3/CD^2 over the pre-stall window ``DEFAULT_ALPHA_RANGE``.

    With k = drag_factor(AR) and m = cl_min_drag, d/dCL [3 ln CL - 2 ln CD] = 0
    reads k*CL^2 + 2*k*m*CL - 3*(k*m^2 + cd_zero) = 0.  Its only positive root,
    CL* = -m + sqrt(4*m^2 + 3*cd_zero/k), is the ratio's only maximum on CL > 0,
    since the ratio tends to 0 as CL -> 0+ and as CL -> inf.  CL rises with
    alpha, so the window maximum is at CL* clipped to the window's CL range.

    Raises
    ------
    DegenerateRange
        If CL <= 0 over the whole window, so the ratio has no positive peak.
    """
    lo, hi = (lift_coeff(foil, aspect_ratio, a) for a in DEFAULT_ALPHA_RANGE)
    if hi <= 0.0:
        raise DegenerateRange("no positive lift anywhere in the alpha range")
    k, m = foil.drag_factor(aspect_ratio), foil.cl_min_drag
    cl_star = -m + math.sqrt(4.0 * m * m + 3.0 * foil.cd_zero / k)
    cl = min(max(cl_star, lo), hi)
    return cl**3 / drag_coeff(foil, aspect_ratio, cl) ** 2


def loyd_power(planform: WingPlanform, flow: FlowEnv,
               foil: FoilCoeffs = FoilCoeffs()) -> float:
    """Crosswind power bound in watts: (2/27)*rho*v^3*S*max(CL^3/CD^2),
    with S the planform area s^2/AR."""
    return crosswind_power(flow, planform.area,
                           max_glide_cubed(foil, planform.aspect_ratio))


def crosswind_power(flow: FlowEnv, area, glide3):
    """Loyd's product (2/27)*rho*v^3*S*glide3 for planform areas S and peak
    CL^3/CD^2 values glide3, floats or broadcasting arrays alike.

    The factors multiply left to right, so an array entry is the float
    ``loyd_power`` would give for the same area and glide value.
    """
    return (2.0 / 27.0) * flow.density * flow.speed**3 * area * glide3
