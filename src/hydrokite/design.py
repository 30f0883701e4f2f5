"""Kite assembly geometry: stabilizer scaling, displaced volume, and the
ballast that closes neutral buoyancy.

The design vector sizes the wing and hull; the stabilizers follow the wing
through a fixed scaling rule.  Displaced volume is what the closed outer
skin sweeps: foil outline area times span for each lifting surface plus
the hull cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import check_fields
from .hydro import WingPlanform
from .wingstruct import NACA_THICKNESS, FourDigitFoil

FUSE_DIAMETER_RANGE = (0.4, 0.8)
FUSE_LENGTH_RANGE = (6.0, 10.0)
SPAN_RANGE = (7.0, 10.0)
ASPECT_RANGE = (4.0, 12.0)


@dataclass(frozen=True)
class ScalingRule:
    """How the stabilizers track the wing planform."""

    hstab_area_fraction: float = 0.25   # of wing area
    vstab_area_fraction: float = 0.15   # of wing area

    def __post_init__(self):
        check_fields(self, positive=("hstab_area_fraction",
                                     "vstab_area_fraction"))

    def hstab(self, planform: WingPlanform) -> WingPlanform:
        return _stab_planform(planform, self.hstab_area_fraction)

    def vstab(self, planform: WingPlanform) -> WingPlanform:
        return _stab_planform(planform, self.vstab_area_fraction)


def _stab_planform(planform: WingPlanform, area_fraction: float) -> WingPlanform:
    # stabilizer keeps the wing's aspect ratio at a fraction of its area
    area = area_fraction * planform.area
    span = math.sqrt(planform.aspect_ratio * area)
    return WingPlanform(span=span, aspect_ratio=planform.aspect_ratio)


def foil_outline_area(foil: FourDigitFoil = FourDigitFoil()) -> float:
    """Enclosed area of the unit-chord section (camber does not change it)."""
    # closed-form integral of 2*y_t over [0, 1]
    a0, a1, a2, a3, a4 = NACA_THICKNESS
    bracket = a0 * 2.0 / 3.0 - a1 / 2.0 - a2 / 3.0 + a3 / 4.0 - a4 / 5.0
    return 10.0 * foil.thickness * bracket


def surface_volume(planform: WingPlanform, foil: FourDigitFoil = FourDigitFoil()) -> float:
    """Displaced volume of one closed lifting surface."""
    return foil_outline_area(foil) * planform.chord**2 * planform.span


def hull_volume(diameter: float, length: float) -> float:
    return math.pi * (diameter / 2.0) ** 2 * length


def displaced_volume(
    planform: WingPlanform,
    fuse_diameter: float,
    fuse_length: float,
    rule: ScalingRule = ScalingRule(),
    foil: FourDigitFoil = FourDigitFoil(),
) -> float:
    """Total displaced volume: wing, both stabilizers, and hull."""
    return (surface_volume(planform, foil)
            + surface_volume(rule.hstab(planform), foil)
            + surface_volume(rule.vstab(planform), foil)
            + hull_volume(fuse_diameter, fuse_length))


def ballast_mass(structural_mass: float, volume: float, density: float) -> float:
    """Ballast that brings the kite to neutral buoyancy in water of the
    given density; zero when the structure already outweighs the displaced
    water."""
    return max(density * volume - structural_mass, 0.0)
