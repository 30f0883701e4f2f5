"""Fuselage shell sizing against shear, hoop, and bending-buckling limits.

The hull is a thin-walled cylindrical pressure vessel of diameter D and
length L.  Transverse loads shear the shell over its length, the internal
pressure difference sets a hoop stress, and the stabilizer lift bends the
hull about the tether attachment.  Each limit inverts to a closed-form
minimum thickness, so the minimum-mass shell is simply the largest of the
three, clamped to the design bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .design import ScalingRule
from .errors import Infeasible, ThinWallViolation
from .hydro import FlowEnv, FoilCoeffs, WingPlanform
from .wingstruct import Material, rated_wing_load

# thickness bounds in % of diameter
THICKNESS_MIN_PCT = 0.5
THICKNESS_MAX_PCT = 10.0

# layout along the hull
WING_MOUNT_FRACTION = 0.25   # wing leading edge at this fraction of L
TAIL_FRACTION = 0.95         # stabilizer quarter-chord at this fraction of L

DEFAULT_PRESSURE_DIFF = 2.5e3  # Pa
DEFAULT_ALLOWABLE_FACTOR = 0.5


@dataclass(frozen=True)
class FuselageDesign:
    """Cylindrical hull geometry; thickness carried in % of diameter."""

    diameter: float
    length: float
    thickness_pct: float

    def __post_init__(self):
        if not (0.0 < self.diameter < math.inf and 0.0 < self.length < math.inf):
            raise ValueError("diameter and length must be finite and positive")
        if not 0.0 <= self.thickness_pct < math.inf:
            raise ValueError("thickness_pct must be finite and non-negative")
        if self.thickness_pct > THICKNESS_MAX_PCT:
            raise ThinWallViolation(
                f"wall {self.thickness_pct!r}% of D exceeds the thin-wall "
                f"limit {THICKNESS_MAX_PCT:g}%")

    @property
    def thickness(self) -> float:
        return self.thickness_pct / 100.0 * self.diameter


@dataclass(frozen=True)
class FuselageLoads:
    """Shell load case: net transverse force, pressure difference, and
    bending moment about the tether attachment, with the allowable-stress
    factor applied to yield."""

    transverse_force: float
    pressure_diff: float = DEFAULT_PRESSURE_DIFF
    bending_moment: float = 0.0
    allowable_factor: float = DEFAULT_ALLOWABLE_FACTOR

    def __post_init__(self):
        if not (0.0 <= self.transverse_force < math.inf
                and 0.0 <= self.pressure_diff < math.inf
                and 0.0 <= self.bending_moment < math.inf):
            raise ValueError("load components must be finite and non-negative")
        if not 0.0 < self.allowable_factor <= 1.0:
            raise ValueError("allowable_factor must be in (0, 1]")


@dataclass(frozen=True)
class FuselageMargins:
    shear: float
    hoop: float
    buckling: float

    def feasible(self, tol: float = 1e-9) -> bool:
        # tol absorbs round-trip error through the percent parametrization
        return min(self.shear, self.hoop, self.buckling) >= -tol


@dataclass(frozen=True)
class FuselageSizing:
    design: FuselageDesign
    mass: float
    active_constraint: str  # "shear" | "hoop" | "buckling" | "bound"


def section_modulus(diameter: float, thickness: float) -> float:
    """Thin-wall bending section modulus pi r^2 t."""
    return math.pi * (diameter / 2.0) ** 2 * thickness


def proof_stress(material: Material = Material()) -> float:
    """Allowable hoop stress basis: 0.5% strain or yield, whichever is lower."""
    return min(0.005 * material.youngs_modulus, material.yield_stress)


def _margin(allowable: float, actual: float) -> float:
    if actual == 0.0:
        return math.inf
    return allowable / actual - 1.0


def constraint_margins(
    design: FuselageDesign,
    loads: FuselageLoads,
    material: Material = Material(),
) -> FuselageMargins:
    """Allowable/actual - 1 for each limit; all >= 0 means feasible."""
    t = design.thickness
    zeta = loads.allowable_factor
    shear_stress = loads.transverse_force / (t * design.length)
    hoop_stress = loads.pressure_diff * design.diameter / (2.0 * t)
    bending_stress = abs(loads.bending_moment) / section_modulus(design.diameter, t)
    return FuselageMargins(
        shear=_margin(zeta * material.yield_stress, shear_stress),
        hoop=_margin(zeta * proof_stress(material), hoop_stress),
        buckling=_margin(zeta * material.yield_stress, bending_stress),
    )


def fuse_mass(design: FuselageDesign, material: Material = Material()) -> float:
    """Shell mass of the exact annular cross-section."""
    d, t = design.diameter, design.thickness
    area = math.pi / 4.0 * (d**2 - (d - 2.0 * t) ** 2)
    return material.density * area * design.length


def sfdt_optimize(
    diameter: float,
    length: float,
    loads: FuselageLoads,
    material: Material = Material(),
) -> FuselageSizing:
    """Minimum-mass shell thickness for a (D, L) hull under the given loads.

    Mass is strictly increasing in t and each limit inverts to a minimum
    thickness, so the optimum is the largest of the three closed-form
    thicknesses, raised to the lower bound if slack.  Raises Infeasible when
    the required thickness exceeds the upper bound.  The bounds are compared
    in % of D, the unit FuselageDesign carries, so a bound case lands on
    THICKNESS_MIN_PCT exactly.
    """
    zeta = loads.allowable_factor
    sigma_y = zeta * material.yield_stress
    sigma_h = zeta * proof_stress(material)
    radius = diameter / 2.0

    candidates = {
        "shear": loads.transverse_force / (sigma_y * length),
        "hoop": loads.pressure_diff * diameter / (2.0 * sigma_h),
        "buckling": abs(loads.bending_moment) / (sigma_y * math.pi * radius**2),
    }
    active, t_need = max(candidates.items(), key=lambda kv: kv[1])

    pct = 100.0 * t_need / diameter
    if pct > THICKNESS_MAX_PCT:
        raise Infeasible(
            "required shell thickness exceeds the upper bound",
            detail={
                "thickness_required_pct": pct,
                "thickness_bound_pct": THICKNESS_MAX_PCT,
                "governing": active,
            },
        )
    if pct < THICKNESS_MIN_PCT:
        pct, active = THICKNESS_MIN_PCT, "bound"

    design = FuselageDesign(diameter, length, pct)
    return FuselageSizing(design, fuse_mass(design, material), active)


def rated_fuselage_loads(
    planform: WingPlanform,
    length: float,
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
    rule: ScalingRule = ScalingRule(),
) -> FuselageLoads:
    """Default hull load case from the rated wing lift.

    The wing and horizontal stabilizer both lift at the rated condition; the
    stabilizer share scales with its area fraction.  The stabilizer lift
    bends the hull about the tether attachment under the wing quarter-chord
    (wing leading edge mounted at WING_MOUNT_FRACTION of the hull length,
    tail at TAIL_FRACTION).
    """
    wing_lift = 2.0 * rated_wing_load(planform, flow, foil_coeffs)
    hstab_lift = rule.hstab_area_fraction * wing_lift
    arm = TAIL_FRACTION * length - (WING_MOUNT_FRACTION * length
                                    + 0.25 * planform.chord)
    return FuselageLoads(
        transverse_force=wing_lift + hstab_lift,
        bending_moment=hstab_lift * max(arm, 0.0),
    )
