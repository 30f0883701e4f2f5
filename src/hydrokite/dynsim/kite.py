"""Rigid 6-DOF kite body with five quasi-steady hydrodynamic surfaces.

Body frame: x forward, y to port, z up, origin at the wing leading edge
mid-span.  The equations of motion use the 6-vector relative velocity
nu = [v_body - R^T u_flow, omega] and read M nu_dot = tau(nu) - C(nu) nu
with M the rigid-body-plus-added-mass matrix and C the standard skew
Coriolis construction, which is energy-neutral by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..design import ScalingRule, ballast_mass, displaced_volume
from ..errors import NotPositiveDefinite
from ..fusestruct import TAIL_FRACTION, WING_MOUNT_FRACTION, FuselageDesign
from ..hydro import FlowEnv, FoilCoeffs, WingPlanform, drag_coeff, lift_coeff
from ..wingstruct import FourDigitFoil

GRAVITY = 9.81

# slender-body foil stand-in for the hull: no camber lift, some cross-flow
# normal force, bluff-ish zero-lift drag on its (small) area fraction
FUSELAGE_FOIL = FoilCoeffs(gamma=0.3, e_lift=1.0, e_drag=1.0, cl_zero=0.0,
                           cl_min_drag=0.0, k_visc=0.0, cd_zero=0.05)


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def cross3(a, b) -> np.ndarray:
    # np.cross carries axis bookkeeping overhead that dominates tight loops
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


@dataclass(frozen=True)
class SurfaceDef:
    """One quasi-steady lifting surface.

    normal is the suction-side unit vector, spanwise the positive-span
    direction; chordwise follows as spanwise x normal.  Coefficients come
    from the surface's own foil at its own aspect ratio and are scaled by
    the area fraction of the kite reference area.  deflection_gain is
    signed per surface: the starboard aileron's gain is the port one's
    negated, so one aileron command deflects the pair antisymmetrically.
    """

    name: str
    center: np.ndarray
    normal: np.ndarray
    spanwise: np.ndarray
    foil: FoilCoeffs
    aspect_ratio: float
    area_fraction: float
    incidence: float = 0.0
    control: str = ""            # "aileron" | "elevator" | "rudder" | ""
    deflection_gain: float = 0.0  # dCL per rad of deflection
    chordwise: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.chordwise is None:
            object.__setattr__(self, "chordwise",
                               cross3(self.spanwise, self.normal))


@dataclass
class KiteProperties:
    """Everything the integrator needs to know about the assembled kite."""

    mass: float
    volume: float
    inertia: np.ndarray            # 3x3 about the body origin
    r_cg: np.ndarray
    r_cb: np.ndarray
    r_attach: np.ndarray           # tether attachment
    added_mass: np.ndarray         # 6 diagonal entries
    surfaces: list[SurfaceDef]
    ref_area: float
    planform: WingPlanform
    structural_mass: float = 0.0
    ballast: float = 0.0

    def mass_matrix(self) -> np.ndarray:
        m = np.zeros((6, 6))
        m[:3, :3] = self.mass * np.eye(3)
        coupling = self.mass * _skew(self.r_cg)
        m[:3, 3:] = -coupling
        m[3:, :3] = coupling
        m[3:, 3:] = self.inertia
        m += np.diag(self.added_mass)
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("kite mass matrix is not positive definite")
        return m


def coriolis_matrix(mass_matrix: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Skew Coriolis matrix from the momentum; nu^T C nu = 0 exactly."""
    p_lin = mass_matrix[:3, :3] @ nu[:3] + mass_matrix[:3, 3:] @ nu[3:]
    p_ang = mass_matrix[3:, :3] @ nu[:3] + mass_matrix[3:, 3:] @ nu[3:]
    c = np.zeros((6, 6))
    s_lin = _skew(p_lin)
    c[:3, 3:] = -s_lin
    c[3:, :3] = -s_lin
    c[3:, 3:] = -_skew(p_ang)
    return c


def surface_force_moment(
    surface: SurfaceDef,
    nu: np.ndarray,
    deflection: float,
    ref_area: float,
    density: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-steady lift and drag of one surface in body axes."""
    v_local = nu[:3] + cross3(nu[3:], surface.center)
    speed = math.sqrt(float(v_local @ v_local))
    if speed < 1e-9:
        return np.zeros(3), np.zeros(3)
    u_n = float(v_local @ surface.normal)
    u_t = float(v_local @ surface.chordwise)
    alpha = math.atan2(-u_n, u_t) + surface.incidence

    cl = lift_coeff(surface.foil, surface.aspect_ratio, alpha)
    cl += surface.deflection_gain * deflection
    cd = drag_coeff(surface.foil, surface.aspect_ratio, cl)

    u_drag = -v_local / speed
    lift_dir = cross3(surface.spanwise, u_drag)
    norm = math.sqrt(float(lift_dir @ lift_dir))
    if norm < 1e-9:
        # flow along the span: no lift, drag only
        force = 0.5 * density * ref_area * surface.area_fraction * speed**2 * cd * u_drag
        return force, cross3(surface.center, force)
    lift_dir = lift_dir / norm

    q_s = 0.5 * density * ref_area * surface.area_fraction * speed**2
    force = q_s * (cl * lift_dir + cd * u_drag)
    return force, cross3(surface.center, force)


def net_force_moment(
    props: KiteProperties,
    rotation: np.ndarray,
    nu: np.ndarray,
    tether_force: np.ndarray,
    deflections: dict[str, float],
    flow: FlowEnv,
) -> np.ndarray:
    """Generalized force tau in body axes.

    rotation maps body to inertial; tether_force is inertial, applied at
    the attachment point.  deflections keys the surfaces' control tags.
    """
    force = np.zeros(3)
    moment = np.zeros(3)

    weight = rotation.T @ np.array([0.0, 0.0, -props.mass * GRAVITY])
    buoyancy = rotation.T @ np.array(
        [0.0, 0.0, flow.density * props.volume * GRAVITY])
    f_thr = rotation.T @ tether_force

    force += weight + buoyancy + f_thr
    moment += (cross3(props.r_cg, weight) + cross3(props.r_cb, buoyancy)
               + cross3(props.r_attach, f_thr))

    for surface in props.surfaces:
        delta = deflections.get(surface.control, 0.0)
        f_s, m_s = surface_force_moment(surface, nu, delta, props.ref_area,
                                        flow.density)
        force += f_s
        moment += m_s

    return np.concatenate([force, moment])


def build_kite(
    planform: WingPlanform,
    wing_mass: float,
    fuselage: FuselageDesign,
    fuse_mass: float,
    rule: ScalingRule = ScalingRule(),
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
    foil: FourDigitFoil = FourDigitFoil(),
    elevator_gain: float = 2.0,
    aileron_gain: float = 1.5,
    rudder_gain: float = 2.0,
    wing_incidence: float = 0.065,
) -> KiteProperties:
    """Assemble the simulated kite from sized components.

    Ballast closes neutral buoyancy and sits at the center of buoyancy, so
    the all-up mass equals the displaced water mass whenever the structure
    is light enough to float.
    """
    s = planform.span
    c = planform.chord
    d, length = fuselage.diameter, fuselage.length
    s_ref = planform.area

    hstab = rule.hstab(planform)
    vstab = rule.vstab(planform)
    # hull nose ahead of the wing leading edge, tail surfaces near the stern
    x_nose = WING_MOUNT_FRACTION * length
    x_tail = x_nose - TAIL_FRACTION * length
    x_hull_mid = x_nose - 0.5 * length
    z_hull = -0.5 * d
    z_vstab = 0.5 * vstab.span + z_hull

    volume = displaced_volume(planform, d, length, rule, foil)
    structural = wing_mass + fuse_mass
    ballast = ballast_mass(structural, volume, flow.density)
    total = structural + ballast

    # component centers: wing mass on the quarter-chord line, hull mass at
    # mid-hull, ballast at the center of buoyancy
    r_wing = np.array([-0.25 * c, 0.0, 0.0])
    r_hull = np.array([x_hull_mid, 0.0, z_hull])

    vol_wing = volume - math.pi * (d / 2.0) ** 2 * length
    r_cb = (vol_wing * np.array([-0.42 * c, 0.0, 0.0])
            + (volume - vol_wing) * r_hull) / volume
    r_cg = (wing_mass * r_wing + fuse_mass * r_hull + ballast * r_cb) / total
    r_attach = np.array([-0.25 * c, 0.0, z_hull - 0.5 * d])

    inertia = np.zeros((3, 3))
    for m_comp, r_comp, local in (
        (wing_mass, r_wing, np.diag([s**2 / 12.0, c**2 / 12.0,
                                     (s**2 + c**2) / 12.0])),
        (fuse_mass, r_hull, np.diag([(d / 2.0) ** 2 / 2.0, length**2 / 12.0,
                                     length**2 / 12.0])),
        (ballast, r_cb, np.zeros((3, 3))),
    ):
        offset = (r_comp @ r_comp) * np.eye(3) - np.outer(r_comp, r_comp)
        inertia += m_comp * (local + offset)

    rho = flow.density
    plate_w = rho * math.pi * c**2 / 4.0 * s
    plate_h = rho * math.pi * hstab.chord**2 / 4.0 * hstab.span
    plate_v = rho * math.pi * vstab.chord**2 / 4.0 * vstab.span
    hull_cross = rho * math.pi * (d / 2.0) ** 2 * length
    added = np.array([
        0.1 * hull_cross + 0.02 * plate_w,
        hull_cross + plate_v,
        plate_w + plate_h + hull_cross,
        plate_w * s**2 / 12.0 + plate_v * z_vstab**2,
        plate_h * x_tail**2 + hull_cross * length**2 / 12.0,
        plate_v * x_tail**2 + hull_cross * length**2 / 12.0,
    ])

    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    surfaces = [
        SurfaceDef("port_wing", np.array([-0.25 * c, 0.25 * s, 0.0]),
                   ez, ey, foil_coeffs, planform.aspect_ratio, 0.5,
                   incidence=wing_incidence,
                   control="aileron", deflection_gain=aileron_gain),
        SurfaceDef("starboard_wing", np.array([-0.25 * c, -0.25 * s, 0.0]),
                   ez, ey, foil_coeffs, planform.aspect_ratio, 0.5,
                   incidence=wing_incidence,
                   control="aileron", deflection_gain=-aileron_gain),
        SurfaceDef("hstab", np.array([x_tail, 0.0, z_hull]),
                   ez, ey, foil_coeffs, hstab.aspect_ratio,
                   rule.hstab_area_fraction,
                   control="elevator", deflection_gain=elevator_gain),
        SurfaceDef("vstab", np.array([x_tail, 0.0, z_vstab]),
                   -ey, ez, FoilCoeffs(gamma=foil_coeffs.gamma,
                                       e_lift=foil_coeffs.e_lift,
                                       e_drag=foil_coeffs.e_drag,
                                       cl_zero=0.0, cl_min_drag=0.0,
                                       k_visc=foil_coeffs.k_visc,
                                       cd_zero=foil_coeffs.cd_zero),
                   vstab.aspect_ratio, rule.vstab_area_fraction,
                   control="rudder", deflection_gain=rudder_gain),
        SurfaceDef("fuselage", np.array([x_hull_mid, 0.0, z_hull]),
                   ez, ey, FUSELAGE_FOIL, d / length,
                   (math.pi * d**2 / 4.0) / s_ref),
    ]

    return KiteProperties(
        mass=total, volume=volume, inertia=inertia, r_cg=r_cg, r_cb=r_cb,
        r_attach=r_attach, added_mass=added, surfaces=surfaces,
        ref_area=s_ref, planform=planform, structural_mass=structural,
        ballast=ballast)
