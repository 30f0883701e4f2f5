"""Rigid 6-DOF kite body with five quasi-steady hydrodynamic surfaces.

Body frame: x forward, y to port, z up, origin at the wing leading edge
mid-span.  The equations of motion use the 6-vector relative velocity
nu = [v_body - R^T u_flow, omega] and read M nu_dot = tau(nu) - C(nu) nu
with M the rigid-body-plus-added-mass matrix and C the standard skew
Coriolis construction, which is energy-neutral by design.

The per-step terms (coriolis_force, net_force_moment) work on plain
floats: on 3- and 6-vectors NumPy's per-call overhead costs more than
the arithmetic.  They are written on scalars, and net_force_moment sums
every surface's lift, drag and moment in one loop, with no call per
surface.  They read slices of the simulator state, which is one list of
floats through every RK4 step of Simulator.run, and return tuples of
floats.  Rotations are three rows of floats, as quat_to_rot in sim.py
returns them.

Each surface is described once, as a SurfaceRow: surface() takes its
geometry, foil and aspect ratio and derives the chordwise axis, lift slope
and drag factor.  Only the flow-dependent 1/2 rho S_ref is left to
ForceTable, built once per simulator from the kite and a flow.  It binds
each surface's q_ref times area fraction into the flat row the force sum
reads, so the sum forms q_ref * area_fraction * speed^2 with one product
per surface and the same rounding, as Python multiplies left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ..design import ScalingRule, ballast_mass, displaced_volume
from ..errors import NotPositiveDefinite
from ..fusestruct import TAIL_FRACTION, WING_MOUNT_FRACTION, FuselageDesign
from ..hydro import FlowEnv, FoilCoeffs, WingPlanform
from ..wingstruct import FourDigitFoil

GRAVITY = 9.81

# slender-body foil stand-in for the hull: no camber lift, some cross-flow
# normal force, bluff-ish zero-lift drag on its (small) area fraction
FUSELAGE_FOIL = FoilCoeffs(gamma=0.3, e_lift=1.0, e_drag=1.0, cl_zero=0.0,
                           cl_min_drag=0.0, k_visc=0.0, cd_zero=0.05)

# build_kite's fixed tail gains (dCL per rad of deflection) and wing rigging
ELEVATOR_GAIN = 2.0
RUDDER_GAIN = 2.0
WING_INCIDENCE = 0.065   # rad


Vec3 = tuple[float, float, float]


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def cross3(a, b) -> Vec3:
    """a x b for two 3-sequences, as a tuple of floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def rotate(rot, v) -> Vec3:
    """rot @ v for a 3x3 given as three rows and a 3-sequence."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    x, y, z = v
    return (r00 * x + r01 * y + r02 * z,
            r10 * x + r11 * y + r12 * z,
            r20 * x + r21 * y + r22 * z)


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
    surfaces: list[SurfaceRow]
    ref_area: float
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


def coriolis_force(mass_rows, nu) -> tuple[float, ...]:
    """C(nu) nu from the momentum p = M nu, as cross products.

    With p = [p_lin, p_ang] and nu = [v, omega] this is
    [omega x p_lin, v x p_lin + omega x p_ang], the skew construction
    C = [[0, -S(p_lin)], [-S(p_lin), -S(p_ang)]] applied to nu, so
    nu . C(nu) nu = 0 up to rounding.  mass_rows is M as six rows.  The
    products and sums are those of the row-by-row product M nu and of
    cross3, in their order; l and h are the linear and angular momentum.
    """
    u, v, w, p, q, r = nu
    ((m00, m01, m02, m03, m04, m05), (m10, m11, m12, m13, m14, m15),
     (m20, m21, m22, m23, m24, m25), (m30, m31, m32, m33, m34, m35),
     (m40, m41, m42, m43, m44, m45), (m50, m51, m52, m53, m54, m55)) = mass_rows
    lx = m00 * u + m01 * v + m02 * w + m03 * p + m04 * q + m05 * r
    ly = m10 * u + m11 * v + m12 * w + m13 * p + m14 * q + m15 * r
    lz = m20 * u + m21 * v + m22 * w + m23 * p + m24 * q + m25 * r
    hx = m30 * u + m31 * v + m32 * w + m33 * p + m34 * q + m35 * r
    hy = m40 * u + m41 * v + m42 * w + m43 * p + m44 * q + m45 * r
    hz = m50 * u + m51 * v + m52 * w + m53 * p + m54 * q + m55 * r
    return (q * lz - r * ly, r * lx - p * lz, p * ly - q * lx,
            (v * lz - w * ly) + (q * hz - r * hy),
            (w * lx - u * lz) + (r * hx - p * hz),
            (u * ly - v * lx) + (p * hy - q * hx))


class SurfaceRow(NamedTuple):
    """One quasi-steady lifting surface in plain floats, as the per-step
    force sum reads it; surface() builds it from a foil.

    normal is the suction-side unit vector, spanwise the positive-span
    direction and chordwise spanwise x normal.  The lift slope and drag
    factor are the surface's own foil's at its own aspect ratio, and the
    forces scale with its fraction of the kite reference area.  gain is
    the deflection gain in dCL per rad and is signed per surface: the
    starboard aileron's is the port one's negated, so one aileron command
    deflects the pair antisymmetrically.
    """

    name: str
    center: Vec3
    normal: Vec3
    chordwise: Vec3
    spanwise: Vec3
    incidence: float
    lift_slope: float     # dCL/dalpha of the surface's foil at its AR
    cl_zero: float
    drag_factor: float    # induced plus viscous k of the parabolic polar
    cl_min_drag: float
    cd_zero: float
    control: str          # "aileron" | "elevator" | "rudder" | ""
    gain: float
    area_fraction: float


def surface(name: str, center, normal, spanwise, foil: FoilCoeffs,
            aspect_ratio: float, area_fraction: float, incidence: float = 0.0,
            control: str = "", gain: float = 0.0) -> SurfaceRow:
    """The SurfaceRow of a surface with the given foil and aspect ratio;
    center, normal and spanwise are body-axis 3-sequences."""
    normal = tuple(map(float, normal))
    spanwise = tuple(map(float, spanwise))
    return SurfaceRow(
        name, tuple(map(float, center)), normal, cross3(spanwise, normal),
        spanwise, incidence, foil.lift_slope(aspect_ratio), foil.cl_zero,
        foil.drag_factor(aspect_ratio), foil.cl_min_drag, foil.cd_zero,
        control, gain, area_fraction)


@dataclass(frozen=True)
class ForceTable:
    """What net_force_moment needs of a kite in a flow, in plain floats.

    Built once per simulator from KiteProperties and FlowEnv; the body
    vectors are in body axes, the weight and buoyancy are magnitudes.
    q_ref is 1/2 rho S_ref: a surface's force per CL per speed^2 is q_ref
    times its area fraction.  rows holds each surface as the flat tuple
    net_force_moment reads: its body vectors' components, its foil
    numbers, its control tag and gain, and that product.
    """

    weight: float
    buoyancy: float
    r_cg: Vec3
    r_cb: Vec3
    r_attach: Vec3
    q_ref: float
    surfaces: tuple[SurfaceRow, ...]
    rows: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            (*s.center, *s.normal, *s.chordwise, *s.spanwise, s.incidence,
             s.lift_slope, s.cl_zero, s.drag_factor, s.cl_min_drag, s.cd_zero,
             s.control, s.gain, self.q_ref * s.area_fraction)
            for s in self.surfaces))

    @classmethod
    def of(cls, props: KiteProperties, flow: FlowEnv) -> "ForceTable":
        return cls(
            props.mass * GRAVITY,
            flow.density * props.volume * GRAVITY,
            tuple(props.r_cg.tolist()), tuple(props.r_cb.tolist()),
            tuple(props.r_attach.tolist()),
            0.5 * flow.density * props.ref_area, tuple(props.surfaces))


def net_force_moment(
    table: ForceTable,
    rotation,
    nu,
    tether_force,
    deflections: dict[str, float],
) -> tuple[float, ...]:
    """Generalized force tau = (force, moment) in body axes.

    rotation maps body to inertial, given as three rows; tether_force is
    inertial, applied at the attachment point.  deflections keys the
    surfaces' control tags.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    # gravity and buoyancy act along inertial z: the third row of rotation
    w_b = -table.weight
    b_b = table.buoyancy
    wx, wy, wz = r20 * w_b, r21 * w_b, r22 * w_b
    bx, by, bz = r20 * b_b, r21 * b_b, r22 * b_b
    tx, ty, tz = tether_force
    hx = r00 * tx + r10 * ty + r20 * tz
    hy = r01 * tx + r11 * ty + r21 * tz
    hz = r02 * tx + r12 * ty + r22 * tz

    fx = wx + bx + hx
    fy = wy + by + hy
    fz = wz + bz + hz
    # r x F about the body origin, as cross3 forms it, for the weight at
    # r_cg, the buoyancy at r_cb and the tether pull at r_attach
    cgx, cgy, cgz = table.r_cg
    cbx, cby, cbz = table.r_cb
    atx, aty, atz = table.r_attach
    mx = (cgy * wz - cgz * wy) + (cby * bz - cbz * by) + (aty * hz - atz * hy)
    my = (cgz * wx - cgx * wz) + (cbz * bx - cbx * bz) + (atz * hx - atx * hz)
    mz = (cgx * wy - cgy * wx) + (cbx * by - cby * bx) + (atx * hy - aty * hx)

    # each surface's quasi-steady lift and drag in body axes, and their
    # moment about the body origin
    u, v, w, p, q, r = nu
    for (cx, cy, cz, nx, ny, nz, tx, ty, tz, sx, sy, sz, incidence,
         lift_slope, cl_zero, drag_factor, cl_min_drag, cd_zero, control,
         gain, q_area) in table.rows:
        vx = u + (q * cz - r * cy)
        vy = v + (r * cx - p * cz)
        vz = w + (p * cy - q * cx)
        speed = math.sqrt(vx * vx + vy * vy + vz * vz)
        if speed < 1e-9:
            # no force or moment, still added: a -0.0 sum becomes 0.0
            sfx = sfy = sfz = smx = smy = smz = 0.0
        else:
            u_n = vx * nx + vy * ny + vz * nz
            u_t = vx * tx + vy * ty + vz * tz
            alpha = math.atan2(-u_n, u_t) + incidence

            # hydro.lift_coeff and drag_coeff, with the row's slope and k
            cl = lift_slope * alpha + cl_zero
            cl += gain * deflections.get(control, 0.0)
            cd = drag_factor * (cl - cl_min_drag) ** 2 + cd_zero

            dx, dy, dz = -vx / speed, -vy / speed, -vz / speed
            lx, ly, lz = sy * dz - sz * dy, sz * dx - sx * dz, sx * dy - sy * dx
            norm = math.sqrt(lx * lx + ly * ly + lz * lz)
            q_s = q_area * speed**2
            if norm < 1e-9:
                # flow along the span: no lift, drag only
                q_d = q_s * cd
                sfx, sfy, sfz = q_d * dx, q_d * dy, q_d * dz
            else:
                sfx = q_s * (cl * (lx / norm) + cd * dx)
                sfy = q_s * (cl * (ly / norm) + cd * dy)
                sfz = q_s * (cl * (lz / norm) + cd * dz)
            smx = cy * sfz - cz * sfy
            smy = cz * sfx - cx * sfz
            smz = cx * sfy - cy * sfx
        fx += sfx
        fy += sfy
        fz += sfz
        mx += smx
        my += smy
        mz += smz

    return (fx, fy, fz, mx, my, mz)


def build_kite(
    planform: WingPlanform,
    wing_mass: float,
    fuselage: FuselageDesign,
    fuse_mass: float,
    rule: ScalingRule = ScalingRule(),
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
    foil: FourDigitFoil = FourDigitFoil(),
    aileron_gain: float = 1.5,
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

    ey, ez = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    surfaces = [
        surface("port_wing", (-0.25 * c, 0.25 * s, 0.0), ez, ey, foil_coeffs,
                planform.aspect_ratio, 0.5, incidence=WING_INCIDENCE,
                control="aileron", gain=aileron_gain),
        surface("starboard_wing", (-0.25 * c, -0.25 * s, 0.0), ez, ey,
                foil_coeffs, planform.aspect_ratio, 0.5,
                incidence=WING_INCIDENCE, control="aileron", gain=-aileron_gain),
        surface("hstab", (x_tail, 0.0, z_hull), ez, ey, foil_coeffs,
                hstab.aspect_ratio, rule.hstab_area_fraction,
                control="elevator", gain=ELEVATOR_GAIN),
        # the fin's suction side is starboard (-y, with signed zeros)
        surface("vstab", (x_tail, 0.0, z_vstab), (-0.0, -1.0, -0.0), ez,
                replace(foil_coeffs, cl_zero=0.0, cl_min_drag=0.0),
                vstab.aspect_ratio, rule.vstab_area_fraction,
                control="rudder", gain=RUDDER_GAIN),
        surface("fuselage", (x_hull_mid, 0.0, z_hull), ez, ey, FUSELAGE_FOIL,
                d / length, (math.pi * d**2 / 4.0) / s_ref),
    ]

    return KiteProperties(
        mass=total, volume=volume, inertia=inertia, r_cg=r_cg, r_cb=r_cb,
        r_attach=r_attach, added_mass=added, surfaces=surfaces,
        ref_area=s_ref, structural_mass=structural,
        ballast=ballast)
