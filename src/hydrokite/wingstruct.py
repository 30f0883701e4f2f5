"""Wing structural cross-section model and minimum-mass sizing.

The load-bearing section is an outline shell (uniform inward offset of a
four-digit foil outline) plus one to three vertical spar webs that run from
the lower to the upper surface at fixed chordwise stations.  Area and bending
inertia are computed per unit chord by vertical-strip integration and scaled
by c^2 and c^4; the outline is chord-proportional so the scaling is exact.

Sizing minimizes section area (hence wing mass) subject to a bending-inertia
floor derived from a cantilever tip-deflection limit on the half wing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, Infeasible
from .hydro import FlowEnv, FoilCoeffs, WingPlanform, drag_coeff, lift_coeff, max_glide_cubed

# chordwise spar stations (fraction of chord) keyed by spar count
SPAR_STATIONS = {1: (0.25,), 2: (0.10, 0.40), 3: (0.15, 0.30, 0.60)}

# bounds used by the sizing search, in the native units of each variable
SPAR_WIDTH_MAX_PCT = 20.0   # % of chord
SHELL_MAX_PCT = 10.0        # % of max section thickness
TIP_DEFLECTION_FRACTION = 0.05  # of the half span

# fraction of the ideal crosswind tension a closed-loop lap sustains; sets
# the rated load case of both the wing and the hull
RATED_EFFICIENCY = 0.33


@dataclass(frozen=True)
class Material:
    """Isotropic structural material (defaults: 6061 aluminum alloy)."""

    density: float = 2700.0        # kg/m^3
    youngs_modulus: float = 6.89e10  # Pa
    yield_stress: float = 2.70e8   # Pa


@dataclass(frozen=True)
class FourDigitFoil:
    """NACA four-digit outline with a closed trailing edge.

    camber: max camber as fraction of chord; camber_pos: its chordwise
    position; thickness: max thickness as fraction of chord.
    """

    camber: float = 0.02
    camber_pos: float = 0.4
    thickness: float = 0.12

    def half_thickness(self, x):
        """Thickness distribution y_t(x) per unit chord (closed-TE polynomial)."""
        x = np.asarray(x, dtype=float)
        return 5.0 * self.thickness * (
            0.2969 * np.sqrt(x)
            - 0.1260 * x
            - 0.3516 * x**2
            + 0.2843 * x**3
            - 0.1036 * x**4
        )

    def camber_line(self, x):
        """Mean camber line y_c(x) per unit chord."""
        x = np.asarray(x, dtype=float)
        m, p = self.camber, self.camber_pos
        if m == 0.0:
            return np.zeros_like(x)
        fore = m / p**2 * (2.0 * p * x - x**2)
        aft = m / (1.0 - p) ** 2 * ((1.0 - 2.0 * p) + 2.0 * p * x - x**2)
        return np.where(x < p, fore, aft)

    def surfaces(self, x):
        """Upper and lower surface ordinates (thickness applied vertically)."""
        yt = self.half_thickness(x)
        yc = self.camber_line(x)
        return yc + yt, yc - yt

    def outline(self, n: int = 400):
        """Closed outline polygon (x, y), trailing edge to trailing edge."""
        beta = np.linspace(0.0, math.pi, n)
        x = 0.5 * (1.0 - np.cos(beta))
        yu, yl = self.surfaces(x)
        xs = np.concatenate([x[::-1], x[1:]])
        ys = np.concatenate([yu[::-1], yl[1:]])
        return xs, ys


@dataclass(frozen=True)
class WingStructureDesign:
    """Structural layout variables for the wing cross-section.

    n_spars in {1, 2, 3}; spar_width_pct is each web's chordwise width in % of
    chord; shell_pct is the skin thickness in % of the max section thickness.
    """

    n_spars: int
    spar_width_pct: float
    shell_pct: float

    def __post_init__(self):
        if self.n_spars not in SPAR_STATIONS:
            raise ValueError(f"n_spars must be one of {sorted(SPAR_STATIONS)}")
        if self.spar_width_pct < 0.0 or self.shell_pct < 0.0:
            raise ValueError("thicknesses must be non-negative")
        object.__setattr__(self, "spar_width_pct", float(self.spar_width_pct))
        object.__setattr__(self, "shell_pct", float(self.shell_pct))


@dataclass(frozen=True)
class SectionProperties:
    """Composite section area, bending inertia, and neutral-axis height."""

    area: float      # m^2
    inertia: float   # m^4, about the horizontal neutral axis
    y_neutral: float  # m, above the chord line


class SectionIntegrator:
    """Vertical-strip integrator for the shell + spar cross-section.

    All geometry lives in unit-chord space; results scale as c^2 (area) and
    c^4 (inertia).  Stations are cosine-spaced midpoints, which resolves the
    sqrt leading-edge nose without excessive point counts.
    """

    def __init__(self, foil: FourDigitFoil = FourDigitFoil(), n_stations: int = 2000):
        self.foil = foil
        edges = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, n_stations + 1)))
        self.x = 0.5 * (edges[:-1] + edges[1:])
        self.dx = np.diff(edges)
        self.y_up, self.y_lo = foil.surfaces(self.x)
        # slope factors turn a normal offset into a vertical strip height
        du = np.gradient(self.y_up, self.x)
        dl = np.gradient(self.y_lo, self.x)
        self.f_up = np.sqrt(1.0 + du**2)
        self.f_lo = np.sqrt(1.0 + dl**2)
        self.t_max = float(np.max(self.y_up - self.y_lo))

    def _spar_mask(self, n_spars: int, width: float) -> np.ndarray:
        mask = np.zeros_like(self.x, dtype=bool)
        for station in SPAR_STATIONS[n_spars]:
            lo = max(0.0, station - 0.5 * width)
            hi = min(1.0, station + 0.5 * width)
            mask |= (self.x >= lo) & (self.x <= hi)
        return mask

    def properties(self, design: WingStructureDesign) -> SectionProperties:
        """Unit-chord area, inertia about the neutral axis, and its height."""
        t_shell = design.shell_pct / 100.0 * self.t_max
        if t_shell > 0.5 * self.t_max:
            raise GeometryError(
                "shell offset exceeds the section half-thickness; "
                "the inner surface self-intersects"
            )
        width = design.spar_width_pct / 100.0
        depth = self.y_up - self.y_lo
        band_up = t_shell * self.f_up
        band_lo = t_shell * self.f_lo
        solid = self._spar_mask(design.n_spars, width) | (band_up + band_lo >= depth)

        # strip segments: full depth where solid, else two shell bands
        if t_shell > 0.0 or width > 0.0:
            a1 = self.y_lo
            b1 = np.where(solid, self.y_up, self.y_lo + band_lo)
            a2 = np.where(solid, self.y_up, self.y_up - band_up)
            b2 = self.y_up
        else:
            return SectionProperties(0.0, 0.0, 0.0)

        h1 = b1 - a1
        h2 = b2 - a2
        area = float(np.sum((h1 + h2) * self.dx))
        if area == 0.0:
            return SectionProperties(0.0, 0.0, 0.0)
        first = float(np.sum(((b1**2 - a1**2) + (b2**2 - a2**2)) * 0.5 * self.dx))
        second = float(np.sum(((b1**3 - a1**3) + (b2**3 - a2**3)) / 3.0 * self.dx))
        y_bar = first / area
        inertia = second - area * y_bar**2
        return SectionProperties(area, inertia, y_bar)


_DEFAULT_INTEGRATOR: dict[tuple, SectionIntegrator] = {}


def _integrator(foil: FourDigitFoil, n_stations: int) -> SectionIntegrator:
    key = (foil, n_stations)
    if key not in _DEFAULT_INTEGRATOR:
        _DEFAULT_INTEGRATOR[key] = SectionIntegrator(foil, n_stations)
    return _DEFAULT_INTEGRATOR[key]


def section_properties(
    design: WingStructureDesign,
    chord: float,
    foil: FourDigitFoil = FourDigitFoil(),
    n_stations: int = 2000,
) -> SectionProperties:
    """Dimensional section properties for a wing of the given chord (m)."""
    unit = _integrator(foil, n_stations).properties(design)
    return SectionProperties(
        area=unit.area * chord**2,
        inertia=unit.inertia * chord**4,
        y_neutral=unit.y_neutral * chord,
    )


def wing_mass(
    planform: WingPlanform,
    design: WingStructureDesign,
    material: Material = Material(),
    foil: FourDigitFoil = FourDigitFoil(),
    n_stations: int = 2000,
) -> float:
    """Wing structural mass in kg: density * span * section area."""
    props = section_properties(design, planform.chord, foil, n_stations=n_stations)
    return material.density * planform.span * props.area


def required_inertia(
    span: float,
    load: float,
    material: Material = Material(),
    deflection_fraction: float = TIP_DEFLECTION_FRACTION,
) -> float:
    """Bending-inertia floor for the half wing treated as a cantilever.

    A point load at the half wing's area centroid (a = s/4 from the root)
    must deflect the tip of the s/2 cantilever by no more than
    ``deflection_fraction`` of the half span:

        delta_tip = F * a^2 * (3*Lc - a) / (6*E*I),  Lc = s/2.
    """
    if load < 0.0:
        raise ValueError("load must be non-negative")
    half = 0.5 * span
    a = 0.25 * span
    delta_max = deflection_fraction * half
    return load * a**2 * (3.0 * half - a) / (6.0 * material.youngs_modulus * delta_max)


def rated_wing_load(
    planform: WingPlanform,
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
) -> float:
    """Default per-wing bending load in N for structural sizing.

    Total lift at the power-maximizing angle of attack with crosswind apparent
    speed v_a = (2/3) * v * (CL/CD), derated by ``RATED_EFFICIENCY``, split
    half per wing.  Equivalent to half the tether tension at the derated
    rated power with spool speed v/3.
    """
    _, alpha = max_glide_cubed(foil_coeffs, planform.aspect_ratio)
    cl = lift_coeff(foil_coeffs, planform.aspect_ratio, alpha)
    cd = drag_coeff(foil_coeffs, planform.aspect_ratio, cl)
    v_app = (2.0 / 3.0) * flow.speed * cl / cd
    total_lift = 0.5 * flow.density * planform.area * v_app**2 * cl
    return 0.5 * RATED_EFFICIENCY * total_lift


@dataclass(frozen=True)
class WingSizing:
    """Result of a minimum-mass wing structure search."""

    design: WingStructureDesign
    mass: float          # kg
    inertia: float       # m^4
    inertia_required: float  # m^4
    section_area: float  # m^2
    constraint_active: bool


def _min_spar_width(integ, n_spars, shell_pct, i_req_hat, tol=1e-4):
    """Smallest spar width (fraction of chord) meeting the inertia floor.

    Returns None when even the widest admissible web falls short.  Inertia is
    non-decreasing in web width, so a bracketing root solve applies.
    """
    w_hi = SPAR_WIDTH_MAX_PCT / 100.0

    def shortfall(w):
        d = WingStructureDesign(n_spars, w * 100.0, shell_pct)
        return integ.properties(d).inertia - i_req_hat

    f_lo = shortfall(0.0)
    if f_lo >= 0.0:
        return 0.0
    f_hi = shortfall(w_hi)
    if f_hi < 0.0:
        return None
    lo, hi = 0.0, w_hi
    for _ in range(60):
        if hi - lo <= tol * 0.01:
            break
        # regula falsi with a bisection fallback against stagnation
        w = lo + (hi - lo) * (-f_lo) / (f_hi - f_lo) if f_hi > f_lo else 0.5 * (lo + hi)
        w = min(max(w, lo + 0.1 * (hi - lo)), hi - 0.1 * (hi - lo))
        f = shortfall(w)
        if f >= 0.0:
            hi, f_hi = w, f
        else:
            lo, f_lo = w, f
    # widths below the search resolution round up rather than down so the
    # returned layout always satisfies the floor
    return max(hi, tol)


def swdt_optimize(
    planform: WingPlanform,
    load: float,
    material: Material = Material(),
    foil: FourDigitFoil = FourDigitFoil(),
    deflection_fraction: float = TIP_DEFLECTION_FRACTION,
    n_stations: int = 2000,
) -> WingSizing:
    """Minimum-mass wing structure subject to the tip-deflection inertia floor.

    Searches spar count in {1, 2, 3} and the two continuous thicknesses.  For
    each spar count, a shell-thickness sweep with an inner bisection on spar
    width traces the active-constraint boundary; the sweep winner is refined
    locally.  Ties break toward fewer spars, then narrower ones.

    Raises Infeasible when no admissible layout reaches the inertia floor.
    """
    integ = _integrator(foil, n_stations)
    c = planform.chord
    i_req = required_inertia(planform.span, load, material, deflection_fraction)
    i_req_hat = i_req / c**4

    best = None  # (area, n_spars, spar_pct, design, props)
    for n_spars in sorted(SPAR_STATIONS):
        def area_at(shell_pct, _n=n_spars):
            w = _min_spar_width(integ, _n, shell_pct, i_req_hat)
            if w is None:
                return None, None
            d = WingStructureDesign(_n, w * 100.0, shell_pct)
            return integ.properties(d), d

        # staged shell sweeps; the grids are shared across spar counts so
        # branches that collapse to the same shell-only layout tie exactly
        props_b = d_b = None
        center, half_width = 0.5 * SHELL_MAX_PCT, 0.5 * SHELL_MAX_PCT
        for n_pts in (41, 41, 21):
            lo = max(0.0, center - half_width)
            hi = min(SHELL_MAX_PCT, center + half_width)
            best_cell = None
            for sp in np.linspace(lo, hi, n_pts):
                props, d = area_at(round(sp, 9))
                if props is None:
                    continue
                if best_cell is None or props.area < best_cell[0]:
                    best_cell = (props.area, sp, props, d)
            if best_cell is None:
                break
            _, center, props_b, d_b = best_cell
            half_width = (hi - lo) / (n_pts - 1)
        if props_b is None:
            continue

        cand = (props_b.area, n_spars, d_b.spar_width_pct, d_b, props_b)
        if best is None or cand[0] < best[0] * (1.0 - 1e-4):
            best = cand
        elif cand[0] <= best[0] * (1.0 + 1e-4):
            # tie within search resolution: prefer fewer spars, then narrower
            if (cand[1], cand[2]) < (best[1], best[2]):
                best = cand

    if best is None:
        raise Infeasible(
            "no wing structure within bounds reaches the required bending inertia",
            detail={"inertia_required_m4": i_req},
        )

    _, n_spars, _, design, props = best
    # polish the controlling variable so the floor is met with <= 0.1% excess
    design, props = _tighten(integ, design, i_req_hat)
    area = props.area * c**2
    inertia = props.inertia * c**4
    mass = material.density * planform.span * area
    active = i_req > 0.0 and inertia <= 1.02 * i_req
    return WingSizing(design, mass, inertia, i_req, area, active)


def _shave(integ, design, i_req_hat, which):
    """Bisect one thickness down until inertia sits within 0.1% of the floor."""
    if which == "spar":
        hi = design.spar_width_pct

        def build(v):
            return WingStructureDesign(design.n_spars, v, design.shell_pct)
    else:
        hi = design.shell_pct

        def build(v):
            return WingStructureDesign(design.n_spars, design.spar_width_pct, v)

    lo = 0.0
    if integ.properties(build(lo)).inertia >= i_req_hat:
        return build(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if integ.properties(build(mid)).inertia >= i_req_hat:
            hi = mid
        else:
            lo = mid
        if integ.properties(build(hi)).inertia <= i_req_hat * 1.001:
            break
    return build(hi)


def _tighten(integ, design, i_req_hat):
    """Remove excess inertia so the deflection constraint ends up active."""
    props = integ.properties(design)
    if i_req_hat <= 0.0 or props.inertia <= i_req_hat * 1.001:
        return design, props
    if design.spar_width_pct > 0.0:
        design = _shave(integ, design, i_req_hat, "spar")
        props = integ.properties(design)
    if props.inertia > i_req_hat * 1.001 and design.shell_pct > 0.0:
        design = _shave(integ, design, i_req_hat, "shell")
        props = integ.properties(design)
    return design, props
