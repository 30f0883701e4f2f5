"""Wing structural cross-section model and minimum-mass sizing.

The load-bearing section is an outline shell (uniform inward offset of a
four-digit foil outline) plus one to three vertical spar webs that run from
the lower to the upper surface at fixed chordwise stations.  Area and bending
inertia are computed per unit chord by vertical-strip integration and scaled
by c^2 and c^4; the outline is chord-proportional so the scaling is exact.
The strip sums are taken in closed form: per strip, the shell's share is a
polynomial in the shell thickness and a closed strip's share is fixed, so
prefix sums over the station grid, taken once per foil and grid, give any
section from a few index ranges (see ``SectionIntegrator``).  That needs
the shell to close stations from both ends of the chord inward, which the
integrator checks when it is built.

Sizing minimizes section area (hence wing mass) subject to a bending-inertia
floor derived from a cantilever tip-deflection limit on the half wing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, Infeasible, check_fields
from .hydro import FlowEnv, FoilCoeffs, WingPlanform, max_glide_cubed

# chordwise spar stations (fraction of chord) keyed by spar count
SPAR_STATIONS = {1: (0.25,), 2: (0.10, 0.40), 3: (0.15, 0.30, 0.60)}

# bounds used by the sizing search, in the native units of each variable
SPAR_WIDTH_MAX_PCT = 20.0   # % of chord
SHELL_MAX_PCT = 10.0        # % of max section thickness
TIP_DEFLECTION_FRACTION = 0.05  # of the half span
SPAR_WIDTH_TOL = 1e-4          # fraction of chord; the spar-width resolution

# chordwise strips in the section integration
N_STATIONS = 2000

# fraction of the ideal crosswind tension a closed-loop lap sustains; sets
# the rated load case of both the wing and the hull
RATED_EFFICIENCY = 0.33


@dataclass(frozen=True)
class Material:
    """Isotropic structural material (defaults: 6061 aluminum alloy)."""

    density: float = 2700.0        # kg/m^3
    youngs_modulus: float = 6.89e10  # Pa
    yield_stress: float = 2.70e8   # Pa

    def __post_init__(self):
        check_fields(self, positive=("density", "youngs_modulus",
                                     "yield_stress"))


# NACA four-digit thickness polynomial, closed trailing edge:
# y_t / (5 t) = a0 sqrt(x) - a1 x - a2 x^2 + a3 x^3 - a4 x^4
NACA_THICKNESS = (0.2969, 0.1260, 0.3516, 0.2843, 0.1036)


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
        a0, a1, a2, a3, a4 = NACA_THICKNESS
        return 5.0 * self.thickness * (
            a0 * np.sqrt(x) - a1 * x - a2 * x**2 + a3 * x**3 - a4 * x**4)

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
    """Closed-form vertical-strip integrator for the shell + spar section.

    All geometry lives in unit-chord space; results scale as c^2 (area) and
    c^4 (inertia).  Stations are cosine-spaced midpoints, which resolves the
    sqrt leading-edge nose without excessive point counts.

    Each station is a vertical strip of depth ``y_up - y_lo``.  While the
    shell of thickness t leaves it open, its two bands (vertical heights
    t*f_up and t*f_lo, the normal offset stretched by the surface slope) add
    area, first and second moment that are polynomials in t of degree 1, 2
    and 3; a closed strip adds its full depth, a fixed amount.  A spar web
    closes the stations inside it, one index range on ``x`` per web, and the
    shell closes station i once t >= tau_i = depth_i / (f_up_i + f_lo_i).

    The constructor checks that tau rises strictly to a single peak and then
    falls strictly (``GeometryError`` otherwise); the shell-closed stations
    are then the two index ranges [0, a) and [b, n), found by bisecting the
    rising and the falling half of tau.  The constructor also takes x-order
    prefix sums of the nine per-station coefficients (three closed-strip
    constants, six open-strip polynomial coefficients), so one section is
    the closed-strip sums over at most five merged index ranges plus the
    open-strip polynomials summed over the rest: a few bisections and a few
    dozen float operations per call, with no array work.

    Because a web closes whole stations, area and inertia are step functions
    of web width: every width whose webs close the same ranges
    (``web_cells``) gives the same section.  The sizing searches key the
    sections they have integrated by those ranges and call ``properties``
    once per cell.
    """

    def __init__(self, foil: FourDigitFoil = FourDigitFoil(), n_stations: int = N_STATIONS):
        self.foil = foil
        edges = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, n_stations + 1)))
        x = 0.5 * (edges[:-1] + edges[1:])
        dx = np.diff(edges)
        y_up, y_lo = foil.surfaces(x)
        f_up = np.sqrt(1.0 + np.gradient(y_up, x) ** 2)
        f_lo = np.sqrt(1.0 + np.gradient(y_lo, x) ** 2)
        depth = y_up - y_lo
        self.t_max = float(np.max(depth))

        tau = depth / (f_up + f_lo)
        peak = int(np.argmax(tau))
        if np.any(np.diff(tau[:peak + 1]) <= 0.0) or np.any(np.diff(tau[peak:]) >= 0.0):
            raise GeometryError(
                "the shell thickness that closes a station does not rise to "
                f"one peak and then fall along the chord ({foil}, "
                f"{n_stations} stations)")
        self._x = x.tolist()
        self._tau_rise = tau[:peak + 1].tolist()
        self._neg_tau_fall = (-tau[peak + 1:]).tolist()

        coeffs = np.array([
            # closed strip: area, first and second moment about the chord
            depth,
            0.5 * (y_up**2 - y_lo**2),
            (y_up**3 - y_lo**3) / 3.0,
            # open strip: area t^1; first moment t^1, t^2; second t^1..t^3
            f_up + f_lo,
            y_up * f_up + y_lo * f_lo,
            0.5 * (f_lo**2 - f_up**2),
            y_up**2 * f_up + y_lo**2 * f_lo,
            y_lo * f_lo**2 - y_up * f_up**2,
            (f_up**3 + f_lo**3) / 3.0,
        ]) * dx
        prefix = np.zeros((len(coeffs), n_stations + 1))
        np.cumsum(coeffs, axis=1, out=prefix[:, 1:])
        self._prefix = prefix.tolist()

    def web_cells(self, n_spars: int, spar_width_pct: float) -> tuple:
        """The station index range [start, stop) each web closes, in
        ``SPAR_STATIONS`` order.

        A section is a function of the shell thickness and these ranges
        alone, so two web widths with the same ranges give the same section.
        """
        half = 0.5 * (spar_width_pct / 100.0)
        return tuple([(bisect_left(self._x, station - half),
                       bisect_right(self._x, station + half))
                      for station in SPAR_STATIONS[n_spars]])

    def properties(self, design: WingStructureDesign) -> SectionProperties:
        """Unit-chord area, inertia about the neutral axis, and its height."""
        t = design.shell_pct / 100.0 * self.t_max
        if t > 0.5 * self.t_max:
            raise GeometryError(
                "shell offset exceeds the section half-thickness; "
                "the inner surface self-intersects"
            )
        n = len(self._x)
        closed = [(0, bisect_right(self._tau_rise, t)),
                  (len(self._tau_rise) + bisect_left(self._neg_tau_fall, -t), n),
                  *self.web_cells(design.n_spars, design.spar_width_pct)]
        merged = []
        end = 0
        for start, stop in sorted(closed):
            start = max(start, end)
            if start < stop:
                merged.append((start, stop))
                end = stop

        # closed-strip sums over the merged ranges; open strips are the rest
        sums = []
        for row in self._prefix:
            acc = 0.0
            for start, stop in merged:
                acc += row[stop] - row[start]
            sums.append(acc)
        a0, f0, s0 = sums[:3]
        a1, f1, f2, s1, s2, s3 = (
            row[n] - acc for row, acc in zip(self._prefix[3:], sums[3:]))
        area = a0 + t * a1
        if area == 0.0:
            return SectionProperties(0.0, 0.0, 0.0)
        first = f0 + t * (f1 + t * f2)
        second = s0 + t * (s1 + t * (s2 + t * s3))
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
    n_stations: int = N_STATIONS,
) -> SectionProperties:
    """Dimensional section properties for a wing of the given chord (m)."""
    unit = _integrator(foil, n_stations).properties(design)
    return SectionProperties(
        area=unit.area * chord**2,
        inertia=unit.inertia * chord**4,
        y_neutral=unit.y_neutral * chord,
    )


def wing_mass(planform: WingPlanform, area: float,
              material: Material = Material()) -> float:
    """Wing structural mass in kg: density * span * section area (m^2)."""
    return material.density * planform.span * area


def required_inertia(
    span: float,
    load: float,
    material: Material = Material(),
) -> float:
    """Bending-inertia floor for the half wing treated as a cantilever.

    A point load at the half wing's area centroid (a = s/4 from the root)
    must deflect the tip of the s/2 cantilever by no more than
    ``TIP_DEFLECTION_FRACTION`` of the half span:

        delta_tip = F * a^2 * (3*Lc - a) / (6*E*I),  Lc = s/2.
    """
    if load < 0.0:
        raise ValueError("load must be non-negative")
    half = 0.5 * span
    a = 0.25 * span
    delta_max = TIP_DEFLECTION_FRACTION * half
    return load * a**2 * (3.0 * half - a) / (6.0 * material.youngs_modulus * delta_max)


def rated_wing_load(
    planform: WingPlanform,
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
) -> float:
    """Default per-wing bending load in N for structural sizing.

    Total lift at the glide-ratio optimum, derated by ``RATED_EFFICIENCY``,
    split half per wing.  With crosswind apparent speed v_a = (2/3)*v*CL/CD
    the lift 0.5*rho*S*v_a^2*CL is 0.5*rho*S*((2/3)*v)^2 * max(CL^3/CD^2).
    Equivalent to half the tether tension at the derated rated power with
    spool speed v/3.
    """
    glide3 = max_glide_cubed(foil_coeffs, planform.aspect_ratio)
    total_lift = 0.5 * flow.density * planform.area * ((2.0 / 3.0) * flow.speed) ** 2 * glide3
    return 0.5 * RATED_EFFICIENCY * total_lift


@dataclass(frozen=True)
class WingSizing:
    """Result of a minimum-mass wing structure search."""

    design: WingStructureDesign
    mass: float          # kg
    inertia: float       # m^4
    inertia_required: float  # m^4
    section_area: float  # m^2

    @property
    def constraint_active(self) -> bool:
        """The section sits on the deflection floor, within 2%."""
        return self.inertia_required > 0.0 and self.inertia <= 1.02 * self.inertia_required


def _min_spar_width(integ, n_spars, shell_pct, i_req_hat):
    """Narrowest spar web meeting the inertia floor, as (design, unit props).

    Returns None when even the widest admissible web falls short.  Inertia is
    non-decreasing in web width, so a bracketing root solve applies.  It is
    also a step function of width, so once the bracket sits on one step the
    iterations land in station cells the solve has already integrated; each
    cell's section is integrated once and reused.
    """
    sections = {}  # web cells -> unit props, at this shell

    def section(w):
        cells = integ.web_cells(n_spars, w * 100.0)
        props = sections.get(cells)
        if props is None:
            props = sections[cells] = integ.properties(
                WingStructureDesign(n_spars, w * 100.0, shell_pct))
        return props

    def layout(w):
        return WingStructureDesign(n_spars, w * 100.0, shell_pct), section(w)

    f_lo = section(0.0).inertia - i_req_hat
    if f_lo >= 0.0:
        return layout(0.0)
    lo, hi = 0.0, SPAR_WIDTH_MAX_PCT / 100.0
    f_hi = section(hi).inertia - i_req_hat
    if f_hi < 0.0:
        return None
    for _ in range(60):
        if hi - lo <= SPAR_WIDTH_TOL * 0.01:
            break
        # regula falsi, kept off the bracket ends against stagnation; the
        # bracket holds f_hi >= 0 > f_lo, so the secant slope is positive
        w = lo + (hi - lo) * (-f_lo) / (f_hi - f_lo)
        w = min(max(w, lo + 0.1 * (hi - lo)), hi - 0.1 * (hi - lo))
        f = section(w).inertia - i_req_hat
        if f >= 0.0:
            hi, f_hi = w, f
        else:
            lo, f_lo = w, f
    # widths below the search resolution round up rather than down so the
    # returned layout always satisfies the floor
    return layout(SPAR_WIDTH_TOL if hi < SPAR_WIDTH_TOL else hi)


def swdt_optimize(
    planform: WingPlanform,
    load: float,
    material: Material = Material(),
    foil: FourDigitFoil = FourDigitFoil(),
    n_stations: int = N_STATIONS,
) -> WingSizing:
    """Minimum-mass wing structure subject to the tip-deflection inertia floor.

    Searches spar count in {1, 2, 3} and the two continuous thicknesses.
    Inertia rises with both thicknesses, so a spar count whose widest web in
    its thickest shell misses the floor is skipped after that one section.
    For the others, a shell-thickness sweep with an inner bisection on spar
    width traces the active-constraint boundary; the sweep winner is refined
    locally.  More spars win only with at least 0.01% less area, so ties
    break toward fewer spars.

    Raises Infeasible when no admissible layout reaches the inertia floor.
    """
    integ = _integrator(foil, n_stations)
    c = planform.chord
    i_req = required_inertia(planform.span, load, material)
    i_req_hat = i_req / c**4

    best = None  # (design, unit props)
    for n_spars in sorted(SPAR_STATIONS):
        corner = WingStructureDesign(n_spars, SPAR_WIDTH_MAX_PCT, SHELL_MAX_PCT)
        if integ.properties(corner).inertia < i_req_hat:
            continue
        # staged shell sweeps; the grids are shared across spar counts so
        # branches that collapse to the same shell-only layout tie exactly.
        # The corner passes, so the thickest shell of every stage does too.
        # A stage's grid shares its centre and ends with the stage before,
        # so each shell is sized once per spar count.
        center, half_width = 0.5 * SHELL_MAX_PCT, 0.5 * SHELL_MAX_PCT
        sized_at = {}  # rounded shell -> _min_spar_width result
        for n_pts in (41, 41, 21):
            lo = max(0.0, center - half_width)
            hi = min(SHELL_MAX_PCT, center + half_width)
            cell = None  # (unrounded shell, design, unit props)
            grid = np.linspace(lo, hi, n_pts)
            # each point is sized at its grid value rounded to 9 decimals by
            # NumPy; the next stage centres on the unrounded grid value
            for sp, sp_round in zip(grid.tolist(), np.round(grid, 9).tolist()):
                if sp_round not in sized_at:
                    sized_at[sp_round] = _min_spar_width(integ, n_spars, sp_round, i_req_hat)
                sized = sized_at[sp_round]
                if sized is not None and (cell is None or sized[1].area < cell[2].area):
                    cell = (sp, *sized)
            center = cell[0]
            half_width = (hi - lo) / (n_pts - 1)
        if best is None or cell[2].area < best[1].area * (1.0 - 1e-4):
            best = cell[1:]

    if best is None:
        raise Infeasible(
            "no wing structure within bounds reaches the required bending inertia",
            detail={"inertia_required_m4": i_req},
        )

    # polish the shell so the floor is met with <= 0.1% excess
    design, props = _tighten(integ, *best, i_req_hat)
    area = props.area * c**2
    return WingSizing(design, wing_mass(planform, area, material),
                      props.inertia * c**4, i_req, area)


def _tighten(integ, design, props, i_req_hat):
    """Bisect the shell of the sweep winner, handed on with its section,
    down until inertia sits within 0.1% of the floor; returns the (design,
    unit props) it stops at.  The sweep keeps a shell whose next-thinner
    neighbour fails at the same web cell, so a winner with a web overshoots
    by at most one shell step and in practice arrives inside the band."""
    if i_req_hat <= 0.0 or props.inertia <= i_req_hat * 1.001 or design.shell_pct == 0.0:
        return design, props
    zero = replace(design, shell_pct=0.0)
    zero_props = integ.properties(zero)
    if zero_props.inertia >= i_req_hat:
        return zero, zero_props
    lo, hi = 0.0, design.shell_pct
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cut = replace(design, shell_pct=mid)
        cut_props = integ.properties(cut)
        if cut_props.inertia >= i_req_hat:
            hi, design, props = mid, cut, cut_props
        else:
            lo = mid
        if props.inertia <= i_req_hat * 1.001:
            break
    return design, props
