"""Design-space search over the full kite parameterization.

Two formulations share the same component tools.  The Pareto formulation
minimizes structural wing mass subject to a power equality, solved either
by a nested-sequential pipeline (steady flight tool picks the geometry,
structure sized afterwards) or a fully nested search (structure sized for
every geometry meeting the power constraint).  The dual formulation
maximizes w*ln(P) - ln(m_wing), a log-space weighted power-to-mass ratio,
over all eight design variables at once with a genetic algorithm.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np
from scipy.optimize import minimize

from .design import (
    ASPECT_RANGE, FUSE_DIAMETER_RANGE, FUSE_LENGTH_RANGE, SPAN_RANGE,
    ScalingRule, displaced_volume,
)
from .effmap import EffSurface, default_surface
from .errors import (
    ConfigError, EmptySet, GeometryError, Infeasible, NoFeasibleIndividual,
    ThinWallViolation,
)
from .fusestruct import (
    THICKNESS_MAX_PCT, THICKNESS_MIN_PCT, FuselageDesign, constraint_margins,
    fuse_mass, rated_fuselage_loads, sfdt_optimize,
)
from .hydro import FlowEnv, FoilCoeffs, WingPlanform, loyd_power
from .wingstruct import (
    SHELL_MAX_PCT, SPAR_STATIONS, SPAR_WIDTH_MAX_PCT, FourDigitFoil,
    Material, WingStructureDesign, rated_wing_load, required_inertia,
    section_properties, swdt_optimize, wing_mass,
)

# spar counts with a station layout; the GA draws integers in this range
N_SPARS_MIN, N_SPARS_MAX = min(SPAR_STATIONS), max(SPAR_STATIONS)

# design vector order: s, AR, N_sp, spar width %c, shell %t, D, L, wall %D
DESIGN_LO = np.array([SPAN_RANGE[0], ASPECT_RANGE[0], N_SPARS_MIN, 0.0, 0.0,
                      FUSE_DIAMETER_RANGE[0], FUSE_LENGTH_RANGE[0],
                      THICKNESS_MIN_PCT])
DESIGN_HI = np.array([SPAN_RANGE[1], ASPECT_RANGE[1], N_SPARS_MAX,
                      SPAR_WIDTH_MAX_PCT, SHELL_MAX_PCT,
                      FUSE_DIAMETER_RANGE[1], FUSE_LENGTH_RANGE[1],
                      THICKNESS_MAX_PCT])

MARGIN_FLOOR = -1e-6


@dataclass(frozen=True)
class SearchGrid:
    """Search resolutions shared by the design-space tools."""

    s_step: float = 0.05             # m
    d_step: float = 0.02             # m
    l_step: float = 0.2              # m
    ar_scan: int = 64                # sign-scan intervals per span station
    n_stations: int = 2000           # section integration resolution
    power_tol: float = 1e-3          # relative power equality tolerance


@dataclass
class DesignContext:
    """Shared physics, material, and discretization settings."""

    surface: EffSurface = field(default_factory=default_surface)
    flow: FlowEnv = field(default_factory=FlowEnv)
    foil_coeffs: FoilCoeffs = field(default_factory=FoilCoeffs)
    foil: FourDigitFoil = field(default_factory=FourDigitFoil)
    material: Material = field(default_factory=Material)
    rule: ScalingRule = field(default_factory=ScalingRule)
    grid: SearchGrid = field(default_factory=SearchGrid)


@dataclass(frozen=True)
class KiteDesign:
    """A complete design point with its derived masses and power."""

    span: float
    aspect_ratio: float
    n_spars: int
    spar_width_pct: float
    shell_pct: float
    diameter: float
    length: float
    wall_pct: float
    m_wing: float
    m_fuse: float
    volume: float
    power: float

    def __post_init__(self):
        u = self.as_vector()
        if np.any(u < DESIGN_LO - 1e-9) or np.any(u > DESIGN_HI + 1e-9):
            raise ValueError("design variables outside the admissible box")

    def as_vector(self) -> np.ndarray:
        return np.array([self.span, self.aspect_ratio, self.n_spars,
                         self.spar_width_pct, self.shell_pct, self.diameter,
                         self.length, self.wall_pct])

    @property
    def chord(self) -> float:
        return self.span / self.aspect_ratio

    @property
    def planform_area(self) -> float:
        return self.span ** 2 / self.aspect_ratio

    @property
    def m_kite(self) -> float:
        return self.m_wing + self.m_fuse


def evaluate_design(u: Iterable[float], ctx: DesignContext) -> KiteDesign:
    """Assemble a KiteDesign from the raw variable vector."""
    vec = np.asarray(list(u), dtype=float)
    if vec.shape != (8,):
        raise ValueError("design vector must have eight entries")
    if np.any(vec < DESIGN_LO - 1e-9) or np.any(vec > DESIGN_HI + 1e-9):
        raise ValueError("design variables outside the admissible box")
    s, ar, n_sp, t_sp, t_sw, d, length, t_sf = vec
    planform = WingPlanform(s, ar)
    wing = WingStructureDesign(int(round(n_sp)), t_sp, t_sw)
    hull = FuselageDesign(d, length, t_sf)
    return KiteDesign(
        span=s, aspect_ratio=ar, n_spars=int(round(n_sp)),
        spar_width_pct=t_sp, shell_pct=t_sw,
        diameter=d, length=length, wall_pct=t_sf,
        m_wing=wing_mass(planform, wing, ctx.material, ctx.foil,
                         n_stations=ctx.grid.n_stations),
        m_fuse=fuse_mass(hull, ctx.material),
        volume=displaced_volume(planform, d, length, ctx.rule, ctx.foil),
        power=power_of(s, ar, ctx),
    )


def power_of(span: float, aspect_ratio: float, ctx: DesignContext) -> float:
    """Design-level generated power: crosswind ideal times flight efficiency."""
    ideal = loyd_power(WingPlanform(span, aspect_ratio), ctx.flow,
                       foil=ctx.foil_coeffs)
    return ideal * ctx.surface.eval(span, aspect_ratio)


def design_margins(design: KiteDesign, ctx: DesignContext) -> dict:
    """Constraint margins for one design; all >= 0 means feasible.

    Margins are normalized (allowable/actual - 1 or fractional slack) so a
    single floor applies across constraints.
    """
    planform = WingPlanform(design.span, design.aspect_ratio)
    load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
    i_req = required_inertia(design.span, load, ctx.material)
    section = section_properties(
        WingStructureDesign(design.n_spars, design.spar_width_pct,
                            design.shell_pct),
        planform.chord, ctx.foil, n_stations=ctx.grid.n_stations)
    hull = FuselageDesign(design.diameter, design.length, design.wall_pct)
    floads = rated_fuselage_loads(
        planform, design.length, ctx.flow, ctx.foil_coeffs, ctx.rule)
    fm = constraint_margins(hull, floads, ctx.material)
    displaced = ctx.flow.density * design.volume
    u = design.as_vector()
    span_box = np.minimum(u - DESIGN_LO, DESIGN_HI - u)
    return {
        "wing_inertia": section.inertia / i_req - 1.0,
        "fuse_shear": fm.shear,
        "fuse_hoop": fm.hoop,
        "fuse_buckling": fm.buckling,
        "buoyancy": (displaced - design.m_kite) / displaced,
        "bounds": float(span_box.min()),
    }


def audit_design(design: KiteDesign, ctx: DesignContext,
                 p_req: Optional[float] = None) -> dict:
    """Independent feasibility audit; adds power-target consistency when
    a required power is given."""
    margins = design_margins(design, ctx)
    power = power_of(design.span, design.aspect_ratio, ctx)
    margins["power_recompute"] = (
        ctx.grid.power_tol - abs(power - design.power) / max(power, 1e-12))
    if p_req is not None:
        margins["power_target"] = (
            ctx.grid.power_tol - abs(design.power - p_req) / p_req)
    return margins


def margins_ok(margins: dict, floor: float = MARGIN_FLOOR) -> bool:
    return all(v >= floor for v in margins.values())


# -- steady flight tool -----------------------------------------------------

def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(1, int(round((hi - lo) / step)))
    return np.linspace(lo, hi, n + 1)


def sft_enumerate(p_req: float, ctx: DesignContext,
                  s_grid: Optional[np.ndarray] = None) -> list[tuple[float, float]]:
    """All (s, AR) meeting the power equality, one bisection per sign change.

    Power is not assumed monotone in AR, so every bracketing interval of
    the scan contributes a root.
    """
    if p_req <= 0.0:
        raise ConfigError("required power must be positive")
    if s_grid is None:
        s_grid = _axis_grid(SPAN_RANGE[0], SPAN_RANGE[1], ctx.grid.s_step)
    ar_grid = np.linspace(ASPECT_RANGE[0], ASPECT_RANGE[1],
                          ctx.grid.ar_scan + 1)

    roots = []
    for s in s_grid:
        vals = np.array([power_of(s, ar, ctx) - p_req for ar in ar_grid])
        for i in range(len(ar_grid) - 1):
            lo, hi = ar_grid[i], ar_grid[i + 1]
            f_lo, f_hi = vals[i], vals[i + 1]
            if f_lo == 0.0:
                roots.append((float(s), float(lo)))
                continue
            if f_lo * f_hi > 0.0:
                continue
            while (hi - lo) > 1e-6 * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                f_mid = power_of(s, mid, ctx) - p_req
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            roots.append((float(s), float(0.5 * (lo + hi))))
        if vals[-1] == 0.0:
            roots.append((float(s), float(ar_grid[-1])))
    if not roots:
        raise EmptySet(
            f"no geometry in the design box produces {p_req / 1e3:.1f} kW")
    return roots


def sfot(p_req: float, surrogate: str, ctx: DesignContext) -> tuple[float, float]:
    """Geometry minimizing the chosen compactness surrogate at the power target."""
    candidates = sft_enumerate(p_req, ctx)
    if surrogate == "span":
        key = lambda c: c[0]
    elif surrogate == "wing_volume":
        key = lambda c: c[0] ** 3 / c[1] ** 2
    else:
        raise ConfigError(
            f"unknown surrogate {surrogate!r}; use 'span' or 'wing_volume'")
    # ties break toward larger aspect ratio
    return min(candidates, key=lambda c: (key(c), -c[1]))


# -- Pareto solvers ---------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    p_req: float
    m_wing: float
    design: KiteDesign
    strategy: str
    diagnostics: dict = field(default_factory=dict, compare=False)
    power_tol: float = 1e-3

    def __post_init__(self):
        if abs(self.design.power - self.p_req) > self.power_tol * self.p_req:
            raise ValueError("design power misses the target beyond tolerance")


@dataclass(frozen=True)
class DualPoint:
    weight: float
    p_min: float
    objective: float
    design: KiteDesign
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.design.power < self.p_min * (1.0 - 1e-9):
            raise ValueError("design power below the dual-problem floor")
        expect = (self.weight * math.log(self.design.power)
                  - math.log(self.design.m_wing))
        if abs(self.objective - expect) > 1e-9 * max(1.0, abs(expect)):
            raise ValueError("objective inconsistent with the design")


def _best_hull(planform: WingPlanform, m_wing: float, ctx: DesignContext):
    """Lightest hull on the (D, L) grid that carries the given wing, or None.

    Feasibility per cell: a stress-sized shell exists within the wall
    bounds and the assembled kite still displaces its own mass.  A larger
    hull can be the only one buoyant enough, so the buoyancy check runs
    against the actual wing mass rather than after the mass minimization.
    """
    best = None
    for length in _axis_grid(*FUSE_LENGTH_RANGE, ctx.grid.l_step):
        floads = rated_fuselage_loads(
            planform, length, ctx.flow, ctx.foil_coeffs, ctx.rule)
        for d in _axis_grid(*FUSE_DIAMETER_RANGE, ctx.grid.d_step):
            try:
                sizing = sfdt_optimize(d, length, floads, ctx.material)
            except Infeasible:
                continue
            if best is not None and sizing.mass >= best.mass:
                continue
            displaced = ctx.flow.density * displaced_volume(
                planform, d, length, ctx.rule, ctx.foil)
            if m_wing + sizing.mass > displaced:
                continue
            best = sizing
    return best


def _assemble(s, ar, wing_sizing, hull, ctx) -> KiteDesign:
    wing, fuse = wing_sizing.design, hull.design
    return evaluate_design((s, ar, wing.n_spars, wing.spar_width_pct,
                            wing.shell_pct, fuse.diameter, fuse.length,
                            fuse.thickness_pct), ctx)


def nested_sequential(p_req: float, surrogate: str,
                      ctx: DesignContext) -> ParetoPoint:
    """Geometry first (via surrogate), then structure, then hull."""
    s, ar = sfot(p_req, surrogate, ctx)
    planform = WingPlanform(s, ar)
    load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
    wing = swdt_optimize(planform, load, ctx.material, ctx.foil,
                         n_stations=ctx.grid.n_stations)
    hull = _best_hull(planform, wing.mass, ctx)
    if hull is None:
        raise Infeasible(
            f"no hull supports the ({s:.2f}, {ar:.2f}) wing",
            detail={"span": s, "aspect_ratio": ar, "m_wing": wing.mass})
    design = _assemble(s, ar, wing, hull, ctx)
    return ParetoPoint(
        p_req=p_req, m_wing=wing.mass, design=design,
        strategy=f"nested_sequential[{surrogate}]",
        diagnostics={"surrogate": surrogate}, power_tol=ctx.grid.power_tol)


def fully_nested(p_req: float, ctx: DesignContext) -> ParetoPoint:
    """Structure sized for every geometry on the power contour; global min."""
    candidates = sft_enumerate(p_req, ctx)
    best = None
    n_struct_infeasible = 0
    for s, ar in candidates:
        planform = WingPlanform(s, ar)
        load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
        try:
            wing = swdt_optimize(planform, load, ctx.material, ctx.foil,
                                 n_stations=ctx.grid.n_stations)
        except Infeasible:
            n_struct_infeasible += 1
            continue
        if best is not None and wing.mass > best[0] + 1e-9:
            continue
        hull = _best_hull(planform, wing.mass, ctx)
        if hull is None:
            n_struct_infeasible += 1
            continue
        # tie on wing mass breaks toward the lighter hull
        if (best is None or wing.mass < best[0] - 1e-9
                or (abs(wing.mass - best[0]) <= 1e-9 and hull.mass < best[1])):
            best = (wing.mass, hull.mass, s, ar, wing, hull)
    if best is None:
        raise Infeasible(
            f"no feasible structure anywhere on the {p_req / 1e3:.1f} kW contour",
            detail={"candidates": len(candidates),
                    "struct_infeasible": n_struct_infeasible})
    m_wing, _, s, ar, wing, hull = best
    design = _assemble(s, ar, wing, hull, ctx)
    return ParetoPoint(
        p_req=p_req, m_wing=m_wing, design=design, strategy="fully_nested",
        diagnostics={"candidates": len(candidates),
                     "struct_infeasible": n_struct_infeasible},
        power_tol=ctx.grid.power_tol)


# -- simultaneous (dual objective) ------------------------------------------

@dataclass
class GAConfig:
    population: int = 200
    elite: int = 20
    tournament: int = 3
    generations: int = 60
    crossover_prob: float = 0.9
    sbx_eta: float = 10.0
    mutation_eta: float = 20.0
    mutation_prob: float = 0.125     # per gene
    seed: int = 0
    polish: bool = True

DEATH = -1e18


def _sbx_pair(p1, p2, eta, rng):
    u = rng.uniform(size=p1.shape)
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def _poly_mutate(x, lo, hi, eta, prob, rng):
    u = rng.uniform(size=x.shape)
    do = rng.uniform(size=x.shape) < prob
    delta = np.where(u < 0.5,
                     (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
                     1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)))
    return np.where(do, x + delta * (hi - lo), x)


def _ga_fitness(u, w, p_min, ctx):
    """(fitness, design-or-None); infeasible genomes get a graded death value."""
    try:
        design = evaluate_design(u, ctx)
        margins = design_margins(design, ctx)
    except (ValueError, GeometryError, ThinWallViolation):
        return DEATH * 2.0, None
    shortfall = max(0.0, (p_min - design.power) / p_min)
    violation = shortfall + sum(max(0.0, -m) for m in margins.values())
    if violation > 0.0:
        return DEATH * (1.0 + violation), None
    return (w * math.log(design.power) - math.log(design.m_wing)), design


def simultaneous_ga(w: float, p_min: float, ctx: DesignContext,
                    cfg: GAConfig = GAConfig()) -> DualPoint:
    """Seeded GA over all eight variables maximizing w*ln(P) - ln(m_wing)."""
    if w <= 0.0:
        raise ConfigError("objective weight must be positive")
    rng = np.random.default_rng(cfg.seed)
    lo, hi = DESIGN_LO.copy(), DESIGN_HI.copy()
    # zero-thickness corners are structurally void; nudge the sampling floor
    sample_lo = lo.copy()
    sample_lo[3] = max(sample_lo[3], 1e-3)
    sample_lo[4] = max(sample_lo[4], 1e-3)

    pop = rng.uniform(sample_lo, hi, size=(cfg.population, 8))
    pop[:, 2] = rng.integers(N_SPARS_MIN, N_SPARS_MAX + 1,
                                 size=cfg.population)
    scored = [_ga_fitness(u, w, p_min, ctx) for u in pop]
    fitness = np.array([s[0] for s in scored])

    best_fit = -np.inf
    best_design = None
    for fit, design in scored:
        if design is not None and fit > best_fit:
            best_fit, best_design = fit, design

    for _ in range(cfg.generations):
        order = np.argsort(-fitness, kind="stable")
        elite = pop[order[:cfg.elite]]
        children = []
        while len(children) < cfg.population - cfg.elite:
            picks = rng.integers(0, cfg.population, size=(2, cfg.tournament))
            p1 = pop[picks[0][np.argmax(fitness[picks[0]])]]
            p2 = pop[picks[1][np.argmax(fitness[picks[1]])]]
            if rng.uniform() < cfg.crossover_prob:
                c1, c2 = _sbx_pair(p1, p2, cfg.sbx_eta, rng)
                n_sp = (p1[2], p2[2]) if rng.uniform() < 0.5 else (p2[2], p1[2])
                c1[2], c2[2] = n_sp
            else:
                c1, c2 = p1.copy(), p2.copy()
            for child in (c1, c2):
                child[:] = _poly_mutate(child, lo, hi, cfg.mutation_eta,
                                        cfg.mutation_prob, rng)
                if rng.uniform() < cfg.mutation_prob:
                    child[2] = rng.integers(N_SPARS_MIN, N_SPARS_MAX + 1)
                np.clip(child, lo, hi, out=child)
                child[2] = float(int(round(child[2])))
                children.append(child)
        pop = np.vstack([elite, np.array(children[:cfg.population - cfg.elite])])
        scored = [_ga_fitness(u, w, p_min, ctx) for u in pop]
        fitness = np.array([s[0] for s in scored])
        gen_best = int(np.argmax(fitness))
        if scored[gen_best][1] is not None and fitness[gen_best] > best_fit:
            best_fit = float(fitness[gen_best])
            best_design = scored[gen_best][1]

    if best_design is None:
        raise NoFeasibleIndividual(
            f"GA found no feasible design for w={w:g}, "
            f"P_min={p_min / 1e3:.1f} kW")

    if cfg.polish:
        best_fit, best_design = _polish(best_fit, best_design, w, p_min, ctx)

    return DualPoint(
        weight=w, p_min=p_min, objective=best_fit, design=best_design,
        diagnostics={"generations": cfg.generations,
                     "population": cfg.population})


def _polish(fit0, design0, w, p_min, ctx):
    """Deterministic local refinement of the GA winner (spar count fixed)."""
    idx = [0, 1, 3, 4, 5, 6, 7]
    n_sp = design0.n_spars
    x0 = design0.as_vector()[idx]

    def neg(x):
        u = np.empty(8)
        u[idx] = np.clip(x, DESIGN_LO[idx], DESIGN_HI[idx])
        u[2] = n_sp
        fit, design = _ga_fitness(u, w, p_min, ctx)
        return -fit

    res = minimize(neg, x0, method="Nelder-Mead",
                   options={"maxiter": 400, "xatol": 1e-5, "fatol": 1e-9})
    u = np.empty(8)
    u[idx] = np.clip(res.x, DESIGN_LO[idx], DESIGN_HI[idx])
    u[2] = n_sp
    fit, design = _ga_fitness(u, w, p_min, ctx)
    if design is not None and fit > fit0:
        return float(fit), design
    return fit0, design0


# -- sweeps -----------------------------------------------------------------

def pareto_sweep(p_req_list: Iterable[float], ctx: DesignContext,
                 strategy: str = "fully_nested",
                 surrogate: str = "span") -> list[ParetoPoint]:
    if strategy == "fully_nested":
        solve = lambda p: fully_nested(p, ctx)
    elif strategy == "nested_sequential":
        solve = lambda p: nested_sequential(p, surrogate, ctx)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    points = []
    for p_req in p_req_list:
        try:
            points.append(solve(float(p_req)))
        except (EmptySet, Infeasible) as exc:
            warnings.warn(f"{p_req / 1e3:.1f} kW point skipped: {exc}",
                          stacklevel=2)
    if not points:
        raise EmptySet("every sweep point failed")
    return points


def dual_sweep(w_list: Iterable[float], p_min: float, ctx: DesignContext,
               cfg: GAConfig = GAConfig()) -> list[DualPoint]:
    points = []
    for i, w in enumerate(w_list):
        point_cfg = replace(cfg, seed=cfg.seed + 1000003 * i)
        try:
            points.append(simultaneous_ga(float(w), p_min, ctx, point_cfg))
        except NoFeasibleIndividual as exc:
            warnings.warn(f"w={w:g} point skipped: {exc}", stacklevel=2)
    if not points:
        raise EmptySet("every dual-sweep point failed")
    return points


# -- log-log front geometry -------------------------------------------------

def lower_hull(xy: np.ndarray) -> np.ndarray:
    """Vertices of the lower convex hull, sorted by x (Andrew chain)."""
    pts = np.asarray(xy, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull)


def hull_gap(x: float, y: float, hull: np.ndarray) -> float:
    """Vertical distance of (x, y) above the hull; negative means below."""
    hx, hy = hull[:, 0], hull[:, 1]
    x = min(max(x, hx[0]), hx[-1])
    i = int(np.searchsorted(hx, x, side="right") - 1)
    i = min(max(i, 0), len(hx) - 2) if len(hx) > 1 else 0
    if len(hx) == 1:
        return y - hy[0]
    x0, x1 = hx[i], hx[i + 1]
    t = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
    return y - (hy[i] + t * (hy[i + 1] - hy[i]))


def pareto_log_cloud(points: Iterable[ParetoPoint]) -> np.ndarray:
    return np.array([[math.log(p.design.power), math.log(p.m_wing)]
                     for p in points])


# -- record formatting ------------------------------------------------------

def design_record(design: KiteDesign, ctx: Optional[DesignContext] = None) -> dict:
    record = {
        "span": design.span,
        "aspect_ratio": design.aspect_ratio,
        "n_spars": design.n_spars,
        "spar_width_pct": design.spar_width_pct,
        "shell_pct": design.shell_pct,
        "diameter": design.diameter,
        "length": design.length,
        "wall_pct": design.wall_pct,
        "chord": design.chord,
        "planform_area": design.planform_area,
        "m_wing": design.m_wing,
        "m_fuse": design.m_fuse,
        "m_kite": design.m_kite,
        "volume": design.volume,
        "power": design.power,
    }
    if ctx is not None:
        record["margins"] = design_margins(design, ctx)
    return record


def front_text(points: Iterable[ParetoPoint]) -> str:
    lines = ["P_req\tm_wing\tm_kite\ts\tAR\tN_sp\tt_sp\tt_sw\tD\tL\tt_sf"]
    for p in points:
        d = p.design
        lines.append("\t".join(
            f"{x:.17g}" for x in
            (p.p_req, p.m_wing, d.m_kite, d.span, d.aspect_ratio, d.n_spars,
             d.spar_width_pct, d.shell_pct, d.diameter, d.length, d.wall_pct)))
    return "\n".join(lines) + "\n"


def dual_front_text(points: Iterable[DualPoint]) -> str:
    lines = ["w\tobjective\tP_gen\tm_wing\tm_kite\ts\tAR\tN_sp\tt_sp\tt_sw\tD\tL\tt_sf"]
    for p in points:
        d = p.design
        lines.append("\t".join(
            f"{x:.17g}" for x in
            (p.weight, p.objective, d.power, d.m_wing, d.m_kite, d.span,
             d.aspect_ratio, d.n_spars, d.spar_width_pct, d.shell_pct,
             d.diameter, d.length, d.wall_pct)))
    return "\n".join(lines) + "\n"
