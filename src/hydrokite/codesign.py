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
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from .design import (
    ASPECT_RANGE, FUSE_DIAMETER_RANGE, FUSE_LENGTH_RANGE, SPAN_RANGE,
    ScalingRule, displaced_volume,
)
from .effmap import EffSurface, default_surface
from .errors import (
    ConfigError, DomainWarning, EmptySet, Infeasible, NoFeasibleIndividual,
    check_fields,
)
from .fusestruct import (
    THICKNESS_MAX_PCT, THICKNESS_MIN_PCT, FuselageDesign, constraint_margins,
    fuse_mass, rated_fuselage_loads, sfdt_optimize,
)
from .hydro import (
    FlowEnv, FoilCoeffs, WingPlanform, crosswind_power, loyd_power,
    max_glide_cubed,
)
from .wingstruct import (
    N_STATIONS, SHELL_MAX_PCT, SPAR_STATIONS, SPAR_WIDTH_MAX_PCT,
    FourDigitFoil, Material, WingStructureDesign, rated_wing_load,
    required_inertia, section_properties, swdt_optimize, wing_mass,
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
_BOX_LO, _BOX_HI = DESIGN_LO.tolist(), DESIGN_HI.tolist()

MARGIN_FLOOR = -1e-6

# power_grid nodes this close to the target, relative, are evaluated again
# with power_of; the two differ by under 1e-15 relative
SCAN_RECHECK_RTOL = 1e-12


@dataclass(frozen=True)
class SearchGrid:
    """Search resolutions shared by the design-space tools."""

    s_step: float = 0.05             # m
    d_step: float = 0.02             # m
    l_step: float = 0.2              # m
    ar_scan: int = 64                # sign-scan intervals per span station
    n_stations: int = N_STATIONS     # section integration resolution
    power_tol: float = 1e-3          # relative power equality tolerance

    def __post_init__(self):
        check_fields(self, positive=("s_step", "d_step", "l_step", "power_tol"),
                     at_least={"ar_scan": 1, "n_stations": 2})


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
    wing_inertia: float  # m^4, of the wing section
    m_fuse: float
    volume: float
    power: float

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
    """Assemble a KiteDesign from the raw variable vector.

    The vector becomes Python floats once, here: every component works on
    those floats, and every field of the result is a ``float`` or ``int``.

    This is the design box's only check, and it is exact: every solver clips
    or sizes its variables to the bounds themselves.  It compares the floats
    with float copies of ``DESIGN_LO``/``DESIGN_HI``, so a value on an edge
    passes and a NaN entry fails.  It runs before any component is built,
    so a vector outside the box raises this error and not a component's
    own limit.
    """
    # a GA row converts whole; unpacking it first would make NumPy scalars
    vec = np.asarray(u if isinstance(u, np.ndarray) else list(u), dtype=float)
    if vec.shape != (8,):
        raise ValueError("design vector must have eight entries")
    vals = vec.tolist()
    for v, lo, hi in zip(vals, _BOX_LO, _BOX_HI):
        if not lo <= v <= hi:
            raise ValueError("design variables outside the admissible box")
    s, ar, n_sp, t_sp, t_sw, d, length, t_sf = vals
    n_spars = int(round(n_sp))
    planform = WingPlanform(s, ar)
    section = section_properties(WingStructureDesign(n_spars, t_sp, t_sw),
                                 planform.chord, ctx.foil,
                                 n_stations=ctx.grid.n_stations)
    hull = FuselageDesign(d, length, t_sf)
    return KiteDesign(
        span=s, aspect_ratio=ar, n_spars=n_spars,
        spar_width_pct=t_sp, shell_pct=t_sw,
        diameter=d, length=length, wall_pct=t_sf,
        m_wing=wing_mass(planform, section.area, ctx.material),
        wing_inertia=section.inertia,
        m_fuse=fuse_mass(hull, ctx.material),
        volume=displaced_volume(planform, d, length, ctx.rule, ctx.foil),
        power=power_of(s, ar, ctx),
    )


def power_of(span: float, aspect_ratio: float, ctx: DesignContext) -> float:
    """Design-level generated power: crosswind ideal times flight efficiency."""
    ideal = loyd_power(WingPlanform(span, aspect_ratio), ctx.flow,
                       foil=ctx.foil_coeffs)
    return ideal * ctx.surface.eval(span, aspect_ratio)


def power_grid(spans: Iterable[float], aspect_ratios: Iterable[float],
               ctx: DesignContext) -> np.ndarray:
    """``power_of`` at every node of the grid spans x aspect_ratios, in one
    NumPy pass; row i holds spans[i].

    Each aspect ratio reads its glide value once from the
    ``max_glide_cubed`` cache.  An entry can differ from ``power_of`` in
    the last bits: the planform area squares by multiplying and the
    efficiency polynomial sums as a matrix product.
    """
    s = np.asarray(spans, dtype=float)[:, None]
    a = np.asarray(aspect_ratios, dtype=float)
    # float keys: the cache holds the values power_of reads
    glide3 = np.array([max_glide_cubed(ctx.foil_coeffs, x) for x in a.tolist()])
    ideal = crosswind_power(ctx.flow, s**2 / a, glide3)
    return ideal * ctx.surface.eval_array(s, a)


def design_margins(design: KiteDesign, ctx: DesignContext) -> dict:
    """Constraint margins for one design; all >= 0 means feasible.

    Margins are normalized (allowable/actual - 1 or fractional slack) so a
    single floor applies across constraints.  The wing's margin reads the
    inertia ``evaluate_design`` recorded; ``audit_design`` checks it.
    """
    planform = WingPlanform(design.span, design.aspect_ratio)
    load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
    i_req = required_inertia(design.span, load, ctx.material)
    hull = FuselageDesign(design.diameter, design.length, design.wall_pct)
    floads = rated_fuselage_loads(
        planform, design.length, ctx.flow, ctx.foil_coeffs, ctx.rule)
    fm = constraint_margins(hull, floads, ctx.material)
    displaced = ctx.flow.density * design.volume
    return {
        "wing_inertia": design.wing_inertia / i_req - 1.0,
        "fuse_shear": fm.shear,
        "fuse_hoop": fm.hoop,
        "fuse_buckling": fm.buckling,
        "buoyancy": (displaced - design.m_kite) / displaced,
    }


def audit_design(design: KiteDesign, ctx: DesignContext,
                 p_req: Optional[float] = None) -> dict:
    """Independent feasibility audit; adds power-target consistency when
    a required power is given.

    The recorded power and wing inertia are recomputed from the layout.
    The section is deterministic, so an honest inertia matches exactly.
    """
    margins = design_margins(design, ctx)
    power = power_of(design.span, design.aspect_ratio, ctx)
    margins["power_recompute"] = (
        ctx.grid.power_tol - abs(power - design.power) / max(power, 1e-12))
    inertia = section_properties(
        WingStructureDesign(design.n_spars, design.spar_width_pct,
                            design.shell_pct),
        design.chord, ctx.foil, n_stations=ctx.grid.n_stations).inertia
    margins["wing_recompute"] = (
        -abs(inertia - design.wing_inertia) / max(inertia, 1e-12))
    if p_req is not None:
        margins["power_target"] = (
            ctx.grid.power_tol - abs(design.power - p_req) / p_req)
    return margins


def margins_ok(margins: dict, floor: float = MARGIN_FLOOR) -> bool:
    return all(v >= floor for v in margins.values())


# -- steady flight tool -----------------------------------------------------

def _axis_grid(lo: float, hi: float, step: float) -> list[float]:
    n = max(1, int(round((hi - lo) / step)))
    return np.linspace(lo, hi, n + 1).tolist()


def sft_enumerate(p_req: float, ctx: DesignContext,
                  s_grid: Optional[np.ndarray] = None) -> list[tuple[float, float]]:
    """All (s, AR) meeting the power equality, one bisection per sign change.

    Power is not assumed monotone in AR, so every bracketing interval of
    the scan contributes a root.  A scan node on the contour is a root
    once.

    The scan evaluates the power at every (span, AR) node in one
    ``power_grid`` pass; only the bisections call ``power_of``.  The
    scan reads nothing but the sign of P - p_req at each node, and
    ``power_grid`` differs from ``power_of`` by a few units in the last
    place.  So every node whose grid power lies within ``SCAN_RECHECK_RTOL``
    of p_req is evaluated again with ``power_of``.  Every other node keeps
    ``power_of``'s sign, and an exact zero can only come from
    ``power_of``, so the brackets, the bisections and the roots are those
    of a scan that calls ``power_of`` at every node.

    A surface fitted over a box narrower than the design box clamps part
    of the scan: one ``DomainWarning`` per call names how many nodes.
    """
    if not 0.0 < p_req < math.inf:
        raise ConfigError(
            f"required power must be finite and positive; got {p_req!r}")
    if s_grid is None:
        s_grid = _axis_grid(SPAN_RANGE[0], SPAN_RANGE[1], ctx.grid.s_step)
    s_list = np.asarray(s_grid, dtype=float).tolist()
    ar_grid = np.linspace(ASPECT_RANGE[0], ASPECT_RANGE[1],
                          ctx.grid.ar_scan + 1).tolist()
    f_grid = power_grid(s_list, ar_grid, ctx) - p_req
    roots = []
    # power_grid warned once if it clamped a node; power_of clamps only at
    # or between clamped nodes, so its warnings would repeat that one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        near = np.abs(f_grid) <= SCAN_RECHECK_RTOL * p_req
        for i, j in zip(*np.nonzero(near)):
            f_grid[i, j] = power_of(s_list[i], ar_grid[j], ctx) - p_req
        for s, vals in zip(s_list, f_grid.tolist()):
            roots += _row_roots(s, ar_grid, vals, p_req, ctx)
    if not roots:
        raise EmptySet(
            f"no geometry in the design box produces {p_req / 1e3:.1f} kW")
    return roots


def _row_roots(s: float, ar_grid: list[float], vals: list[float],
               p_req: float, ctx: DesignContext) -> list[tuple[float, float]]:
    """Roots along one span's scan: vals[i] is P - p_req at ar_grid[i]."""
    roots = []
    for i in range(len(ar_grid) - 1):
        lo, hi = ar_grid[i], ar_grid[i + 1]
        f_lo, f_hi = vals[i], vals[i + 1]
        if f_lo == 0.0:
            roots.append((s, lo))
            continue
        # a node on the contour is the next interval's root
        if f_hi == 0.0 or f_lo * f_hi > 0.0:
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
        roots.append((s, 0.5 * (lo + hi)))
    if vals[-1] == 0.0:
        roots.append((s, ar_grid[-1]))
    return roots


def sfot(p_req: float, surrogate: str, ctx: DesignContext) -> tuple[float, float]:
    """Geometry minimizing the chosen compactness surrogate at the power target."""
    if surrogate == "span":
        key = lambda c: c[0]
    elif surrogate == "wing_volume":
        key = lambda c: c[0] ** 3 / c[1] ** 2
    else:
        raise ConfigError(
            f"unknown surrogate {surrogate!r}; use 'span' or 'wing_volume'")
    candidates = sft_enumerate(p_req, ctx)
    # ties break toward larger aspect ratio
    return min(candidates, key=lambda c: (key(c), -c[1]))


# -- Pareto solvers ---------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    p_req: float
    design: KiteDesign
    strategy: str
    power_tol: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if abs(self.design.power - self.p_req) > self.power_tol * self.p_req:
            raise ValueError("design power misses the target beyond tolerance")

    @property
    def m_wing(self) -> float:
        return self.design.m_wing


def dual_merit(weight: float, design: KiteDesign) -> float:
    """The dual problem's objective, w*ln(P) - ln(m_wing)."""
    return weight * math.log(design.power) - math.log(design.m_wing)


@dataclass(frozen=True)
class DualPoint:
    weight: float
    p_min: float
    design: KiteDesign
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.design.power < self.p_min * (1.0 - 1e-9):
            raise ValueError("design power below the dual-problem floor")

    @property
    def objective(self) -> float:
        return dual_merit(self.weight, self.design)


def _best_hull(planform: WingPlanform, m_wing: float, ctx: DesignContext):
    """Lightest hull on the (D, L) grid that carries the given wing, or None.

    Feasibility per cell: a stress-sized shell exists within the wall
    bounds and the assembled kite still displaces its own mass.  A larger
    hull can be the only one buoyant enough, so the buoyancy check runs
    against the actual wing mass rather than after the mass minimization.
    """
    best = None
    d_grid = _axis_grid(*FUSE_DIAMETER_RANGE, ctx.grid.d_step)
    for length in _axis_grid(*FUSE_LENGTH_RANGE, ctx.grid.l_step):
        floads = rated_fuselage_loads(
            planform, length, ctx.flow, ctx.foil_coeffs, ctx.rule)
        for d in d_grid:
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


def size_wing(planform: WingPlanform, ctx: DesignContext):
    """The lightest wing of one geometry; ``Infeasible`` if none."""
    load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
    return swdt_optimize(planform, load, ctx.material, ctx.foil,
                         n_stations=ctx.grid.n_stations)


def size_structure(planform: WingPlanform, ctx: DesignContext):
    """(WingSizing, FuselageSizing) of the kite the search builds at one
    geometry, the one the efficiency map flies; ``Infeasible`` if none."""
    s, ar = planform.span, planform.aspect_ratio
    wing = size_wing(planform, ctx)
    hull = _best_hull(planform, wing.mass, ctx)
    if hull is None:
        raise Infeasible(
            f"no hull supports the ({s:.2f}, {ar:.2f}) wing",
            detail={"span": s, "aspect_ratio": ar, "m_wing": wing.mass})
    return wing, hull


def nested_sequential(p_req: float, surrogate: str,
                      ctx: DesignContext) -> ParetoPoint:
    """Geometry first (via surrogate), then structure, then hull."""
    s, ar = sfot(p_req, surrogate, ctx)
    wing, hull = size_structure(WingPlanform(s, ar), ctx)
    design = _assemble(s, ar, wing, hull, ctx)
    return ParetoPoint(
        p_req=p_req, design=design,
        strategy=f"nested_sequential[{surrogate}]",
        power_tol=ctx.grid.power_tol, diagnostics={"surrogate": surrogate})


def fully_nested(p_req: float, ctx: DesignContext) -> ParetoPoint:
    """Structure sized for every geometry on the power contour; global min."""
    candidates = sft_enumerate(p_req, ctx)
    best = None
    n_struct_infeasible = 0
    for s, ar in candidates:
        planform = WingPlanform(s, ar)
        try:
            wing = size_wing(planform, ctx)
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
    _, _, s, ar, wing, hull = best
    design = _assemble(s, ar, wing, hull, ctx)
    return ParetoPoint(
        p_req=p_req, design=design, strategy="fully_nested",
        power_tol=ctx.grid.power_tol,
        diagnostics={"candidates": len(candidates),
                     "struct_infeasible": n_struct_infeasible})


# -- simultaneous (dual objective) ------------------------------------------

@dataclass
class GAConfig:
    population: int = 200
    elite: int = 20                  # carried over each generation
    tournament: int = 3
    generations: int = 60
    crossover_prob: float = 0.9
    sbx_eta: float = 10.0
    mutation_eta: float = 20.0
    mutation_prob: float = 0.125     # per gene
    seed: int = 0
    polish: bool = True              # Nelder-Mead refinement of the winner

    def __post_init__(self):
        # eta >= 0: the operators raise 2u to the power 1/(eta + 1)
        check_fields(self, nonnegative=("crossover_prob", "sbx_eta",
                                        "mutation_eta", "mutation_prob"),
                     at_least={"tournament": 1, "generations": 0})
        # elitism carries the best genome into the last population, which
        # is where simultaneous_ga reads its winner
        if not 1 <= self.elite < self.population:
            raise ValueError(
                f"elite must satisfy 1 <= elite < population; got "
                f"elite={self.elite}, population={self.population}")
        for name, prob in (("crossover_prob", self.crossover_prob),
                           ("mutation_prob", self.mutation_prob)):
            if prob > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]; got {prob!r}")


DEATH = -1e18


def _sbx(p1, p2, u, eta):
    """Deb & Agrawal's simulated binary crossover of parent rows p1 and p2,
    given a uniform draw u per gene."""
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def _poly_mutate(x, lo, hi, eta, u, do):
    """Deb & Agrawal's polynomial mutation of the genes where do is set,
    given a uniform draw u per gene."""
    delta = np.where(u < 0.5,
                     (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
                     1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)))
    return np.where(do, x + delta * (hi - lo), x)


def _breed(pop, fitness, n_children, lo, hi, cfg, rng):
    """One generation's children, bred in pairs and clipped to the box.

    The per-pair loop makes only the random draws.  Runs of consecutive
    double draws are merged into one call, and ``rng.random`` stands in
    for ``rng.uniform()``, whose draw is 0 + 1*x of the same double;
    neither moves the stream.  Integer draws stay one call each, since
    each call buffers its own 32-bit halves.  The arithmetic stays in
    NumPy: its array power rounds differently from Python's float power,
    and the same array expressions are what keep each child's bits.
    """
    n_pairs = (n_children + 1) // 2
    picks = np.empty((n_pairs, 2, cfg.tournament), dtype=np.int64)
    cross = np.zeros(n_pairs, dtype=bool)
    # per pair: SBX's u for each gene, then the spar-count swap draw
    sbx_draws = np.zeros((n_pairs, 9))
    # per child: mutation u for each gene, the gene mask draws, then the
    # spar-mutation draw
    mut_draws = np.empty((n_pairs, 2, 17))
    spar_draws = np.zeros((n_pairs, 2))
    for k in range(n_pairs):
        picks[k] = rng.integers(0, cfg.population, size=(2, cfg.tournament))
        if rng.random() < cfg.crossover_prob:
            cross[k] = True
            rng.random(out=sbx_draws[k])
        for j in (0, 1):
            if rng.random(out=mut_draws[k, j])[16] < cfg.mutation_prob:
                spar_draws[k, j] = rng.integers(N_SPARS_MIN, N_SPARS_MAX + 1)

    # each tournament's first fittest pick
    won = np.take_along_axis(
        picks, fitness[picks].argmax(axis=2)[..., None], axis=2)[..., 0]
    parents = pop[won]
    p1, p2 = parents[:, 0], parents[:, 1]
    c1, c2 = _sbx(p1, p2, sbx_draws[:, :8], cfg.sbx_eta)
    swap = sbx_draws[:, 8] < 0.5
    c1[:, 2] = np.where(swap, p1[:, 2], p2[:, 2])
    c2[:, 2] = np.where(swap, p2[:, 2], p1[:, 2])
    kids = np.where(cross[:, None, None], np.stack([c1, c2], axis=1), parents)
    kids = _poly_mutate(kids, lo, hi, cfg.mutation_eta, mut_draws[..., :8],
                        mut_draws[..., 8:16] < cfg.mutation_prob)
    kids[..., 2] = np.where(mut_draws[..., 16] < cfg.mutation_prob,
                            spar_draws, kids[..., 2])
    np.clip(kids, lo, hi, out=kids)
    kids[..., 2] = np.rint(kids[..., 2])
    # an odd count drops the last pair's second child, drawn all the same
    return kids.reshape(-1, 8)[:n_children]


def _ga_fitness(u, w, p_min, ctx):
    """(fitness, design-or-None); infeasible genomes get a graded death value.

    u must lie in the design box with an integer spar count, as every
    clipped GA genome does.
    """
    design = evaluate_design(u, ctx)
    margins = design_margins(design, ctx)
    shortfall = max(0.0, (p_min - design.power) / p_min)
    violation = shortfall + sum(max(0.0, -m) for m in margins.values())
    if violation > 0.0:
        return DEATH * (1.0 + violation), None
    return dual_merit(w, design), design


def simultaneous_ga(w: float, p_min: float, ctx: DesignContext,
                    cfg: GAConfig = GAConfig()) -> DualPoint:
    """Seeded GA over all eight variables maximizing w*ln(P) - ln(m_wing).

    Each generation keeps its ``elite`` fittest genomes and breeds the rest
    in pairs: tournament selection, Deb & Agrawal's SBX with the parents'
    spar counts swapped or kept, then polynomial mutation, a redrawn spar
    count, clipping to the design box and a rounded spar count.  Breeding
    runs in two phases (``_breed``).  The pairs first draw their random
    numbers one pair after another, keeping the order, call shapes and
    branches of a loop that breeds one pair at a time; then one NumPy
    pass breeds every pair from those draws.  When population - elite is
    odd, the last pair's second child is drawn and bred like the others
    and then dropped.  Each child is then scored by ``_ga_fitness``, one
    call per child in order; the elite keep their scores.
    """
    if not 0.0 < w < math.inf:
        raise ConfigError(
            f"objective weight must be finite and positive; got {w!r}")
    if not 0.0 < p_min < math.inf:
        raise ConfigError(
            f"power floor must be finite and positive; got {p_min!r}")
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
    for _ in range(cfg.generations):
        elite = np.argsort(-fitness, kind="stable")[:cfg.elite]
        children = _breed(pop, fitness, cfg.population - cfg.elite,
                          lo, hi, cfg, rng)
        pop = np.vstack([pop[elite], children])
        # the elite keep their scores; only the children are new
        scored = ([scored[i] for i in elite]
                  + [_ga_fitness(u, w, p_min, ctx) for u in children])
        fitness = np.array([s[0] for s in scored])

    # elitism keeps the best genome ever scored in the last population
    _, best_design = scored[int(np.argmax(fitness))]
    if best_design is None:
        raise NoFeasibleIndividual(
            f"GA found no feasible design for w={w:g}, "
            f"P_min={p_min / 1e3:.1f} kW")

    if cfg.polish:
        best_design = _polish(best_design, w, p_min, ctx)

    return DualPoint(
        weight=w, p_min=p_min, design=best_design,
        diagnostics={"generations": cfg.generations,
                     "population": cfg.population})


def _polish(design0, w, p_min, ctx):
    """Nelder-Mead over the seven continuous variables, spar count fixed.

    A deterministic local refinement of the GA winner; it is kept only
    when it scores higher.
    """
    idx = [0, 1, 3, 4, 5, 6, 7]
    n_sp = design0.n_spars
    lo, hi = DESIGN_LO[idx], DESIGN_HI[idx]

    def score(x):
        u = np.empty(8)
        u[idx] = np.clip(x, lo, hi)
        u[2] = n_sp
        return _ga_fitness(u, w, p_min, ctx)

    x = _nelder_mead(lambda x: -score(x)[0], design0.as_vector()[idx],
                     maxiter=400, xatol=1e-5, fatol=1e-9)
    fit, design = score(x)
    if design is not None and fit > dual_merit(w, design0):
        return design
    return design0


def _nelder_mead(fun, x0, maxiter, xatol, fatol):
    """Minimize fun from x0 with Nelder & Mead's simplex (Comput. J. 7, 1965).

    Reflection 1, expansion 2, contraction and shrink 0.5, no bounds.
    Returns the best vertex.  Every operation, its order and its stopping
    test follow the unbounded, non-adaptive reference implementation that
    ``tests/test_codesign.py`` compares against bit for bit; importing
    that optimization library would triple the package's start-up time
    and double its peak memory.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(x) for x in sim], dtype=float)

    iterations = 1
    while True:
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if iterations >= maxiter or (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return sim[0]
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fun(sim[j])
        iterations += 1


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
    """Every field of the design plus its derived chord, area and kite mass."""
    record = {**asdict(design), "chord": design.chord,
              "planform_area": design.planform_area, "m_kite": design.m_kite}
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
