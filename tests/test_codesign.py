"""Design-search tests: root enumeration, nesting dominance, GA, hull geometry."""
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from hydrokite import codesign
from hydrokite.codesign import (
    DESIGN_HI, DESIGN_LO, DesignContext, DualPoint, GAConfig, KiteDesign,
    ParetoPoint, SearchGrid, _nelder_mead, audit_design, design_margins, design_record,
    dual_front_text, dual_sweep, evaluate_design, front_text, fully_nested, hull_gap,
    lower_hull, margins_ok, nested_sequential, pareto_log_cloud, pareto_sweep,
    power_grid, power_of, sft_enumerate, sfot, simultaneous_ga,
)
from hydrokite.design import ASPECT_RANGE, SPAN_RANGE
from hydrokite.effmap import EffSurface, default_surface
from hydrokite.errors import (
    ConfigError, DomainWarning, EmptySet, Infeasible, NoFeasibleIndividual,
)
from hydrokite.hydro import FlowEnv, WingPlanform, loyd_power
from hydrokite.wingstruct import WingStructureDesign, section_properties


def flat_surface(eta=1.0):
    return EffSurface(degree=0, coeffs=np.array([eta]),
                      domain=(7.0, 10.0, 4.0, 12.0), residual_rms=0.0)


FAST_GRID = SearchGrid(s_step=0.5, d_step=0.1, l_step=1.0, ar_scan=32,
                       n_stations=400)


def fast_ctx(**kw):
    """Coarse grids keep solver tests quick; physics unchanged."""
    base = dict(surface=flat_surface(), grid=FAST_GRID)
    base.update(kw)
    return DesignContext(**base)


def mid_vector():
    return np.array([8.0, 6.0, 2.0, 10.0, 3.0, 0.6, 8.0, 4.0])


# -- design assembly --------------------------------------------------------

def test_evaluate_design_round_trip():
    ctx = fast_ctx()
    u = mid_vector()
    design = evaluate_design(u, ctx)
    assert np.allclose(design.as_vector(), u)
    assert design.m_wing > 0.0 and design.m_fuse > 0.0
    assert design.m_kite == design.m_wing + design.m_fuse
    assert design.chord == pytest.approx(8.0 / 6.0)
    assert design.planform_area == pytest.approx(64.0 / 6.0)


def test_design_box_is_enforced():
    ctx = fast_ctx()
    for i in range(8):
        u = mid_vector()
        u[i] = DESIGN_HI[i] + 0.5
        with pytest.raises(ValueError):
            evaluate_design(u, ctx)
        u = mid_vector()
        u[i] = DESIGN_LO[i] - 0.5
        with pytest.raises(ValueError):
            evaluate_design(u, ctx)
        # a NaN entry once passed the box check and sized a design
        u = mid_vector()
        u[i] = math.nan
        with pytest.raises(ValueError, match="admissible box"):
            evaluate_design(u, ctx)


def test_design_box_is_exact():
    ctx = DesignContext()
    for corner in (DESIGN_LO, DESIGN_HI):
        assert np.array_equal(evaluate_design(corner, ctx).as_vector(), corner)
    # just past the wall bound: the box check fires before the hull is built
    with pytest.raises(ValueError, match="admissible box"):
        evaluate_design([8, 6, 2, 10, 3, 0.6, 8, 10 + 5e-10], ctx)


def test_evaluate_design_rejects_misshapen_vectors():
    ctx = fast_ctx()
    u = mid_vector()
    for bad in (u.reshape(8, 1), u.reshape(2, 4), u.tolist()[:7]):
        with pytest.raises(ValueError, match="eight entries"):
            evaluate_design(bad, ctx)
    # any iterable of eight numbers still assembles the same design
    assert evaluate_design(iter(u.tolist()), ctx) == evaluate_design(u, ctx)


def test_design_search_hands_out_python_floats():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    for name in ("span", "aspect_ratio", "spar_width_pct", "shell_pct",
                 "diameter", "length", "wall_pct", "m_wing", "m_fuse",
                 "volume", "power"):
        assert type(getattr(design, name)) is float, name
    assert type(design.n_spars) is int
    for s, ar in sft_enumerate(590e3, ctx):
        assert type(s) is float and type(ar) is float
    point = fully_nested(590e3, ctx)
    for value in (point.m_wing, point.design.span, point.design.aspect_ratio):
        assert type(value) is float


def test_buoyancy_margin_uses_flow_density():
    ctx = fast_ctx(flow=FlowEnv(density=1025.0))
    design = evaluate_design(mid_vector(), ctx)
    displaced = 1025.0 * design.volume
    assert design_margins(design, ctx)["buoyancy"] == (
        (displaced - design.m_kite) / displaced)


def test_margins_at_the_wall_bound():
    # wall = THICKNESS_MAX_PCT at the smallest diameter, the box corner where
    # 0.1*D exceeds D/10 by rounding
    ctx = fast_ctx()
    margins = design_margins(evaluate_design([8, 6, 2, 10, 3, 0.4, 8, 10], ctx), ctx)
    assert set(margins) == {"wing_inertia", "fuse_shear", "fuse_hoop",
                            "fuse_buckling", "buoyancy"}
    assert margins["fuse_buckling"] > 0.0


def test_power_is_ideal_times_surface():
    eta = 0.73
    ctx = fast_ctx(surface=flat_surface(eta))
    s, ar = 8.2, 7.5
    ideal = loyd_power(WingPlanform(s, ar), ctx.flow, foil=ctx.foil_coeffs)
    assert power_of(s, ar, ctx) == pytest.approx(eta * ideal, rel=1e-12)


def test_power_increases_with_span():
    ctx = fast_ctx()
    powers = [power_of(s, 6.0, ctx) for s in (7.0, 8.0, 9.0, 10.0)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


# -- root enumeration -------------------------------------------------------

def test_sft_constructed_root_is_recovered():
    ctx = fast_ctx()
    s0, ar0 = 8.5, 7.3
    p0 = power_of(s0, ar0, ctx)
    roots = sft_enumerate(p0, ctx, s_grid=np.array([s0]))
    hits = [ar for s, ar in roots if abs(ar - ar0) < 1e-4 * ar0]
    assert hits, f"no root near AR={ar0}: {roots}"


def test_sft_roots_meet_the_power_target():
    ctx = fast_ctx()
    p_req = 450e3
    for s, ar in sft_enumerate(p_req, ctx):
        assert abs(power_of(s, ar, ctx) - p_req) <= 1e-3 * p_req


def test_sft_matches_brentq_oracle():
    # constant-efficiency power is monotone in AR at fixed span here, so
    # each span carries at most one root and a reference solver applies
    ctx = fast_ctx()
    p_req = 500e3
    roots = sft_enumerate(p_req, ctx)
    by_span = {}
    for s, ar in roots:
        by_span.setdefault(s, []).append(ar)
    for s, ars in by_span.items():
        assert len(ars) == 1
        ref = brentq(lambda ar: power_of(s, ar, ctx) - p_req, 4.0, 12.0,
                     xtol=1e-10)
        assert ars[0] == pytest.approx(ref, abs=2e-5)


def test_sft_empty_set_outside_reachable_powers():
    ctx = fast_ctx()
    with pytest.raises(EmptySet):
        sft_enumerate(5e6, ctx)
    with pytest.raises(EmptySet):
        sft_enumerate(1.0, ctx)


def test_sft_rejects_nonpositive_power():
    # a NaN target once sized thousands of bogus roots and returned a design
    for p_req in (-5.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="required power"):
            sft_enumerate(p_req, fast_ctx())


def scalar_scan_roots(p_req, ctx, s_grid=None):
    """The contour scan calling power_of at every node: the reference the
    one-pass scan of sft_enumerate must reproduce bit for bit."""
    if s_grid is None:
        s_grid = codesign._axis_grid(*SPAN_RANGE, ctx.grid.s_step)
    ar_grid = np.linspace(*ASPECT_RANGE, ctx.grid.ar_scan + 1).tolist()
    roots = []
    for s in np.asarray(s_grid, dtype=float).tolist():
        vals = [power_of(s, ar, ctx) - p_req for ar in ar_grid]
        for i in range(len(ar_grid) - 1):
            lo, hi = ar_grid[i], ar_grid[i + 1]
            f_lo, f_hi = vals[i], vals[i + 1]
            if f_lo == 0.0:
                roots.append((s, lo))
                continue
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


def assert_scan_matches_reference(p_req, ctx, s_grid=None):
    want = scalar_scan_roots(p_req, ctx, s_grid)
    if not want:
        with pytest.raises(EmptySet):
            sft_enumerate(p_req, ctx, s_grid)
        return
    got = sft_enumerate(p_req, ctx, s_grid)
    assert [(s.hex(), ar.hex()) for s, ar in got] == [
        (s.hex(), ar.hex()) for s, ar in want], p_req


@pytest.mark.parametrize("surface", [default_surface(), flat_surface(0.9)],
                         ids=["bundled", "constant"])
def test_one_pass_scan_finds_the_scalar_scans_roots(surface):
    ctx = DesignContext(surface=surface)
    for p_req in np.arange(300e3, 700e3 + 1.0, 10e3).tolist():
        assert_scan_matches_reference(p_req, ctx)


def test_one_pass_scan_honours_a_span_grid_override():
    ctx = DesignContext()
    for p_req in (350e3, 500e3, 650e3):
        assert_scan_matches_reference(p_req, ctx, np.array([7.3, 8.5, 9.95]))


@pytest.mark.parametrize("surface", [default_surface(), flat_surface(0.9)],
                         ids=["bundled", "constant"])
def test_power_grid_matches_power_of(surface):
    ctx = DesignContext(surface=surface)
    spans = codesign._axis_grid(*SPAN_RANGE, ctx.grid.s_step)
    aspects = np.linspace(*ASPECT_RANGE, ctx.grid.ar_scan + 1).tolist()
    grid = power_grid(spans, aspects, ctx)
    want = [[power_of(s, ar, ctx) for ar in aspects] for s in spans]
    np.testing.assert_allclose(grid, want, rtol=1e-14, atol=0.0)


def test_sft_returns_a_node_on_the_contour_once():
    ctx = DesignContext()
    s0, ar0 = 8.5, 6.5   # 6.5 is a node of the 64-interval AR scan
    assert ar0 in np.linspace(*ASPECT_RANGE, ctx.grid.ar_scan + 1).tolist()
    roots = sft_enumerate(power_of(s0, ar0, ctx), ctx, s_grid=np.array([s0]))
    assert roots.count((s0, ar0)) == 1
    assert all(ar == ar0 or abs(ar - ar0) > 1e-3 for _, ar in roots), roots


def test_narrow_surface_warns_once_per_scan():
    # a surface fitted over AR 4-7.5 clamps every scan node above 7.5, and
    # at 500 kW the bisections run there too
    ctx = DesignContext(
        surface=replace(default_surface(), domain=(7.0, 10.0, 4.0, 7.5)))
    spans = codesign._axis_grid(*SPAN_RANGE, ctx.grid.s_step)
    aspects = np.linspace(*ASPECT_RANGE, ctx.grid.ar_scan + 1)
    n_out = len(spans) * int(np.count_nonzero(aspects > 7.5))
    with pytest.warns(DomainWarning,
                      match=f"{n_out} of {aspects.size * len(spans)} points") as record:
        roots = sft_enumerate(500e3, ctx)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        assert roots == scalar_scan_roots(500e3, ctx)
    assert any(ar > 7.5 for _, ar in roots)


# -- surrogate selection ----------------------------------------------------

def test_sfot_minimizes_each_surrogate():
    ctx = fast_ctx()
    p_req = 500e3
    candidates = sft_enumerate(p_req, ctx)
    s_span = sfot(p_req, "span", ctx)
    assert s_span[0] == min(c[0] for c in candidates)
    s_vol = sfot(p_req, "wing_volume", ctx)
    vol = lambda c: c[0] ** 3 / c[1] ** 2
    assert vol(s_vol) == min(vol(c) for c in candidates)


def test_sfot_breaks_span_ties_toward_larger_aspect():
    # the bundled basin surface bends the power contour back on itself, so
    # the smallest feasible span carries two roots
    ctx = DesignContext(grid=SearchGrid(s_step=0.05, ar_scan=64))
    p_req = 500e3
    candidates = sft_enumerate(p_req, ctx)
    s_min = min(c[0] for c in candidates)
    at_min = [ar for s, ar in candidates if s == s_min]
    if len(at_min) < 2:
        pytest.skip("contour did not fold at the minimal span")
    assert sfot(p_req, "span", ctx)[1] == pytest.approx(max(at_min))


def test_sfot_rejects_unknown_surrogate(monkeypatch):
    # before the contour scan, which costs milliseconds
    def no_scan(*args, **kwargs):
        raise AssertionError("power_grid called for an unknown surrogate")

    monkeypatch.setattr(codesign, "power_grid", no_scan)
    with pytest.raises(ConfigError, match="mass"):
        sfot(500e3, "mass", fast_ctx())


# -- Pareto solvers ---------------------------------------------------------

def test_nested_sequential_returns_audited_point():
    # power contours are steep in (s, AR) here, so the target is chosen to
    # land the minimal-span candidate at a buildable aspect ratio
    ctx = fast_ctx()
    point = nested_sequential(590e3, "span", ctx)
    assert isinstance(point, ParetoPoint)
    assert abs(point.design.power - 590e3) <= 1e-3 * 590e3
    assert point.m_wing == point.design.m_wing
    assert margins_ok(audit_design(point.design, ctx, p_req=590e3))
    assert point.strategy == "nested_sequential[span]"


def test_fully_nested_dominates_sequential():
    # both solvers draw from the same candidate set, so the global search
    # can never return a heavier wing than the surrogate pipeline
    ctx = fast_ctx(grid=replace(FAST_GRID, s_step=0.25))
    for p_req in (500e3, 590e3):
        full = fully_nested(p_req, ctx)
        seq = nested_sequential(p_req, "span", ctx)
        assert full.m_wing <= seq.m_wing + 1e-9
        assert margins_ok(audit_design(full.design, ctx, p_req=p_req))


def test_fully_nested_beats_sequential_at_a_contour_fold():
    # the bundled basin surface folds the 500 kW contour back on itself at
    # the minimal span, so the span surrogate grabs the wrong branch and
    # the global search wins outright
    ctx = DesignContext(grid=SearchGrid(s_step=0.05, d_step=0.05, l_step=0.5,
                                        ar_scan=64, n_stations=400))
    seq = nested_sequential(500e3, "span", ctx)
    full = fully_nested(500e3, ctx)
    assert seq.design.span == pytest.approx(full.design.span)
    assert full.design.aspect_ratio < seq.design.aspect_ratio
    assert full.m_wing < 0.85 * seq.m_wing


def test_fully_nested_matches_exhaustive_scan():
    ctx = fast_ctx()
    p_req = 590e3
    point = fully_nested(p_req, ctx)
    # independent re-scan of every candidate via the public pieces
    from hydrokite.wingstruct import rated_wing_load, swdt_optimize
    best = math.inf
    for s, ar in sft_enumerate(p_req, ctx):
        pl = WingPlanform(s, ar)
        try:
            sizing = swdt_optimize(pl, rated_wing_load(pl, ctx.flow, ctx.foil_coeffs),
                                   ctx.material, ctx.foil, n_stations=ctx.grid.n_stations)
        except Infeasible:
            continue
        best = min(best, sizing.mass)
    assert math.isfinite(best)
    # the solver also demands a feasible hull, so it can only do as well
    assert point.m_wing >= best - 1e-9
    assert point.m_wing == pytest.approx(best, rel=0.05)


def test_pareto_sweep_skips_failed_points():
    ctx = fast_ctx()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = pareto_sweep([590e3, 5e6], ctx)
    assert len(points) == 1
    assert any("skipped" in str(w.message) for w in caught)
    with pytest.raises(EmptySet):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pareto_sweep([5e6, 6e6], ctx)


def test_pareto_sweep_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        pareto_sweep([450e3], fast_ctx(), strategy="annealing")


# -- genetic search ---------------------------------------------------------

def ga_cfg(**kw):
    base = dict(population=40, generations=8, seed=3, polish=False)
    base.update(kw)
    return GAConfig(**base)


def test_ga_winner_is_feasible_and_above_floor():
    ctx = fast_ctx()
    point = simultaneous_ga(1.0, 350e3, ctx, ga_cfg())
    assert isinstance(point, DualPoint)
    assert point.design.power >= 350e3 * (1.0 - 1e-9)
    assert margins_ok(design_margins(point.design, ctx))
    expect = math.log(point.design.power) - math.log(point.design.m_wing)
    assert point.objective == pytest.approx(expect, rel=1e-12)


def test_ga_scores_each_new_genome_once(monkeypatch):
    ctx = fast_ctx()
    cfg = ga_cfg()
    calls = []

    def counted(*args):
        calls.append(args[0])
        return score(*args)

    score = codesign._ga_fitness
    monkeypatch.setattr(codesign, "_ga_fitness", counted)
    simultaneous_ga(1.0, 350e3, ctx, cfg)
    # the elite carry their scores into the next generation
    assert len(calls) == (cfg.population
                          + (cfg.population - cfg.elite) * cfg.generations)


def reference_sbx_pair(p1, p2, eta, rng):
    u = rng.uniform(size=p1.shape)
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def reference_poly_mutate(x, lo, hi, eta, prob, rng):
    u = rng.uniform(size=x.shape)
    do = rng.uniform(size=x.shape) < prob
    delta = np.where(u < 0.5,
                     (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
                     1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)))
    return np.where(do, x + delta * (hi - lo), x)


def reference_simultaneous_ga(w, p_min, ctx, cfg):
    """simultaneous_ga without polish, breeding one pair at a time: each
    pair draws its tournament, crossover and mutation numbers and is bred
    before the next pair draws."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = DESIGN_LO.copy(), DESIGN_HI.copy()
    sample_lo = lo.copy()
    sample_lo[3] = max(sample_lo[3], 1e-3)
    sample_lo[4] = max(sample_lo[4], 1e-3)
    pop = rng.uniform(sample_lo, hi, size=(cfg.population, 8))
    pop[:, 2] = rng.integers(codesign.N_SPARS_MIN, codesign.N_SPARS_MAX + 1,
                             size=cfg.population)
    scored = [codesign._ga_fitness(u, w, p_min, ctx) for u in pop]
    fitness = np.array([s[0] for s in scored])
    for _ in range(cfg.generations):
        elite = np.argsort(-fitness, kind="stable")[:cfg.elite]
        children = []
        while len(children) < cfg.population - cfg.elite:
            picks = rng.integers(0, cfg.population, size=(2, cfg.tournament))
            p1 = pop[picks[0][np.argmax(fitness[picks[0]])]]
            p2 = pop[picks[1][np.argmax(fitness[picks[1]])]]
            if rng.uniform() < cfg.crossover_prob:
                c1, c2 = reference_sbx_pair(p1, p2, cfg.sbx_eta, rng)
                n_sp = (p1[2], p2[2]) if rng.uniform() < 0.5 else (p2[2], p1[2])
                c1[2], c2[2] = n_sp
            else:
                c1, c2 = p1.copy(), p2.copy()
            for child in (c1, c2):
                child[:] = reference_poly_mutate(
                    child, lo, hi, cfg.mutation_eta, cfg.mutation_prob, rng)
                if rng.uniform() < cfg.mutation_prob:
                    child[2] = rng.integers(codesign.N_SPARS_MIN,
                                            codesign.N_SPARS_MAX + 1)
                np.clip(child, lo, hi, out=child)
                child[2] = float(int(round(child[2])))
                children.append(child)
        children = children[:cfg.population - cfg.elite]
        pop = np.vstack([pop[elite], np.array(children)])
        scored = ([scored[i] for i in elite]
                  + [codesign._ga_fitness(u, w, p_min, ctx) for u in children])
        fitness = np.array([s[0] for s in scored])
    _, best_design = scored[int(np.argmax(fitness))]
    if best_design is None:
        raise NoFeasibleIndividual("no feasible design")
    return DualPoint(weight=w, p_min=p_min, design=best_design)


@pytest.mark.parametrize("tournament", [1, 3])
@pytest.mark.parametrize("crossover_prob", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("mutation_prob", [0.0, 0.125, 1.0])
def test_ga_breeds_the_pairwise_reference_children(
        monkeypatch, tournament, crossover_prob, mutation_prob):
    # population - elite is odd: the last pair's second child is bred and
    # then dropped, so its draws still advance the stream
    ctx = fast_ctx()
    genomes = []

    def recorded(*args):
        genomes.append(args[0].tolist())
        return score(*args)

    score = codesign._ga_fitness
    monkeypatch.setattr(codesign, "_ga_fitness", recorded)
    for seed in (0, 1, 2):
        cfg = ga_cfg(population=21, elite=4, generations=4, seed=seed,
                     tournament=tournament, crossover_prob=crossover_prob,
                     mutation_prob=mutation_prob)
        expected = reference_simultaneous_ga(16.0, 350e3, ctx, cfg)
        expected_genomes, genomes[:] = genomes[:], []
        got = simultaneous_ga(16.0, 350e3, ctx, cfg)
        # every genome scored, in order, not only the winner
        assert genomes == expected_genomes, seed
        assert len(genomes) == (cfg.population
                                + (cfg.population - cfg.elite) * cfg.generations)
        for f in fields(KiteDesign):
            assert (getattr(got.design, f.name)
                    == getattr(expected.design, f.name)), (seed, f.name)
        genomes.clear()


@pytest.mark.parametrize("polish", [False, True])
def test_dual_point_objective_is_the_ga_score(monkeypatch, polish):
    ctx = fast_ctx()
    scored = []

    def recorded(*args):
        scored.append(score(*args))
        return scored[-1]

    score = codesign._ga_fitness
    monkeypatch.setattr(codesign, "_ga_fitness", recorded)
    point = simultaneous_ga(16.0, 350e3, ctx, ga_cfg(polish=polish))
    fits = [fit for fit, design in scored if design is point.design]
    assert len(fits) == 1
    assert point.objective.hex() == fits[0].hex()


def test_ga_is_deterministic_per_seed():
    ctx = fast_ctx()
    a = simultaneous_ga(1.0, 350e3, ctx, ga_cfg(seed=11))
    b = simultaneous_ga(1.0, 350e3, ctx, ga_cfg(seed=11))
    assert a.objective == b.objective
    assert np.array_equal(a.design.as_vector(), b.design.as_vector())
    c = simultaneous_ga(1.0, 350e3, ctx, ga_cfg(seed=12))
    # a different stream almost surely lands elsewhere in the box
    assert not np.array_equal(a.design.as_vector(), c.design.as_vector())


def test_ga_polish_never_hurts():
    ctx = fast_ctx()
    raw = simultaneous_ga(1.0, 350e3, ctx, ga_cfg(seed=5, polish=False))
    polished = simultaneous_ga(1.0, 350e3, ctx, ga_cfg(seed=5, polish=True))
    assert polished.objective >= raw.objective


def nelder_mead_problems():
    """(name, f, x0, maxiter) of seeded problems in 1 to 7 variables."""
    rng = np.random.default_rng(5)
    for trial in range(24):
        n = 1 + trial % 7
        a = rng.normal(size=(n, n))
        hess = a @ a.T + n * np.eye(n)
        center = rng.normal(size=n)
        x0 = 3.0 * rng.normal(size=n)
        x0[rng.uniform(size=n) < 0.3] = 0.0
        yield (f"quadratic-{trial}", lambda x, h=hess, c=center: float(
            (x - c) @ h @ (x - c)), x0, 400)
        yield (f"plateau-{trial}", lambda x, c=center: float(
            np.floor(8.0 * np.sum((x - c) ** 2))), x0, 400)
    # wide integer steps tie vertices with trial points, which is where the
    # method's strict and non-strict comparisons differ
    for trial in range(60):
        n = 1 + trial % 4
        center = 30.0 * rng.normal(size=n)
        x0 = 100.0 * rng.normal(size=n)
        x0[rng.uniform(size=n) < 0.3] = 0.0
        yield (f"wide-plateau-{trial}", lambda x, c=center: float(
            np.floor(np.sum((x - c) ** 2) / 100.0)), x0, 400)
    rosen = lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                   + (1.0 - x[:-1]) ** 2))
    for n in (2, 4, 7):
        yield f"rosenbrock-{n}", rosen, np.zeros(n), 400
        yield f"rosenbrock-{n}-shifted", rosen, rng.uniform(-1.5, 1.5, n), 400
    yield "rosenbrock-7-capped", rosen, np.full(7, -1.2), 50


def test_nelder_mead_matches_the_reference_bitwise():
    """_nelder_mead returns the reference implementation's vertex exactly."""
    stopped = set()
    for name, f, x0, maxiter in nelder_mead_problems():
        ref = minimize(f, x0, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-5, "fatol": 1e-9})
        x = _nelder_mead(f, x0, maxiter=maxiter, xatol=1e-5, fatol=1e-9)
        assert np.array_equal(x, ref.x), name
        stopped.add(ref.status)
    # both stopping paths ran: tolerance met (0) and iteration cap (2)
    assert stopped == {0, 2}


def test_ga_weight_steers_the_power_mass_balance():
    ctx = fast_ctx()
    low = simultaneous_ga(0.01, 300e3, ctx, ga_cfg(generations=15))
    high = simultaneous_ga(100.0, 300e3, ctx, ga_cfg(generations=15))
    assert high.design.power >= low.design.power
    assert high.design.m_wing >= low.design.m_wing


def test_ga_reports_infeasibility():
    ctx = fast_ctx()
    with pytest.raises(NoFeasibleIndividual):
        simultaneous_ga(1.0, 5e6, ctx, ga_cfg())


def test_ga_config_requires_elitism():
    for elite in (0, 40, 41):
        with pytest.raises(ValueError):
            ga_cfg(elite=elite)
    assert ga_cfg(elite=39).elite == 39


@pytest.mark.parametrize("name", ["crossover_prob", "mutation_prob"])
def test_ga_config_rejects_a_probability_outside_the_unit_interval(name):
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match=name):
            ga_cfg(**{name: bad})
    for good in (0.0, 1.0):
        assert getattr(ga_cfg(**{name: good}), name) == good


@pytest.mark.parametrize("name", ["sbx_eta", "mutation_eta"])
def test_ga_config_rejects_a_negative_or_infinite_eta(name):
    # -1 made the operators' exponent 1/(eta + 1) divide by zero mid-run
    for bad in (-1.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=name):
            ga_cfg(**{name: bad})
    assert getattr(ga_cfg(**{name: 0.0}), name) == 0.0


def test_ga_config_rejects_negative_generations():
    with pytest.raises(ValueError, match="generations"):
        ga_cfg(generations=-1)
    # no generations: the winner comes from the scored initial population
    point = simultaneous_ga(16.0, 350e3, fast_ctx(), ga_cfg(generations=0))
    assert point.design.power >= 350e3


def test_ga_rejects_nonpositive_weight():
    # a NaN floor once dropped the power constraint and returned a design
    for w, p_min in ((0.0, 350e3), (math.nan, 350e3), (math.inf, 350e3),
                     (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ConfigError, match="must be finite and positive"):
            simultaneous_ga(w, p_min, fast_ctx(), ga_cfg())


def test_dual_sweep_is_deterministic_and_validated():
    ctx = fast_ctx()
    ws = [0.5, 2.0]
    a = dual_sweep(ws, 320e3, ctx, ga_cfg())
    b = dual_sweep(ws, 320e3, ctx, ga_cfg())
    assert len(a) == 2
    for pa, pb in zip(a, b):
        assert pa.objective == pb.objective
        assert np.array_equal(pa.design.as_vector(), pb.design.as_vector())
    with pytest.raises(EmptySet):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dual_sweep(ws, 5e6, ctx, ga_cfg())


# -- audit ------------------------------------------------------------------

def test_audit_flags_a_lying_power_field():
    ctx = fast_ctx()
    honest = evaluate_design(mid_vector(), ctx)
    margins = audit_design(honest, ctx)
    assert margins["power_recompute"] >= 0.0
    liar = KiteDesign(**{**design_field_dict(honest), "power": honest.power * 1.05})
    assert audit_design(liar, ctx)["power_recompute"] < 0.0


def design_field_dict(d):
    return {f.name: getattr(d, f.name) for f in fields(d)}


def test_audit_flags_a_lying_wing_inertia():
    ctx = fast_ctx()
    honest = evaluate_design(mid_vector(), ctx)
    assert "wing_inertia" in design_field_dict(honest)
    margins = audit_design(honest, ctx)
    assert margins["wing_recompute"] >= 0.0 and margins_ok(margins)
    liar = KiteDesign(**{**design_field_dict(honest),
                         "wing_inertia": honest.wing_inertia * 1.05})
    margins = audit_design(liar, ctx)
    assert margins["wing_recompute"] < 0.0 and not margins_ok(margins)


def test_evaluate_design_records_the_section_inertia():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    layout = WingStructureDesign(design.n_spars, design.spar_width_pct,
                                 design.shell_pct)
    section = section_properties(layout, design.chord, ctx.foil,
                                 n_stations=ctx.grid.n_stations)
    assert design.wing_inertia == section.inertia


def test_audit_flags_an_undersized_wall():
    ctx = fast_ctx()
    u = mid_vector()
    u[7] = 0.5  # thinnest admissible wall
    design = evaluate_design(u, ctx)
    margins = design_margins(design, ctx)
    assert min(margins["fuse_shear"], margins["fuse_hoop"],
               margins["fuse_buckling"]) < 0.0


def test_audit_checks_the_power_target():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    on_target = audit_design(design, ctx, p_req=design.power)
    assert on_target["power_target"] >= 0.0
    off_target = audit_design(design, ctx, p_req=design.power * 1.5)
    assert off_target["power_target"] < 0.0


def test_pareto_point_rejects_power_mismatch():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    with pytest.raises(ValueError):
        ParetoPoint(p_req=design.power * 2.0, design=design,
                    strategy="manual", power_tol=ctx.grid.power_tol)


def test_dual_point_rejects_inconsistent_objective():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    good = math.log(design.power) - math.log(design.m_wing)
    point = DualPoint(weight=1.0, p_min=design.power / 2.0, design=design)
    assert point.objective == good
    with pytest.raises(ValueError):
        DualPoint(weight=1.0, p_min=design.power * 2.0, design=design)


# -- hull geometry ----------------------------------------------------------

def test_lower_hull_of_a_diamond():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1.0, -1.0]])
    hull = lower_hull(pts)
    assert np.array_equal(hull, [[0.0, 0.0], [1.0, -1.0], [2.0, 0.0]])


def test_lower_hull_collapses_collinear_points():
    pts = np.array([[float(i), 2.0 * i + 1.0] for i in range(5)])
    hull = lower_hull(pts)
    assert np.array_equal(hull, [[0.0, 1.0], [4.0, 9.0]])
    for x, y in pts:
        assert hull_gap(x, y, hull) == pytest.approx(0.0, abs=1e-12)


def test_hull_gap_signs_and_clamping():
    hull = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert hull_gap(1.0, 0.5, hull) == pytest.approx(0.5)
    assert hull_gap(1.0, -0.5, hull) == pytest.approx(-0.5)
    # x outside the hull range compares against the nearest vertex
    assert hull_gap(5.0, 1.0, hull) == pytest.approx(1.0)


def test_random_cloud_sits_on_or_above_its_hull():
    rng = np.random.default_rng(20240825)
    for _ in range(20):
        pts = rng.uniform(-1.0, 1.0, size=(30, 2))
        hull = lower_hull(pts)
        gaps = [hull_gap(x, y, hull) for x, y in pts]
        assert min(gaps) >= -1e-12
        assert np.all(np.diff(hull[:, 0]) > 0.0)


# -- records ----------------------------------------------------------------

def test_front_text_round_trips_exactly():
    ctx = fast_ctx()
    points = pareto_sweep([590e3, 650e3], ctx)
    text = front_text(points)
    lines = text.strip().split("\n")
    assert lines[0].startswith("P_req\t")
    row = [float(x) for x in lines[1].split("\t")]
    assert row[0] == points[0].p_req
    assert row[1] == points[0].m_wing
    cloud = pareto_log_cloud(points)
    assert cloud.shape == (len(points), 2)
    assert np.all(np.isfinite(cloud))


def test_design_record_carries_every_design_field():
    design = evaluate_design(mid_vector(), fast_ctx())
    record = design_record(design)
    for f in fields(KiteDesign):
        assert record[f.name] == getattr(design, f.name)
    for name in ("chord", "planform_area", "m_kite"):
        assert record[name] == getattr(design, name)


def test_design_record_carries_margins():
    ctx = fast_ctx()
    design = evaluate_design(mid_vector(), ctx)
    record = design_record(design, ctx)
    assert record["m_kite"] == design.m_kite
    assert set(record["margins"]) >= {"wing_inertia", "fuse_shear", "buoyancy"}
    assert "margins" not in design_record(design)


def test_dual_front_text_lists_all_weights():
    ctx = fast_ctx()
    points = dual_sweep([0.5, 2.0], 320e3, ctx, ga_cfg())
    text = dual_front_text(points)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert float(lines[1].split("\t")[0]) == 0.5
