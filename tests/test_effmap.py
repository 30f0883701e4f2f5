import pickle
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from hydrokite import effmap, ilc
from hydrokite.codesign import DesignContext, SearchGrid, _best_hull
from hydrokite.config import SuiteConfig
from hydrokite.dynsim import SimParams
from hydrokite.effmap import (
    EffSample, EffSurface, default_surface, design_matrix, fit_surface,
    generate_samples, load_samples, load_surface, monomial_exponents,
    monomials, parse_surface, save_samples, save_surface, simulated_point,
    surface_text,
)
from hydrokite.errors import ConfigError, DomainWarning, NumericBlowup, RankDeficient
from hydrokite.hydro import FlowEnv, WingPlanform
from hydrokite.ilc import ILCConfig
from hydrokite.wingstruct import rated_wing_load, swdt_optimize


def bowl_eta(s, ar):
    # exact member of the degree-2 model class
    return 0.9 - 0.003 * (s - 8.5) ** 2 - 0.0015 * (ar - 7.0) ** 2


def bowl_samples(n=30, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = rng.uniform(7.0, 10.0)
        ar = rng.uniform(4.0, 12.0)
        eta = bowl_eta(s, ar)
        out.append(EffSample(s, ar, eta * 1e5, 1e5))
    return out


def test_monomial_order_is_graded_lex():
    assert monomial_exponents(2, 2) == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(monomial_exponents(2, 3)) == 10
    # the lap optimizer's layout: 1, b1..b4, b1^2, b1b2, .., b3b4, b4^2
    assert monomial_exponents(4, 2)[5:9] == (
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
    assert monomial_exponents(4, 2)[-1] == (0, 0, 0, 2)
    with pytest.raises(ValueError):
        monomial_exponents(2, -1)


def two_variable_monomials(s, a, degree):
    """The 2-variable basis as two power chains: the reference the
    n-variable one must match bit for bit."""
    s_pows, a_pows = [1.0], [1.0]
    for _ in range(degree):
        s_pows.append(s_pows[-1] * s)
        a_pows.append(a_pows[-1] * a)
    exponents = [(g - j, j) for g in range(degree + 1) for j in range(g + 1)]
    return [s_pows[i] * a_pows[j] for i, j in exponents]


@pytest.mark.parametrize("degree", range(5))
def test_monomials_match_the_two_variable_chain_bitwise(degree):
    rng = np.random.default_rng(100 + degree)
    spans, aspects = rng.uniform(-20.0, 20.0, (2, 500))
    for s, a in zip(spans.tolist(), aspects.tolist()):
        assert [x.hex() for x in monomials((s, a), degree)] == \
            [x.hex() for x in two_variable_monomials(s, a, degree)]
    columns = monomials((spans, aspects), degree)
    for got, want in zip(columns, two_variable_monomials(spans, aspects, degree)):
        assert np.array_equal(np.broadcast_to(got, spans.shape),
                              np.broadcast_to(want, spans.shape))
    assert len(columns) == len(monomial_exponents(2, degree))


def test_sample_validates_ratio_and_range():
    assert EffSample(8.0, 6.0, 5e4, 1e5).eta == 0.5
    with pytest.raises(ValueError):
        EffSample(8.0, 6.0, 1.2e5, 1e5)     # above cap
    with pytest.raises(ValueError):
        EffSample(8.0, 6.0, 5e4, -1e5)


def test_fit_recovers_exact_quadratic():
    surface = fit_surface(bowl_samples())
    assert surface.residual_rms < 1e-9
    for s, ar in ((7.3, 5.0), (9.1, 10.2), (8.5, 7.0)):
        assert surface.eval(s, ar) == pytest.approx(bowl_eta(s, ar), abs=1e-6)


def test_fit_constant_samples_gives_constant_surface():
    samples = [EffSample(s, ar, 8e4, 1e5)
               for s in (7.0, 8.0, 9.0, 10.0) for ar in (4.0, 8.0, 12.0)]
    surface = fit_surface(samples)
    assert surface.residual_rms < 1e-12
    assert surface.eval(8.3, 6.7) == pytest.approx(0.8, abs=1e-9)


def test_fit_noisy_quadratic_residual_in_band():
    rng = np.random.default_rng(20240824)
    samples = []
    for _ in range(50):
        s = rng.uniform(7.0, 10.0)
        ar = rng.uniform(4.0, 12.0)
        eta = bowl_eta(s, ar) + rng.normal(0.0, 0.01)
        samples.append(EffSample(s, ar, eta * 1e5, 1e5))
    surface = fit_surface(samples)
    assert 0.005 <= surface.residual_rms <= 0.02


def test_fit_rejects_too_few_or_collinear_samples():
    with pytest.raises(RankDeficient):
        fit_surface(bowl_samples(n=5))
    # constant AR collapses three of the six columns
    flat = [EffSample(s, 6.0, 8e4, 1e5)
            for s in np.linspace(7.0, 10.0, 12)]
    with pytest.raises(RankDeficient):
        fit_surface(flat)
    # a constant is determined, but one span fixes no box to fit it over
    one_span = [EffSample(8.0, 5.0, 8e4, 1e5), EffSample(8.0, 6.0, 7e4, 1e5)]
    for samples in (one_span, [EffSample(8.0, 5.0, 8e4, 1e5)]):
        with pytest.raises(RankDeficient, match="one span or one aspect"):
            fit_surface(samples, degree=0)


def test_eval_clamps_outside_domain_with_warning():
    surface = fit_surface(bowl_samples())
    s_lo, s_hi, a_lo, a_hi = surface.domain
    with pytest.warns(DomainWarning):
        outside = surface.eval(s_hi + 1.0, a_hi + 3.0)
    assert outside == pytest.approx(bowl_eta(s_hi, a_hi), abs=1e-6)


def test_eval_array_clamps_like_eval_and_warns_once():
    surface = fit_surface(bowl_samples())
    s_lo, s_hi, a_lo, a_hi = surface.domain
    spans = np.array([s_lo - 1.0, s_lo, 0.5 * (s_lo + s_hi), s_hi + 2.0])
    aspects = np.array([a_lo - 0.5, a_lo, a_hi, a_hi + 3.0])
    # two rows wholly outside, and two columns outside in the other rows
    with pytest.warns(DomainWarning, match="12 of 16 points") as record:
        grid = surface.eval_array(spans[:, None], aspects)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        want = [[surface.eval(s, a) for a in aspects] for s in spans]
    assert grid.tolist() == want
    # a degree-0 sum is one float, yet the result keeps the query's shape
    flat = EffSurface(degree=0, coeffs=np.array([0.9]),
                      domain=(7.0, 10.0, 4.0, 12.0), residual_rms=0.0)
    grid = flat.eval_array(np.array([[8.0], [9.0]]), np.array([5.0, 6.0, 7.0]))
    assert grid.shape == (2, 3) and (grid == 0.9).all()


def test_eval_never_exceeds_cap():
    # samples hugging 1.0 with noise force the raw polynomial above the cap
    rng = np.random.default_rng(7)
    samples = []
    for s in np.linspace(7.0, 10.0, 6):
        for ar in np.linspace(4.0, 12.0, 6):
            eta = min(1.0, 0.995 + rng.normal(0.0, 0.004))
            samples.append(EffSample(s, ar, eta * 1e5, 1e5))
    surface = fit_surface(samples)
    raw = design_matrix([8.5], [8.0], 2)[0] @ surface.coeffs
    grid = [surface.eval(s, ar) for s in np.linspace(7, 10, 21)
            for ar in np.linspace(4, 12, 21)]
    assert max(grid) <= 1.0
    assert raw > 0.98  # the clamp is doing real work near the cap


def cubic_samples(n=40, seed=5):
    # a bowl with cubic terms, so every degree-3 coefficient does work
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = rng.uniform(7.0, 10.0)
        ar = rng.uniform(4.0, 12.0)
        eta = (bowl_eta(s, ar) + 0.002 * (s - 8.5) ** 3
               - 0.0002 * (ar - 7.0) ** 3)
        out.append(EffSample(s, ar, eta * 1e5, 1e5))
    return out


@pytest.mark.parametrize("degree", ["bundled", 1, 3])
def test_eval_matches_the_design_matrix_bitwise(degree, monkeypatch):
    if degree == "bundled":
        surface = default_surface()
    else:
        surface = fit_surface(cubic_samples(), degree=degree)
    # no clamp, so every raw value is compared
    monkeypatch.setattr(effmap, "ETA_FLOOR", -np.inf)
    monkeypatch.setattr(effmap, "ETA_CAP", np.inf)
    s_lo, s_hi, a_lo, a_hi = surface.domain
    rng = np.random.default_rng(20261018)
    spans = rng.uniform(s_lo, s_hi, 10_000).tolist()
    aspects = rng.uniform(a_lo, a_hi, 10_000).tolist()
    # column k times coefficient k, added left to right from the first
    matrix = design_matrix(spans, aspects, surface.degree)
    want = matrix[:, 0] * surface.coeffs[0]
    for k in range(1, matrix.shape[1]):
        want = want + matrix[:, k] * surface.coeffs[k]
    got = [surface.eval(s, a) for s, a in zip(spans, aspects)]
    assert got == want.tolist()
    # the matrix product sums in its own order; a sum's rounding error is
    # bounded relative to the sum of its terms' magnitudes, which the
    # degree-3 fit's cancelling terms make up to 16 times |eta|
    scale = np.abs(matrix * surface.coeffs).sum(axis=1)
    assert (np.abs(np.array(got) - matrix @ surface.coeffs) <= 1e-15 * scale).all()


def test_surface_round_trip_is_identity():
    surface = fit_surface(bowl_samples(n=40, seed=9))
    back = parse_surface(surface_text(surface))
    rng = np.random.default_rng(13)
    s_lo, s_hi, a_lo, a_hi = surface.domain
    for _ in range(100):
        s = rng.uniform(s_lo, s_hi)
        ar = rng.uniform(a_lo, a_hi)
        assert back.eval(s, ar) == pytest.approx(surface.eval(s, ar),
                                                 abs=1e-12)
    assert back.degree == surface.degree
    assert back.domain == surface.domain


def test_surface_file_round_trip(tmp_path):
    surface = fit_surface(bowl_samples())
    path = tmp_path / "eta.txt"
    save_surface(surface, path)
    back = load_surface(path)
    assert np.allclose(back.coeffs, surface.coeffs, atol=0, rtol=0)


def test_parse_surface_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        parse_surface("degree 2\n")
    good = surface_text(fit_surface(bowl_samples()))
    with pytest.raises(ConfigError):
        parse_surface(good.replace("coeff ", "coeff bad ", 1))
    # drop one coefficient line
    lines = good.strip().split("\n")
    with pytest.raises(ConfigError, match="degree 2 needs 6 coefficients"):
        parse_surface("\n".join(lines[:-1]))
    # a misspelt key is not skipped
    with pytest.raises(ConfigError, match="eta_flor"):
        parse_surface(good + "eta_flor 0.5\n")

    def flat(domain="7 10 4 12", residual="0", coeff="0.9"):
        return (f"degree 0\ndomain {domain}\nresidual_rms {residual}\n"
                f"coeff {coeff}\n")
    assert parse_surface(flat()).eval(8.0, 6.0) == 0.9
    # a NaN coefficient made eval return NaN; an infinite domain bound
    # let eval extrapolate unwarned, and a reversed pair clamped every
    # query to one edge
    for bad in (flat(coeff="nan"), flat(domain="7 inf 4 12"),
                flat(domain="10 7 4 12"), flat(domain="7 10 4"),
                flat(residual="nan"), flat(residual="-1")):
        with pytest.raises(ConfigError, match="malformed efficiency surface"):
            parse_surface(bad)


def test_negative_degree_is_rejected():
    # a surface with no terms would evaluate to ETA_FLOOR everywhere
    with pytest.raises(ConfigError, match="degree"):
        parse_surface("degree -1\ndomain 7 10 4 12\nresidual_rms 0\n")
    with pytest.raises(ValueError, match="degree"):
        EffSurface(degree=-1, coeffs=np.array([]),
                   domain=(7.0, 10.0, 4.0, 12.0), residual_rms=0.0)
    with pytest.raises(ValueError, match="degree"):
        fit_surface(bowl_samples(), degree=-1)


def test_coefficient_count_must_match_the_degree():
    # a sum pairing terms with coefficients would drop the missing terms
    box = dict(domain=(7.0, 10.0, 4.0, 12.0), residual_rms=0.0)
    with pytest.raises(ValueError, match="degree 2 needs 6 coefficients"):
        EffSurface(degree=2, coeffs=np.array([0.5]), **box)
    with pytest.raises(ValueError, match="degree 1 needs 3 coefficients"):
        EffSurface(degree=1, coeffs=np.array([[0.5, 0.0, 0.0]]), **box)


def test_default_surface_loads_and_is_sane():
    surface = default_surface()
    assert surface.domain == (7.0, 10.0, 4.0, 12.0)
    vals = [surface.eval(s, ar) for s in np.linspace(7, 10, 7)
            for ar in np.linspace(4, 12, 9)]
    assert all(0.5 < v <= 1.0 for v in vals)
    # single smooth basin: the peak sits strictly inside the box
    peak = max(vals)
    edge = max(surface.eval(7.0, 4.0), surface.eval(10.0, 12.0))
    assert peak > edge


def test_samples_file_round_trip(tmp_path):
    samples = bowl_samples(n=20, seed=4)
    path = tmp_path / "samples.txt"
    save_samples(samples, path)
    back = load_samples(path)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert (a.span, a.aspect_ratio, a.eta) == (b.span, b.aspect_ratio, b.eta)


def test_load_samples_requires_the_header(tmp_path):
    samples = bowl_samples(n=2, seed=4)
    path = tmp_path / "samples.txt"
    save_samples(samples, path)
    assert len(load_samples(path)) == 2
    # without its header line the file would lose its first sample
    headerless = tmp_path / "headerless.txt"
    headerless.write_text("".join(path.read_text().splitlines(True)[1:]))
    with pytest.raises(ConfigError, match="headerless.txt line 1: expected the header"):
        load_samples(headerless)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty.txt line 1"):
        load_samples(empty)


def test_load_samples_rejects_an_inconsistent_eta_column(tmp_path):
    path = tmp_path / "samples.txt"
    save_samples(bowl_samples(n=3, seed=4), path)
    lines = path.read_text().splitlines()
    s, ar, eta, p_star, p_ideal = lines[2].split("\t")
    lines[2] = "\t".join((s, ar, repr(float(eta) + 0.1), p_star, p_ideal))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="P_star / P_ideal"):
        load_samples(path)


@pytest.mark.parametrize("row", [
    pytest.param("8\t6\t0.5\t5e4", id="four-columns"),
    pytest.param("8\t6\t0.5\t5e4\t1e5\t0", id="six-columns"),
    pytest.param("8\t6\thalf\t5e4\t1e5", id="not-a-number"),
    pytest.param("8\t6\t1.2\t1.2e5\t1e5", id="eta-above-cap"),
    pytest.param("8\t6\t-0.5\t5e4\t-1e5", id="ideal-not-positive"),
])
def test_load_samples_rejects_a_malformed_row(tmp_path, row):
    path = tmp_path / "samples.txt"
    save_samples(bowl_samples(n=2, seed=4), path)
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ConfigError, match="line 4"):
        load_samples(path)


def test_generate_samples_stub_eta_one():
    out = generate_samples([(8.5, 6.0)], point_fn=lambda s, ar: (2e5, 2e5))
    assert len(out) == 1
    assert out[0].eta == pytest.approx(1.0)


def test_generate_samples_grid_properties_and_determinism():
    def scorer(s, ar):
        return bowl_eta(s, ar) * 3e5, 3e5

    grid = [(s, ar) for s in (7.0, 8.5, 10.0) for ar in (4.0, 8.0, 12.0)]
    first = generate_samples(grid, point_fn=scorer)
    second = generate_samples(grid + [grid[0]], point_fn=scorer)
    assert len(first) == 9
    assert all(0.0 < p.eta <= 1.0 for p in first)
    assert second[0].eta == second[-1].eta
    assert [p.eta for p in first] == [p.eta for p in second[:9]]


def test_generate_samples_skips_diverged_points_with_warning():
    def scorer(s, ar):
        if ar > 10.0:
            raise NumericBlowup("non-finite state at t = 1.000 s")
        return 2.5e5, 5e5

    grid = [(8.0, 6.0), (8.0, 11.0), (9.0, 5.0)]
    with pytest.warns(UserWarning, match="skipping geometry"):
        out = generate_samples(grid, point_fn=scorer)
    assert [(p.span, p.aspect_ratio) for p in out] == [(8.0, 6.0), (9.0, 5.0)]


def test_generate_samples_skips_simulated_points_that_fail():
    # the simulator path: the first kite is sized and flown but completes
    # no lap (EmptyLap); the second has no wing structure (Infeasible)
    grid = [(8.5, 6.0), (8.5, 12.0)]
    with pytest.warns(UserWarning) as record:
        out = generate_samples(grid, partial(
            simulated_point, ilc_cfg=ILCConfig(max_laps=1, warmup_laps=1),
            params=SimParams(max_time=0.2)))
    assert out == []
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert messages[0].startswith("skipping geometry (8.5, 6): 0 of 1 laps closed")
    assert messages[1].startswith(
        "skipping geometry (8.5, 12): no wing structure within bounds")


def test_generate_samples_rejects_out_of_box_grid():
    with pytest.raises(ConfigError):
        generate_samples([(6.0, 6.0)], point_fn=lambda s, ar: (1e5, 1e5))


def fly_captured(monkeypatch, span, aspect, ctx, **sim_kwargs):
    """(kite, keywords) that simulated_point hands the lap evaluator."""
    flown = []

    def fake_optimize(lap_fn, cfg):
        flown.append((lap_fn.props, lap_fn.sim_kwargs))
        return SimpleNamespace(power_peak=1e5)

    monkeypatch.setattr(ilc, "optimize_path", fake_optimize)
    effmap.simulated_point(span, aspect, ctx, **sim_kwargs)
    return flown[0]


def searched_kite_mass(span, aspect, ctx):
    """Wing plus hull as the design search sizes them at one geometry."""
    planform = WingPlanform(span, aspect)
    load = rated_wing_load(planform, ctx.flow, ctx.foil_coeffs)
    wing = swdt_optimize(planform, load, ctx.material, ctx.foil,
                         n_stations=ctx.grid.n_stations)
    hull = _best_hull(planform, wing.mass, ctx)
    return wing.mass, hull


def test_simulated_point_flies_the_hull_the_design_search_sizes(monkeypatch):
    ctx = DesignContext()
    props, kwargs = fly_captured(monkeypatch, 8.5, 6.0, ctx)
    m_wing, hull = searched_kite_mass(8.5, 6.0, ctx)
    assert (hull.design.diameter, hull.design.length) == (0.8, 6.0)
    assert hull.mass == pytest.approx(201.3, abs=0.05)
    assert props.structural_mass == m_wing + hull.mass
    assert kwargs["flow"] is ctx.flow


def test_simulated_point_sizes_the_wing_at_the_grid_resolution(monkeypatch):
    coarse = DesignContext(grid=SearchGrid(n_stations=400))
    props, _ = fly_captured(monkeypatch, 8.5, 6.0, coarse)
    m_wing, hull = searched_kite_mass(8.5, 6.0, coarse)
    assert props.structural_mass == m_wing + hull.mass
    assert m_wing != searched_kite_mass(8.5, 6.0, DesignContext())[0]


def test_bound_simulated_point_pickles():
    # a second process receives the sampler's point function by pickle
    cfg = SuiteConfig()
    point_fn = partial(simulated_point, ctx=cfg.design_context(),
                       ilc_cfg=cfg.ilc, **cfg.sim_kwargs())
    back = pickle.loads(pickle.dumps(point_fn))
    assert back.func is simulated_point
    assert back.keywords["ilc_cfg"] == cfg.ilc
    assert back.keywords["params"] == cfg.sim_kwargs()["params"]


def test_simulated_flow_must_be_the_design_context_flow(monkeypatch):
    cfg = SuiteConfig()
    with pytest.raises(ConfigError, match="flow"):
        fly_captured(monkeypatch, 8.5, 6.0, cfg.design_context(),
                     flow=FlowEnv(speed=2.0))
    # the suite's own settings carry one flow to both
    out = generate_samples([(8.5, 6.0)], partial(
        simulated_point, ctx=cfg.design_context(), ilc_cfg=cfg.ilc,
        **cfg.sim_kwargs()))
    assert [(p.span, p.aspect_ratio, p.power_peak) for p in out] == [
        (8.5, 6.0, 1e5)]
