import warnings

import numpy as np
import pytest

from hydrokite.catalog import kite_from_record, load_designs
from hydrokite.dynsim import BasisParams, SimParams, Simulator, TetherProperties
from hydrokite.errors import ConfigError, NotConverged
from hydrokite.ilc import (
    COV_FLOOR, DEFAULT_BOX, ILCConfig, RLSModel, SimLapEvaluator,
    format_history, ilc_update, optimize_path, perturbation, quad_features,
    quad_gradient, quad_value, rls_update,
)


def quad_theta(const, linear, squares, crosses=None):
    # graded-lex layout: [1, b1..b4, b1^2, b1b2, b1b3, b1b4, b2^2, b2b3,
    # b2b4, b3^2, b3b4, b4^2]
    theta = np.zeros(15)
    theta[0] = const
    theta[1:5] = linear
    theta[[5, 9, 12, 14]] = squares
    if crosses is not None:
        theta[[6, 7, 8, 10, 11, 13]] = crosses
    return theta


# -- quadratic meta-model ---------------------------------------------------

def test_quad_gradient_matches_central_differences():
    rng = np.random.default_rng(20240821)
    h = 1e-5
    for _ in range(100):
        theta = rng.normal(size=15)
        b = rng.uniform(-1.0, 1.0, 4)
        grad = quad_gradient(theta, b)
        fd = np.empty(4)
        for i in range(4):
            up, dn = b.copy(), b.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (quad_value(theta, up) - quad_value(theta, dn)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_rls_recovers_exact_quadratic():
    rng = np.random.default_rng(20240822)
    theta_true = rng.normal(size=15)
    model = RLSModel.fresh(init_cov=1e10)
    for _ in range(60):
        b = rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1])
        model = rls_update(model, b, float(quad_features(b) @ theta_true))
    assert np.max(np.abs(model.theta - theta_true)) < 1e-6


def test_rls_repeated_sample_residual_shrinks_monotonically():
    b = np.array([0.3, 0.2, 0.1, 0.5])
    model = RLSModel.fresh(init_cov=1e4)
    residuals = []
    for _ in range(10):
        model = rls_update(model, b, 42.0)
        residuals.append(abs(42.0 - quad_value(model.theta, b)))
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-12
    # repeated identical samples shrink the residual harmonically (the
    # signal power phi'P phi chains as p/(1+p)), so 10 visits give ~r0/10
    assert residuals[-1] <= 0.11 * residuals[0]


def test_rls_noisy_fit_matches_batch_least_squares():
    rng = np.random.default_rng(20240823)
    theta_true = rng.normal(size=15)
    sigma = 100.0
    points = rng.uniform(DEFAULT_BOX[0], DEFAULT_BOX[1], size=(200, 4))
    phis = np.array([quad_features(b) for b in points])
    scores = phis @ theta_true + sigma * rng.standard_normal(200)

    model = RLSModel.fresh(init_cov=1e10)
    for b, j in zip(points, scores):
        model = rls_update(model, b, float(j))

    batch, *_ = np.linalg.lstsq(phis, scores, rcond=None)
    assert np.allclose(model.theta, batch, atol=1e-5)
    # error vs truth stays within 5 noise standard deviations per coefficient
    cov = sigma ** 2 * np.linalg.inv(phis.T @ phis)
    assert np.all(np.abs(model.theta - theta_true) < 5.0 * np.sqrt(np.diag(cov)))


def test_rls_covariance_stays_positive_definite():
    b = np.array([0.3, 0.2, 0.0, 0.5])
    model = RLSModel.fresh(init_cov=1e4)
    for _ in range(300):
        model = rls_update(model, b, 1.0)
    assert np.linalg.eigvalsh(model.cov)[0] >= COV_FLOOR * 0.99
    assert np.allclose(model.cov, model.cov.T)


# -- update law -------------------------------------------------------------

def test_ilc_update_fixed_point_at_zero_gradient():
    cfg = ILCConfig(perturb_amplitude=0.0)
    model = RLSModel.fresh(cfg.init_cov)
    b = np.array([0.3, 0.2, 0.0, 0.5])
    assert np.array_equal(ilc_update(model, b, cfg, k=7), b)


def test_ilc_update_contracts_at_half_rate_on_known_bowl():
    b_star = np.array([0.35, 0.20, 0.10, 0.60])
    theta = quad_theta(const=-float(b_star @ b_star), linear=2.0 * b_star,
                       squares=[-1.0] * 4)
    model = RLSModel(theta=theta, cov=np.eye(15))
    cfg = ILCConfig(learning_gain=0.25, perturb_amplitude=0.0)

    b = np.array([0.20, 0.30, -0.20, 0.40])
    err0 = np.linalg.norm(b - b_star)
    for k in range(1, 7):
        b = ilc_update(model, b, cfg, k)
        assert np.linalg.norm(b - b_star) == pytest.approx(
            err0 * 0.5 ** k, rel=1e-12)


def test_ilc_update_clamps_to_box_boundary():
    theta = np.zeros(15)
    theta[1] = 1e3     # huge uphill slope in b1
    model = RLSModel(theta=theta, cov=np.eye(15))
    cfg = ILCConfig(learning_gain=1.0, perturb_amplitude=0.0)
    b = np.array([0.3, 0.2, 0.0, 0.5])
    nxt = ilc_update(model, b, cfg, k=0)
    assert nxt[0] == DEFAULT_BOX[1][0]


def test_ilc_config_validates_gain_and_amplitude():
    with pytest.raises(ValueError):
        ILCConfig(learning_gain=-1.0)
    with pytest.raises(ValueError):
        ILCConfig(perturb_amplitude=-0.1)


def test_perturbation_schedule_decays_and_reproduces():
    cfg = ILCConfig(perturb_amplitude=0.02, perturb_decay=30.0, seed=5)
    first = perturbation(cfg, 0)
    again = perturbation(cfg, 0)
    assert np.array_equal(first, again)
    assert np.any(first != 0.0)
    for k in (0, 10, 100):
        amp = 0.02 / (1.0 + k / 30.0)
        assert np.all(np.abs(perturbation(cfg, k)) <= amp)
    assert np.array_equal(perturbation(ILCConfig(perturb_amplitude=0.0), 3),
                          np.zeros(4))


# -- lap score --------------------------------------------------------------

def test_sim_lap_score_does_not_depend_on_trace_stride():
    # release the intermediate kite at p = 2.0 rad, as in test_golden.py,
    # and close the lap 0.2 rad ahead
    props = kite_from_record(load_designs()["intermediate"])
    tether = TetherProperties()
    basis = BasisParams()
    y0 = Simulator(props, tether, basis,
                   params=SimParams(init_path_pos=2.0)).initial_state()
    b = np.array([basis.b1, basis.b2, basis.b3, basis.b4])
    scores = []
    for stride in (1, 5):
        evaluator = SimLapEvaluator(
            props, tether, k_w=8.0e3,
            params=SimParams(init_path_pos=2.2, trace_stride=stride))
        # resume from the release instead of the canonical start
        evaluator._state, evaluator._path_pos = y0, 2.0
        scores.append(evaluator(b))
    assert scores[0] == scores[1]
    score, p_avg, _ = scores[0]
    assert p_avg < 0.0 and score < p_avg    # spooling in, off the path


# -- path search ------------------------------------------------------------

def bowl_lap_fn(b_star, curvature=5e3, top=7e3):
    def lap_fn(b):
        j = top - curvature * float((b - b_star) @ (b - b_star))
        return j, j, 1.2 * j
    return lap_fn


def test_optimize_path_finds_stub_maximizer():
    b_star = np.array([0.38, 0.24, 0.08, 0.55])
    cfg = ILCConfig(
        learning_gain=5e-5,
        perturb_amplitude=0.05,
        perturb_decay=15.0,
        seed=11,
        warmup_laps=25,
        max_laps=200,
        tol=5e-4,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        out = optimize_path(None, None, cfg, lap_fn=bowl_lap_fn(b_star))
    b_best = np.array([out.basis.b1, out.basis.b2, out.basis.b3, out.basis.b4])
    assert np.linalg.norm(b_best - b_star) < 1e-2
    assert out.history.shape[1] == 8
    assert len(out.history) <= 200


def test_optimize_path_best_seen_never_decreases_after_warmup():
    b_star = np.array([0.38, 0.24, 0.08, 0.55])
    cfg = ILCConfig(
        learning_gain=5e-5, perturb_amplitude=0.05,
        perturb_decay=40.0, seed=3, warmup_laps=25, max_laps=120, tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        out = optimize_path(None, None, cfg, lap_fn=bowl_lap_fn(b_star))
    scores = out.history[:, 5]
    best = np.maximum.accumulate(scores)
    assert np.all(np.diff(best) >= 0.0)
    # the learned steps actually improve on the random warm-up phase
    assert scores[-1] > np.max(scores[:25]) - 1e-9


def test_optimize_path_zero_gain_zero_perturbation_is_identity():
    cfg = ILCConfig(learning_gain=0.0, perturb_amplitude=0.0,
                    warmup_laps=5, max_laps=50)
    out = optimize_path(None, None, cfg, b0=BasisParams(),
                        lap_fn=bowl_lap_fn(np.array([0.3, 0.2, 0.0, 0.5])))
    assert out.converged
    assert (out.basis.b1, out.basis.b2, out.basis.b3, out.basis.b4) == \
        (0.3, 0.2, 0.0, 0.5)
    assert np.ptp(out.history[:, 1:5], axis=0).max() == 0.0


def test_optimize_path_same_seed_identical_history():
    b_star = np.array([0.4, 0.25, 0.0, 0.6])
    histories = []
    for _ in range(2):
        cfg = ILCConfig(learning_gain=5e-5,
                        perturb_amplitude=0.04, seed=77, warmup_laps=20,
                        max_laps=60, tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConverged)
            out = optimize_path(None, None, cfg, lap_fn=bowl_lap_fn(b_star))
        histories.append(out.history)
    assert np.array_equal(histories[0], histories[1])


def test_optimize_path_warns_when_budget_exhausted():
    cfg = ILCConfig(learning_gain=0.0, perturb_amplitude=0.01,
                    warmup_laps=5, max_laps=8, tol=0.0)
    with pytest.warns(NotConverged):
        out = optimize_path(None, None, cfg,
                            lap_fn=bowl_lap_fn(np.array([0.3, 0.2, 0.0, 0.5])))
    assert not out.converged
    assert len(out.history) == 8


def test_optimize_path_requires_kite_or_evaluator():
    with pytest.raises(ConfigError):
        optimize_path(None, None, ILCConfig())


def test_format_history_round_trips_values():
    history = np.array([[0, 0.3, 0.2, 0.0, 0.5, 123.456, 100.0, 140.0],
                        [1, 0.31, 0.21, 0.01, 0.51, 130.0, 110.0, 150.0]])
    text = format_history(history)
    lines = text.strip().split("\n")
    assert lines[0].startswith("k\t")
    back = np.array([[float(x) for x in line.split("\t")]
                     for line in lines[1:]])
    assert np.array_equal(back, history)
