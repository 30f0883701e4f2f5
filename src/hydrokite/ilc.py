"""Lap-to-lap learning of the figure-8 shape.

Each completed lap yields one scalar score: lap-averaged generated power
minus a weighted path-tracking penalty.  A recursive least squares fit
maintains a quadratic meta-model of that score over the four path basis
parameters, and a perturbed gradient step moves the basis parameters
uphill on the fitted surface after every lap.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynsim import BasisParams, Simulator, TetherProperties
from .dynsim.kite import KiteProperties
from .errors import ConfigError, NotConverged, check_fields

N_FEATURES = 15

# lowest covariance eigenvalue kept by the RLS update
COV_FLOOR = 1e-10

# admissible box for (b1, b2, b3, b4); keeps the path away from the poles
# and b2 away from zero
DEFAULT_BOX = (
    np.array([0.10, 0.05, -0.60, 0.25]),
    np.array([0.60, 0.50, 0.60, 1.10]),
)


def quad_features(b: np.ndarray) -> np.ndarray:
    """Full quadratic basis in 4 variables, graded-lex order, 15 terms."""
    b1, b2, b3, b4 = b
    return np.array([
        1.0, b1, b2, b3, b4,
        b1 * b1, b1 * b2, b1 * b3, b1 * b4,
        b2 * b2, b2 * b3, b2 * b4,
        b3 * b3, b3 * b4,
        b4 * b4,
    ])


def quad_value(theta: np.ndarray, b: np.ndarray) -> float:
    return float(theta @ quad_features(b))


def quad_gradient(theta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Analytic gradient of the quadratic meta-model at b."""
    b1, b2, b3, b4 = b
    t = theta
    return np.array([
        t[1] + 2.0 * t[5] * b1 + t[6] * b2 + t[7] * b3 + t[8] * b4,
        t[2] + t[6] * b1 + 2.0 * t[9] * b2 + t[10] * b3 + t[11] * b4,
        t[3] + t[7] * b1 + t[10] * b2 + 2.0 * t[12] * b3 + t[13] * b4,
        t[4] + t[8] * b1 + t[11] * b2 + t[13] * b3 + 2.0 * t[14] * b4,
    ])


@dataclass
class RLSModel:
    """Recursive least squares state for the quadratic meta-model."""

    theta: np.ndarray
    cov: np.ndarray

    @classmethod
    def fresh(cls, init_cov: float) -> "RLSModel":
        return cls(theta=np.zeros(N_FEATURES),
                   cov=init_cov * np.eye(N_FEATURES))


def rls_update(model: RLSModel, b: np.ndarray, j_observed: float) -> RLSModel:
    """One RLS step on the quadratic feature vector of b."""
    phi = quad_features(np.asarray(b, dtype=float))
    p_phi = model.cov @ phi
    gain = p_phi / (1.0 + phi @ p_phi)
    theta = model.theta + gain * (j_observed - phi @ model.theta)
    cov = model.cov - np.outer(gain, p_phi)
    cov = 0.5 * (cov + cov.T)
    # floor the spectrum so the covariance stays positive definite
    w, v = np.linalg.eigh(cov)
    if w[0] < COV_FLOOR:
        cov = (v * np.maximum(w, COV_FLOOR)) @ v.T
    return RLSModel(theta=theta, cov=cov)


@dataclass
class ILCConfig:
    """Learning gains, perturbation schedule, and stopping rules."""

    learning_gain: float = 1e-7      # isotropic gain on the surrogate gradient
    k_w: float = 8.0e3               # W per rad; ~10% of a typical lap at 5 deg
    perturb_amplitude: float = 0.02
    perturb_decay: float = 30.0      # laps to halve-ish the excitation
    seed: int = 0
    warmup_laps: int = 20            # pure excitation before the first step
    max_laps: int = 200
    tol: float = 1e-3                # on the basis-parameter step norm
    init_cov: float = 1e8            # weak prior; features are collinear
                                     # over a small excitation cloud

    def __post_init__(self):
        check_fields(
            self, positive=("perturb_decay", "init_cov"),
            nonnegative=("learning_gain", "k_w", "perturb_amplitude", "tol"),
            at_least={"warmup_laps": 0, "max_laps": 1})


def perturbation(cfg: ILCConfig, k: int) -> np.ndarray:
    """Excitation for iteration k: zero-mean uniform with decaying amplitude.

    Drawn from a generator seeded by (cfg.seed, k), so any iteration's
    draw is reproducible without replaying the schedule.
    """
    if cfg.perturb_amplitude == 0.0:
        return np.zeros(4)
    amp = cfg.perturb_amplitude / (1.0 + k / cfg.perturb_decay)
    rng = np.random.default_rng((cfg.seed, k))
    return amp * rng.uniform(-1.0, 1.0, 4)


def clamp_to_box(b: np.ndarray) -> np.ndarray:
    return np.clip(b, DEFAULT_BOX[0], DEFAULT_BOX[1])


def ilc_update(model: RLSModel, b_k: np.ndarray, cfg: ILCConfig,
               k: int) -> np.ndarray:
    """Perturbed gradient ascent step on the fitted surface, box-clamped."""
    step = cfg.learning_gain * quad_gradient(model.theta, b_k)
    return clamp_to_box(b_k + step + perturbation(cfg, k))


class SimLapEvaluator:
    """Scores one lap per call, continuing the flight between calls.

    The first call starts from the canonical initial state; later calls
    resume from wherever the previous lap ended, so the learned basis
    parameters apply to an already-flying kite.
    """

    def __init__(self, props: KiteProperties, tether: TetherProperties,
                 k_w: float, **sim_kwargs):
        self.props = props
        self.tether = tether
        self.k_w = k_w
        self.sim_kwargs = sim_kwargs      # Simulator keyword arguments
        self._state: Optional[np.ndarray] = None
        self._path_pos: Optional[float] = None

    def __call__(self, b: np.ndarray) -> tuple[float, float, float]:
        basis = BasisParams(*np.asarray(b, dtype=float))
        sim = Simulator(self.props, self.tether, basis, **self.sim_kwargs)
        res = sim.run(1, y0=self._state, p_start=self._path_pos)
        self._state = res.final_state
        self._path_pos = res.final_path_pos
        lap = res.laps[-1]
        # every-step lap means, so the score does not depend on trace_stride
        score = lap.power_avg - self.k_w * lap.angle_mean
        return score, lap.power_avg, lap.power_peak


@dataclass
class PathOptimum:
    basis: BasisParams
    objective: float
    power_avg: float
    power_peak: float
    history: np.ndarray      # rows (k, b1..b4, J, P_avg, P_peak)
    converged: bool


def optimize_path(
    props: Optional[KiteProperties],
    tether: Optional[TetherProperties],
    cfg: ILCConfig,
    b0: BasisParams = BasisParams(),
    lap_fn: Optional[Callable[[np.ndarray], tuple[float, float, float]]] = None,
    **sim_kwargs,
) -> PathOptimum:
    """Alternate lap scoring, surface refit, and a perturbed gradient step.

    lap_fn(b) must return (J, P_avg, P_peak) for one lap flown at basis
    parameters b; by default laps come from the closed-loop simulator.
    Stops when the post-warmup step norm drops below cfg.tol, or warns
    NotConverged at the lap budget and returns the best scored lap.
    """
    if lap_fn is None:
        if props is None or tether is None:
            raise ConfigError("optimize_path needs a kite and tether "
                              "when no lap evaluator is supplied")
        lap_fn = SimLapEvaluator(props, tether, cfg.k_w, **sim_kwargs)

    b = clamp_to_box(np.array([b0.b1, b0.b2, b0.b3, b0.b4]))
    model = RLSModel.fresh(init_cov=cfg.init_cov)
    rows = []
    converged = False

    for k in range(cfg.max_laps):
        score, p_avg, p_peak = lap_fn(b)
        model = rls_update(model, b, score)
        rows.append((k, b[0], b[1], b[2], b[3], score, p_avg, p_peak))

        if k < cfg.warmup_laps:
            b_next = clamp_to_box(b + perturbation(cfg, k))
        else:
            b_next = ilc_update(model, b, cfg, k)
            if np.linalg.norm(b_next - b) <= cfg.tol:
                b = b_next
                converged = True
                break
        b = b_next

    if not converged:
        warnings.warn(
            f"path search used all {cfg.max_laps} laps without the step "
            "norm reaching tolerance; returning best scored lap",
            NotConverged)

    history = np.array(rows)
    best = int(np.argmax(history[:, 5]))
    return PathOptimum(
        basis=BasisParams(*history[best, 1:5]),
        objective=float(history[best, 5]),
        power_avg=float(history[best, 6]),
        power_peak=float(history[best, 7]),
        history=history,
        converged=converged,
    )


def format_history(history: np.ndarray) -> str:
    """Per-lap history as delimited text (k, b1..b4, J, P_avg, P_peak)."""
    lines = ["k\tb1\tb2\tb3\tb4\tJ\tP_avg\tP_peak"]
    for row in np.atleast_2d(history):
        lines.append("\t".join(
            [f"{int(row[0])}"] + [f"{x:.17g}" for x in row[1:]]))
    return "\n".join(lines) + "\n"
