"""The benchmark's three workloads: inputs from a seed, set-up, the measured
call, and the correctness gate.

Each workload is driven only through hydrokite's public functions; the
seed stays here and the package receives the generated inputs.

* ``flight`` flies the ``intermediate`` catalog kite in closed loop from a
  release point on the spool-in quarter to a lap boundary placed a fixed
  path offset ahead, across the spool in->out switch (about 10.7 s of
  simulated time).  A full lap costs minutes of wall time.
* ``pareto`` is one fully nested Pareto point near 500 kW: the wing section
  integrator dominates, and most contour candidates are sized and rejected.
* ``dual`` is one reduced dual-objective GA run with polish: genomes are
  scattered over the design box, so the glide-ratio cache mostly misses.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
# relative tolerance on the default-seed reference values: the runs are
# deterministic, the slack only absorbs last-digit differences between
# numpy/BLAS builds
REFERENCE_RTOL = 1e-6

# flight: release on the spool-in quarter, lap boundary 0.7 rad ahead
FLIGHT_KITE = "intermediate"
RELEASE = 2.0
LAP_OFFSET = 0.7
BASIS_JITTER = 0.001          # rad, uniform per basis component

# pareto: required power drawn from a band where the contour candidates and
# the chosen design family stay the same, so the work is nearly seed-free
P_REQ_BAND = (499.5e3, 500.2e3)

# dual: reduced GA (the default 200 x 60 takes minutes), wide and short so
# the genomes stay scattered.  At weight 1 the optimum sits on the aspect
# ratio's lower bound (4.0): seeds whose genomes reach the bound get clipped
# to the same aspect ratio and hit the glide cache, the others do not, so
# the hit share ranged 0.43-0.67 between seeds and the time by 30%.  At
# weight 16 the optimum stays off the bound (aspect ratio 4.0-5.7 over
# eight seeds) and the hit share stayed within 0.426-0.439
GA_POPULATION = 160
GA_ELITE = 16
GA_GENERATIONS = 15
DUAL_WEIGHT = 16.0
DUAL_P_MIN = 350e3


@dataclass
class Outcome:
    """What the measured call produced, for the gate and the report."""

    attempted: int
    failed: int
    result: object = None
    errors: list[str] = field(default_factory=list)
    sim_time: float = 0.0


def _reference(workload: str) -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[workload]


def _match(observed: dict, expected: dict) -> list[str]:
    bad = []
    for key, want in expected.items():
        got = observed[key]
        if not math.isclose(got, want, rel_tol=REFERENCE_RTOL):
            bad.append(f"{key} = {got!r}, reference {want!r} (rtol {REFERENCE_RTOL})")
    return bad


# -- flight -----------------------------------------------------------------

class Flight:
    name = "flight"
    # hostspeed probe mix for the measured call: vector weighted by the
    # traced self-time share of SectionIntegrator.properties
    probe = {"scalar": 1.0}

    def __init__(self, seed: int):
        from hydrokite.dynsim import BasisParams
        from hydrokite.ilc import DEFAULT_BOX

        rng = np.random.default_rng(seed)
        base = BasisParams().as_array()
        jitter = rng.uniform(-BASIS_JITTER, BASIS_JITTER, 4)
        self.basis = np.clip(base + jitter, DEFAULT_BOX[0], DEFAULT_BOX[1])

    def setup(self) -> None:
        from hydrokite.catalog import kite_from_record, load_designs
        from hydrokite.dynsim import BasisParams, SimParams, Simulator, TetherProperties

        props = kite_from_record(load_designs()[FLIGHT_KITE])
        basis = BasisParams.from_array(self.basis)
        release = Simulator(props, TetherProperties(), basis,
                            params=SimParams(init_path_pos=RELEASE))
        self.y0 = release.initial_state()
        # the run simulator's init_path_pos is where its lap boundary sits
        self.sim = Simulator(props, TetherProperties(), basis,
                             params=SimParams(init_path_pos=RELEASE + LAP_OFFSET))

    def run(self) -> Outcome:
        from hydrokite.errors import EmptyLap, NumericBlowup, PathLost

        try:
            res = self.sim.run(1, y0=self.y0, p_start=RELEASE)
        except (NumericBlowup, PathLost, EmptyLap) as exc:
            return Outcome(1, 1, errors=[f"{type(exc).__name__}: {exc}"])
        return Outcome(1, 0, res, sim_time=res.laps[-1].t_end)

    def check(self, outcome: Outcome, seed: int) -> list[str]:
        res = outcome.result
        if res is None:
            return []
        bad = []
        y = res.final_state
        if not np.all(np.isfinite(y)):
            bad.append("final state is not finite")
        q_norm = float(np.linalg.norm(y[3:7]))
        if abs(q_norm - 1.0) > 1e-9:
            bad.append(f"quaternion norm {q_norm!r} is not 1")
        if not np.array_equal(res.power, res.tension * res.spool_speed):
            bad.append("power differs from tension * spool_speed")
        if len(res.laps) != 1 or res.final_path_pos < RELEASE + LAP_OFFSET:
            bad.append(f"lap did not close (p reached {res.final_path_pos!r})")
        if seed == DEFAULT_SEED and res.laps:
            lap = res.laps[0]
            observed = {k: getattr(lap, k) for k in
                        ("t_end", "power_avg", "power_peak", "objective",
                         "angle_mean", "angle_max", "tension_mean",
                         "tension_peak")}
            bad += _match(observed, _reference(self.name))
        return bad


# -- pareto -----------------------------------------------------------------

class Pareto:
    name = "pareto"
    probe = {"scalar": 0.1, "vector": 0.9}     # properties: 93% of self time

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.p_req = float(rng.uniform(*P_REQ_BAND))

    def setup(self) -> None:
        from hydrokite import codesign

        self.codesign = codesign
        self.ctx = codesign.DesignContext()

    def run(self) -> Outcome:
        from hydrokite.errors import EmptySet

        # pareto_sweep skips Infeasible and EmptySet points with a warning
        # and raises EmptySet only when every point failed
        requested = [self.p_req]
        try:
            points = self.codesign.pareto_sweep(requested, self.ctx,
                                                strategy="fully_nested")
        except EmptySet as exc:
            return Outcome(len(requested), len(requested),
                           errors=[f"EmptySet: {exc}"])
        return Outcome(len(requested), len(requested) - len(points), points)

    def check(self, outcome: Outcome, seed: int) -> list[str]:
        if outcome.result is None:
            return []
        cd = self.codesign
        bad = []
        for point in outcome.result:
            margins = cd.audit_design(point.design, self.ctx, point.p_req)
            if not cd.margins_ok(margins):
                bad.append(f"audit margins fail at {point.p_req!r} W: {margins}")
        if seed == DEFAULT_SEED and outcome.result:
            point = outcome.result[0]
            observed = {"p_req": point.p_req, "m_wing": point.m_wing,
                        "span": point.design.span,
                        "aspect_ratio": point.design.aspect_ratio}
            bad += _match(observed, _reference(self.name))
        return bad


# -- dual -------------------------------------------------------------------

class Dual:
    name = "dual"
    probe = {"scalar": 0.5, "vector": 0.5}     # properties: 45% of self time

    def __init__(self, seed: int):
        self.ga_seed = int(seed)

    def setup(self) -> None:
        from hydrokite import codesign

        self.codesign = codesign
        self.ctx = codesign.DesignContext()
        self.cfg = codesign.GAConfig(
            population=GA_POPULATION, elite=GA_ELITE,
            generations=GA_GENERATIONS, seed=self.ga_seed, polish=True)

    def run(self) -> Outcome:
        from hydrokite.errors import NoFeasibleIndividual

        try:
            point = self.codesign.simultaneous_ga(
                DUAL_WEIGHT, DUAL_P_MIN, self.ctx, self.cfg)
        except NoFeasibleIndividual as exc:
            return Outcome(1, 1, errors=[f"NoFeasibleIndividual: {exc}"])
        return Outcome(1, 0, point)

    def check(self, outcome: Outcome, seed: int) -> list[str]:
        point = outcome.result
        if point is None:
            return []
        cd = self.codesign
        bad = []
        margins = cd.audit_design(point.design, self.ctx)
        if not cd.margins_ok(margins):
            bad.append(f"audit margins fail: {margins}")
        if not point.design.power >= DUAL_P_MIN:
            bad.append(f"power {point.design.power!r} below p_min {DUAL_P_MIN!r}")
        if seed == DEFAULT_SEED:
            bad += _match({"objective": point.objective},
                          _reference(self.name))
        return bad


WORKLOADS = {cls.name: cls for cls in (Flight, Pareto, Dual)}
