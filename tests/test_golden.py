"""Golden closed-loop trajectory: the equivalence oracle for the flight core.

The ``intermediate`` catalog kite is released at path position 2.0 rad and
flown until the lap boundary 0.4 rad ahead (about 2,000 RK4 steps, crossing
the spool in->out switch at 3*pi/4).  The final state, the lap fields and
the traced columns must match the committed reference to rtol 1e-12.

The reference was recorded from the plain-float flight core, whose step
arithmetic is Python float operations in the order the source writes them,
so it no longer depends on the BLAS kernel NumPy picks for the CPU.  The
array core before it sent 3- and 6-element dot and matrix-vector products
through OpenBLAS, whose FMA-chained kernels round differently from a plain
sum.  The state is a list of floats through every RK4 step, and two
NumPy products that go through BLAS remain: the release state is built
once with matrix products, and each step's path-position scan takes the
argmax of one matrix-vector product over its 61 candidate directions.

Regenerate the reference only for a change that is meant to alter flight
results, and say so in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""
from pathlib import Path

import numpy as np

from hydrokite.catalog import kite_from_record, load_designs
from hydrokite.dynsim import BasisParams, SimParams, Simulator, TetherProperties

DATA = Path(__file__).parent / "data"
STATE_FILE = DATA / "golden_flight_state.txt"
LAP_FILE = DATA / "golden_flight_lap.txt"
TRACE_FILE = DATA / "golden_flight_trace.txt"

RELEASE = 2.0        # rad of path position, on the spool-in quarter
LAP_OFFSET = 0.4     # rad from release to the lap boundary
RTOL = 1e-12

LAP_FIELDS = ("index", "t_start", "t_end", "power_avg", "power_peak",
              "objective", "angle_mean", "angle_max", "tension_mean",
              "tension_peak")
TRACE_COLUMNS = ("time", "power", "tension", "angle", "spool_speed",
                 "path_pos", "x", "y", "z")


def fly_golden():
    props = kite_from_record(load_designs()["intermediate"])
    basis = BasisParams()
    release = Simulator(props, TetherProperties(), basis,
                        params=SimParams(init_path_pos=RELEASE))
    y0 = release.initial_state()
    # the run simulator's init_path_pos is where its lap boundary sits
    sim = Simulator(props, TetherProperties(), basis,
                    params=SimParams(init_path_pos=RELEASE + LAP_OFFSET))
    return sim.run(1, y0=y0, p_start=RELEASE)


def trace_table(res) -> np.ndarray:
    return np.column_stack([res.time, res.power, res.tension, res.angle,
                            res.spool_speed, res.path_pos, res.position])


def write_reference() -> None:
    res = fly_golden()
    DATA.mkdir(exist_ok=True)
    np.savetxt(STATE_FILE, res.final_state, fmt="%.17g",
               header="final state vector after the golden flight")
    lap = res.laps[0]
    LAP_FILE.write_text("".join(
        f"{name} {float(getattr(lap, name)):.17g}\n" for name in LAP_FIELDS))
    np.savetxt(TRACE_FILE, trace_table(res), fmt="%.17g",
               header=" ".join(TRACE_COLUMNS))


def test_golden_flight_matches_reference():
    res = fly_golden()
    assert len(res.laps) == 1

    want_state = np.loadtxt(STATE_FILE)
    np.testing.assert_allclose(res.final_state, want_state, rtol=RTOL, atol=0)

    want_lap = {}
    for line in LAP_FILE.read_text().splitlines():
        name, value = line.split()
        want_lap[name] = float(value)
    assert set(want_lap) == set(LAP_FIELDS)
    lap = res.laps[0]
    for name in LAP_FIELDS:
        np.testing.assert_allclose(float(getattr(lap, name)), want_lap[name],
                                   rtol=RTOL, atol=0, err_msg=name)

    want_trace = np.loadtxt(TRACE_FILE)
    got_trace = trace_table(res)
    assert got_trace.shape == want_trace.shape
    for j, name in enumerate(TRACE_COLUMNS):
        np.testing.assert_allclose(got_trace[:, j], want_trace[:, j],
                                   rtol=RTOL, atol=0, err_msg=name)


if __name__ == "__main__":
    write_reference()
