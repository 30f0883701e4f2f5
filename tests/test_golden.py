"""Golden closed-loop trajectory: the equivalence oracle for the flight core.

The ``intermediate`` catalog kite is released at path position 2.0 rad and
flown until the lap boundary 0.4 rad ahead (about 2,000 RK4 steps, crossing
the spool in->out switch at 3*pi/4).  The final state, the lap fields and
the traced columns must match the committed reference to rtol 1e-12.

The reference was recorded from the plain-float flight core, whose
arithmetic is Python float operations in the order the source writes them,
so it does not depend on the BLAS kernel NumPy picks for the CPU.  An array
core sends 3- and 6-element dot and matrix-vector products through
OpenBLAS, whose FMA-chained kernels round differently from a plain sum.
The release state and every RK4 step are float math; one NumPy product
that goes through BLAS remains: each step's path-position scan takes the
argmax of one matrix-vector product over its 61 candidate directions, which
are built once per scanned path position and memoized, so a repeated scan
multiplies the very same array.

The flight's bookkeeping is checked exactly: every traced power is the
traced tension times the traced spool speed, and the final attitude
quaternion is a unit quaternion to 1e-12.

Regenerate the reference only for a change that is meant to alter flight
results, and say so in the change log:

    PYTHONPATH=src python tests/test_golden.py

It prints, for each file it overwrites, the largest absolute and relative
change against the old reference, for the change log.
"""
from pathlib import Path

import numpy as np
import pytest

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


def read_lap(path: Path) -> dict[str, float]:
    return {name: float(value) for name, value in
            (line.split() for line in path.read_text().splitlines())}


def largest_change(old: np.ndarray, new: np.ndarray) -> str:
    """The largest absolute and relative change from old to new; a change
    from an exact zero counts as infinitely large relative."""
    if old.shape != new.shape:
        return f"shape {old.shape} -> {new.shape}"
    diff = np.abs(new - old)
    scale = np.abs(old)
    rel = np.divide(diff, scale, out=np.where(diff > 0.0, np.inf, 0.0),
                    where=scale > 0.0)
    return f"max abs change {diff.max():.3g}, max rel change {rel.max():.3g}"


def write_reference() -> None:
    res = fly_golden()
    lap = res.laps[0]
    lap_values = np.array([float(getattr(lap, name)) for name in LAP_FIELDS])
    trace = trace_table(res)
    DATA.mkdir(exist_ok=True)
    for path, new, old in (
        (STATE_FILE, res.final_state, np.loadtxt),
        (LAP_FILE, lap_values,
         lambda p: np.array([read_lap(p)[name] for name in LAP_FIELDS])),
        (TRACE_FILE, trace, np.loadtxt),
    ):
        if path.exists():
            print(f"{path.name}: {largest_change(old(path), new)}")
    np.savetxt(STATE_FILE, res.final_state, fmt="%.17g",
               header="final state vector after the golden flight")
    LAP_FILE.write_text("".join(
        f"{name} {value:.17g}\n" for name, value in zip(LAP_FIELDS, lap_values)))
    np.savetxt(TRACE_FILE, trace, fmt="%.17g", header=" ".join(TRACE_COLUMNS))


@pytest.fixture(scope="module")
def golden():
    return fly_golden()


def test_golden_flight_matches_reference(golden):
    res = golden
    assert len(res.laps) == 1

    want_state = np.loadtxt(STATE_FILE)
    np.testing.assert_allclose(res.final_state, want_state, rtol=RTOL, atol=0)

    want_lap = read_lap(LAP_FILE)
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


def test_golden_flight_bookkeeping(golden):
    res = golden
    assert len(res.power) > 0
    assert np.array_equal(res.power, res.tension * res.spool_speed)
    assert abs(np.linalg.norm(res.final_state[3:7]) - 1.0) < 1e-12


def test_golden_flight_repeats_in_one_process(golden):
    # the second flight scans with the path memo the first one filled
    again = fly_golden()
    assert np.array_equal(again.final_state, golden.final_state)
    assert again.laps == golden.laps
    assert np.array_equal(trace_table(again), trace_table(golden))


if __name__ == "__main__":
    write_reference()
