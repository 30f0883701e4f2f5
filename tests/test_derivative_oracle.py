"""Derivative oracle: ``Simulator.derivative`` at recorded states.

The states are the inputs of every 67th RK4 step of the golden flight
(``test_golden.py``): the ``intermediate`` kite released at path position
2.0 rad, across the spool in->out switch.  Each comes with a perturbed copy
whose kite pose, velocities, tether nodes and spooled length are jittered
and whose deflections and spool speed are drawn at random, so slack and
stretched links, both spool directions and every control surface are
exercised.  Each reference row holds the state, the aileron, rudder and
elevator deflections, the spool speed and the derivative, as ``%.17g``.

Each block of the derivative (position, quaternion, linear nu, angular nu,
node velocities, node accelerations, spool) must match to 1e-12 of that
block's largest magnitude in the row, which allows the last-digit changes a
reordered sum makes and nothing more.

Regenerate the reference only for a change that is meant to alter the
dynamics, and say so in the change log:

    PYTHONPATH=src python tests/test_derivative_oracle.py
"""
from pathlib import Path

import numpy as np

from hydrokite.catalog import kite_from_record, load_designs
from hydrokite.dynsim import BasisParams, SimParams, Simulator, TetherProperties

REFERENCE_FILE = Path(__file__).parent / "data" / "derivative_reference.txt"

RELEASE = 2.0        # the golden flight's release and lap boundary
LAP_OFFSET = 0.4
STRIDE = 67          # RK4 steps between recorded states
BLOCK_RTOL = 1e-12
CONTROLS = ("aileron", "rudder", "elevator")


def simulator(params: SimParams = SimParams()) -> Simulator:
    props = kite_from_record(load_designs()["intermediate"])
    return Simulator(props, TetherProperties(), BasisParams(), params=params)


def blocks(n: int) -> dict[str, slice]:
    """The derivative's blocks for n tether nodes."""
    return {
        "position": slice(0, 3),
        "quaternion": slice(3, 7),
        "linear nu": slice(7, 10),
        "angular nu": slice(10, 13),
        "node velocities": slice(13, 13 + 3 * n),
        "node accelerations": slice(13 + 3 * n, 13 + 6 * n),
        "spool": slice(13 + 6 * n, 14 + 6 * n),
    }


class _Recorder(Simulator):
    """Keeps the input of every RK4 step it takes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inputs = []

    def rk4_step(self, y, deflections, spool_speed):
        self.inputs.append((np.array(y), [deflections[c] for c in CONTROLS],
                            spool_speed))
        return super().rk4_step(y, deflections, spool_speed)


def golden_inputs() -> list[tuple[np.ndarray, list[float], float]]:
    release = simulator(SimParams(init_path_pos=RELEASE)).initial_state()
    base = simulator()
    rec = _Recorder(base.props, base.tether, base.basis,
                    params=SimParams(init_path_pos=RELEASE + LAP_OFFSET))
    rec.run(1, y0=release, p_start=RELEASE)
    return rec.inputs[::STRIDE]


def perturbed(y: np.ndarray, n: int, rng) -> tuple[np.ndarray, list[float], float]:
    out = y.copy()
    out[0:3] += rng.normal(scale=2e-3, size=3)
    out[3:7] += rng.normal(scale=0.02, size=4)
    out[3:7] /= np.linalg.norm(out[3:7])
    out[7:10] += rng.normal(scale=0.2, size=3)
    out[10:13] += rng.normal(scale=0.05, size=3)
    out[13:13 + 3 * n] += rng.normal(scale=2e-3, size=3 * n)
    out[13 + 3 * n:13 + 6 * n] += rng.normal(scale=0.1, size=3 * n)
    out[13 + 6 * n] += rng.normal(scale=0.01)
    controls = [rng.uniform(-0.25, 0.25), rng.uniform(-0.4, 0.4),
                rng.uniform(-0.3, 0.1)]
    return out, controls, rng.uniform(-0.6, 0.6)


def write_reference() -> None:
    sim = simulator()
    rng = np.random.default_rng(20240821)
    cases = []
    for y, controls, spool in golden_inputs():
        cases.append((y, controls, spool))
        cases.append(perturbed(y, sim.tether.n_nodes, rng))
    rows = []
    for y, controls, spool in cases:
        dy = sim.derivative(y.tolist(), dict(zip(CONTROLS, controls)), spool)
        rows.append(np.concatenate([y, controls, [spool], dy]))
    np.savetxt(REFERENCE_FILE, np.array(rows), fmt="%.17g",
               header=f"state ({len(y)}), aileron rudder elevator, "
                      f"spool speed, derivative ({len(y)})")


def test_derivative_matches_reference():
    sim = simulator()
    size = 14 + 6 * sim.tether.n_nodes
    table = np.loadtxt(REFERENCE_FILE)
    assert table.shape == (len(table), 2 * size + 4)
    assert len(table) >= 60
    for row in table:
        y = row[:size]
        controls = dict(zip(CONTROLS, row[size:size + 3].tolist()))
        want = row[size + 4:]
        got = np.array(sim.derivative(y.tolist(), controls, float(row[size + 3])))
        for name, block in blocks(sim.tether.n_nodes).items():
            scale = float(np.max(np.abs(want[block])))
            np.testing.assert_allclose(got[block], want[block], rtol=0,
                                       atol=BLOCK_RTOL * scale, err_msg=name)


if __name__ == "__main__":
    write_reference()
