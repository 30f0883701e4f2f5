"""Hierarchical flight controller and phase-switched winch controller.

The flight controller has four levels: a lookahead point on the path sets
a desired velocity angle on the local tangent plane; the velocity-angle
error maps (PI) to a desired tangent roll; the roll error maps (PI) to a
dimensionless moment command; and a fixed allocation turns that command
into aileron and rudder deflections.  The winch switches spooling speed
and elevator trim by path phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .paths import BasisParams, path_direction, spool_phase
from ..errors import check_fields
from ..hydro import FlowEnv


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def tangent_basis(position) -> tuple[tuple[float, float, float], ...]:
    """(radial, east, north) unit vectors of the tangent plane at position."""
    x, y, z = position
    r = math.sqrt(x * x + y * y + z * z)
    rx, ry, rz = x / r, y / r, z / r
    # east = z_hat x radial, north = radial x east
    norm = math.sqrt(ry * ry + rx * rx)
    if norm < 1e-12:
        ex, ey = 0.0, 1.0
    else:
        ex, ey = -ry / norm, rx / norm
    return (rx, ry, rz), (ex, ey, 0.0), (-rz * ey, rz * ex, rx * ey - ry * ex)


def velocity_angle(velocity, east, north) -> float:
    """Direction of motion on the sphere, measured from local east."""
    vx, vy, vz = velocity
    return math.atan2(vx * north[0] + vy * north[1] + vz * north[2],
                      vx * east[0] + vy * east[1] + vz * east[2])


def _clip(value: float, limit: float) -> float:
    return min(max(value, -limit), limit)


@dataclass
class FlightGains:
    lookahead: float = 0.5           # rad of path position ahead
    velocity_kp: float = 1.2
    velocity_ki: float = 0.0
    roll_limit: float = 0.4          # rad
    roll_kp: float = 1.2
    roll_ki: float = 0.1
    moment_coeff_limit: float = 0.25
    aileron_limit: float = 0.25      # rad
    rudder_share: float = 0.3        # rudder deflection per aileron deflection
    rudder_limit: float = 0.4

    def __post_init__(self):
        check_fields(
            self, positive=("lookahead", "roll_limit", "moment_coeff_limit",
                            "aileron_limit", "rudder_limit"),
            nonnegative=("velocity_kp", "velocity_ki", "roll_kp", "roll_ki",
                         "rudder_share"))


@dataclass
class WinchParams:
    spool_ratio: float = 1.0 / 3.0   # spool speed as a fraction of flow speed
    elevator_out: float = -0.25      # nose-up trim: high lift while paying out
    elevator_in: float = 0.0         # de-powered for cheap reel-in

    def __post_init__(self):
        check_fields(self, nonnegative=("spool_ratio",))


class FlightController:
    """Stateful PI cascade; one update per control step (zero-order hold).

    aileron_gain is the kite's aileron effectiveness in dCL per rad, the
    magnitude of its aileron surfaces' gain.
    """

    def __init__(self, gains: FlightGains, basis: BasisParams, dt: float,
                 aileron_gain: float):
        self.gains = gains
        self.basis = basis
        self.dt = dt
        self.aileron_gain = aileron_gain
        self.reset()

    def reset(self):
        self._vel_int = 0.0
        self._roll_int = 0.0

    def update(self, position, velocity, body_y, p_now: float
               ) -> tuple[float, float]:
        """(aileron, rudder) deflections for the current state; position,
        velocity and the body y axis are inertial 3-sequences."""
        g = self.gains
        radial, east, north = tangent_basis(position)
        rx, ry, rz = radial
        px, py, pz = position

        r = math.sqrt(px * px + py * py + pz * pz)
        dx, dy, dz = path_direction(self.basis, p_now + g.lookahead)
        cx, cy, cz = r * dx - px, r * dy - py, r * dz - pz
        c_r = cx * rx + cy * ry + cz * rz
        chase_t = (cx - c_r * rx, cy - c_r * ry, cz - c_r * rz)
        gamma_des = velocity_angle(chase_t, east, north)
        gamma = velocity_angle(velocity, east, north)
        vel_err = wrap_angle(gamma_des - gamma)

        # rolling the port wing outward tilts lift to starboard and turns
        # the track clockwise, so the roll command opposes the heading error
        roll_des = -(g.velocity_kp * vel_err + g.velocity_ki * self._vel_int)
        if abs(roll_des) < g.roll_limit:
            self._vel_int += vel_err * self.dt
        roll_des = _clip(roll_des, g.roll_limit)

        bx, by, bz = body_y
        roll = math.asin(_clip(bx * rx + by * ry + bz * rz, 1.0))
        roll_err = roll_des - roll
        c_m = g.roll_kp * roll_err + g.roll_ki * self._roll_int
        if abs(c_m) < g.moment_coeff_limit:
            self._roll_int += roll_err * self.dt
        c_m = _clip(c_m, g.moment_coeff_limit)

        # antisymmetric ailerons at quarter-span levers: dCl = gain*delta/4
        aileron = _clip(4.0 * c_m / self.aileron_gain, g.aileron_limit)
        rudder = _clip(g.rudder_share * aileron, g.rudder_limit)
        return aileron, rudder


def winch_command(p: float, params: WinchParams, flow: FlowEnv) -> tuple[float, float]:
    """(spool speed, elevator deflection) for the current path position."""
    if spool_phase(p) == "out":
        return params.spool_ratio * flow.speed, params.elevator_out
    return -params.spool_ratio * flow.speed, params.elevator_in
