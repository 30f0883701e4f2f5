"""Closed-loop time stepping: fixed-step RK4 over the kite 6-DOF, the
tether chain, and the spooled length, with the controllers held constant
across each step.

State vector layout: [0:13] the kite, then the line's block (see
``tether.LumpedLine``).  The kite's floats are [0:3] its position, [3:7]
its attitude quaternion (w, x, y, z) and [7:13] its body relative velocity.

``Simulator.run`` is the control-and-step loop.  It holds the state as
one Python list of floats, which ``derivative`` and ``rk4_step`` take and
return, so a step makes no NumPy call on the state.  Each step it hands
the new state to a ``FlightGuard``, which raises the typed errors, and
the step's figures to a ``LapLog``, which keeps the trace, closes the
laps and builds the ``SimResult``.

``Simulator.__init__`` binds what depends only on the kite, the tether
and the flow: the mass matrix and its inverse as tuples of floats, the
kite's ``ForceTable`` and the ``LumpedLine``.  ``derivative`` is then one
pass of scalar code: the rotation, the attachment's motion, the
quaternion rate and the M^-1 product are written out inline, in the
operation order of the helpers they replace, around three float kernels
(``tether_forces``, ``net_force_moment`` and ``coriolis_force``).  The one
BLAS product in a step is the path scan in ``nearest_path_position``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import FlightController, FlightGains, WinchParams, winch_command
from .kite import (
    ForceTable, KiteProperties, coriolis_force, cross3, net_force_moment, rotate,
)
from .paths import BasisParams, interior_angle, nearest_path_position, path_direction
from .tether import LumpedLine, TetherProperties, tether_forces
from ..errors import ConfigError, EmptyLap, NumericBlowup, PathLost, check_fields
from ..hydro import FlowEnv

TWO_PI = 2.0 * math.pi

# W per rad of interior angle in LapMetrics.objective
OBJECTIVE_WEIGHT = 1.0e3


def quat_to_rot(q) -> tuple[tuple[float, float, float], ...]:
    """Body-to-inertial rotation of the unit quaternion (w, x, y, z), as
    three rows of floats."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def quat_from_rot(rot) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) of a rotation given as three rows."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    w = 0.5 * math.sqrt(max(1.0 + r00 + r11 + r22, 1e-12))
    return (w, (r21 - r12) / (4.0 * w), (r02 - r20) / (4.0 * w),
            (r10 - r01) / (4.0 * w))


def _unit(v) -> tuple[float, float, float]:
    x, y, z = v
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm)


@dataclass
class SimParams:
    dt: float = 2e-3                  # s
    max_time: float = 900.0           # s, hard stop
    init_speed: float = 3.5           # m/s along the path at release
    init_path_pos: float = 0.25 * math.pi   # rad, start of a spool-in quarter
    pre_strain: float = 6e-5          # initial line stretch fraction
    abort_angle: float = 1.0          # rad of interior angle before PathLost
    grace_time: float = 20.0          # s; no abort during the initial transient
    blowup_speed: float = 60.0        # m/s divergence guard
    trace_stride: int = 5             # record every k-th step

    def __post_init__(self):
        check_fields(
            self, positive=("dt", "max_time", "abort_angle", "blowup_speed"),
            nonnegative=("init_speed", "grace_time"),
            at_least={"trace_stride": 1})


@dataclass
class LapMetrics:
    index: int
    t_start: float
    t_end: float
    power_avg: float
    power_peak: float
    objective: float
    angle_mean: float
    angle_max: float
    tension_mean: float
    tension_peak: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class SimResult:
    laps: list[LapMetrics]
    time: np.ndarray
    power: np.ndarray
    tension: np.ndarray
    angle: np.ndarray
    spool_speed: np.ndarray
    path_pos: np.ndarray
    position: np.ndarray
    final_state: np.ndarray = field(repr=False)
    final_path_pos: float = 0.0


class LapLog:
    """One flight's record, fed once per step: every ``trace_stride``-th
    step's trace row and the open lap's rows.  A lap is a full figure-8
    turn from p0; it closes into ``LapMetrics`` when floor((p - p0) / 2π) rises."""

    def __init__(self, p0: float, p_start: float, trace_stride: int):
        self.p0, self.trace_stride = p0, trace_stride
        self.turns = math.floor((p_start - p0) / TWO_PI)
        self.steps, self.t_start = 0, 0.0
        self.trace, self.rows = [], []
        self.laps: list[LapMetrics] = []

    def record(self, t: float, p: float, pos: list[float], spool_speed: float,
               angle: float, tension: float) -> None:
        power = tension * spool_speed
        self.steps += 1
        if self.steps % self.trace_stride == 0:
            self.trace.append((t, power, tension, angle, spool_speed, p, *pos))
        self.rows.append((t, power, angle, tension))
        turns = math.floor((p - self.p0) / TWO_PI)
        if turns > self.turns:
            powers, angles, tensions = np.array(self.rows)[:, 1:].T
            self.laps.append(LapMetrics(
                len(self.laps), self.t_start, t,
                float(np.mean(powers)), float(np.max(powers)),
                float(np.mean(powers - OBJECTIVE_WEIGHT * angles)),
                float(np.mean(angles)), float(np.max(angles)),
                float(np.mean(tensions)), float(np.max(tensions))))
            self.rows, self.t_start = [], t
        self.turns = turns

    def result(self, y: list[float], p: float) -> SimResult:
        # SimResult's columns in field order, 2-D even with no row traced
        data = np.array(self.trace).reshape(len(self.trace), 9)
        return SimResult(self.laps, *data[:, :6].T, data[:, 6:9], np.array(y), p)


class FlightGuard:
    """The raising checks of a flight: on the state after each step, and on
    the interior angle once ``grace_time`` has passed."""

    def __init__(self, params: SimParams, tether_length: float):
        self.params = params
        self.max_distance = 4.0 * tether_length

    def check_state(self, t: float, y: list[float]) -> None:
        if not all(map(math.isfinite, y)):
            raise NumericBlowup(f"non-finite state at t = {t:.3f} s")
        speed = math.hypot(*y[7:10])
        if speed > self.params.blowup_speed or math.hypot(*y[0:3]) > self.max_distance:
            raise NumericBlowup(
                f"state escaped bounds at t = {t:.3f} s (speed {speed:.1f} m/s)")

    def check_angle(self, t: float, angle: float) -> None:
        if angle > self.params.abort_angle and t > self.params.grace_time:
            raise PathLost(f"interior angle {angle:.2f} rad at t = {t:.2f} s")


class Simulator:
    """Owns one closed-loop run; strictly sequential, deterministic."""

    def __init__(
        self,
        props: KiteProperties,
        tether: TetherProperties,
        basis: BasisParams,
        gains: FlightGains = FlightGains(),
        winch: WinchParams = WinchParams(),
        flow: FlowEnv = FlowEnv(),
        params: SimParams = SimParams(),
    ):
        self.props = props
        self.tether = tether
        self.basis = basis
        self.gains = gains
        self.winch = winch
        self.flow = flow
        self.params = params
        # plain-float tables for the per-step math
        mass_matrix = props.mass_matrix()
        self.mass_rows = tuple(map(tuple, mass_matrix.tolist()))
        self._minv = tuple(np.linalg.inv(mass_matrix).ravel().tolist())
        self.forces = ForceTable.of(props, flow)
        self.line = LumpedLine.of(tether, flow)
        # the aileron pair's gains differ only in sign
        aileron_gain = next((abs(s.gain) for s in props.surfaces
                             if s.control == "aileron"), 0.0)
        if aileron_gain == 0.0:
            raise ConfigError("the kite has no aileron surface with a nonzero "
                              "deflection gain for the roll controller")
        self.controller = FlightController(gains, basis, params.dt,
                                           aileron_gain)

    # -- state construction -------------------------------------------------

    def initial_state(self) -> np.ndarray:
        p0 = self.params.init_path_pos
        radius = self.tether.length * (1.0 + self.params.pre_strain)

        def point(p):
            return [radius * c for c in path_direction(self.basis, p)]

        attach_target = ax, ay, az = point(p0)
        # unit tangent along increasing p, by central difference
        x_b = tx, ty, tz = _unit([a - b for a, b in zip(point(p0 + 1e-6),
                                                        point(p0 - 1e-6))])
        v_kite = [self.params.init_speed * c for c in x_b]

        # suction side outward so wing lift loads the tether
        dist = math.sqrt(ax * ax + ay * ay + az * az)
        radial = rx, ry, rz = (ax / dist, ay / dist, az / dist)
        along = rx * tx + ry * ty + rz * tz
        z_b = _unit((rx - along * tx, ry - along * ty, rz - along * tz))
        axes = (x_b, cross3(z_b, x_b), z_b)   # rot's columns, its transpose's rows
        rot = tuple(zip(*axes))

        ox, oy, oz = rotate(rot, self.forces.r_attach)
        omega_i = [c / dist for c in cross3(radial, v_kite)]
        return np.array([
            ax - ox, ay - oy, az - oz, *quat_from_rot(rot),
            *rotate(axes, (v_kite[0] - self.flow.speed, v_kite[1], v_kite[2])),
            *rotate(axes, omega_i),
            *self.line.initial_state(attach_target, v_kite, self.tether.length),
        ])

    # -- dynamics -----------------------------------------------------------

    def derivative(self, y: list[float], deflections: dict[str, float],
                   spool_speed: float) -> list[float]:
        px, py, pz, w, x, yq, z, u, v, ww, p, q, r = y[:13]
        node_pos, node_vel, rest = self.line.split(y)

        # quat_to_rot(y[3:7])
        r00 = 1 - 2 * (yq * yq + z * z)
        r01 = 2 * (x * yq - w * z)
        r02 = 2 * (x * z + w * yq)
        r10 = 2 * (x * yq + w * z)
        r11 = 1 - 2 * (x * x + z * z)
        r12 = 2 * (yq * z - w * x)
        r20 = 2 * (x * z - w * yq)
        r21 = 2 * (yq * z + w * x)
        r22 = 1 - 2 * (x * x + yq * yq)

        # inertial velocity; the attachment sits at rot @ r_attach from the
        # kite and moves at rot @ (omega x r_attach) relative to it, each
        # product summed before it is added, as rotate() returned it
        vx = r00 * u + r01 * v + r02 * ww + self.flow.speed
        vy = r10 * u + r11 * v + r12 * ww
        vz = r20 * u + r21 * v + r22 * ww
        ax, ay, az = self.forces.r_attach
        cx = q * az - r * ay
        cy = r * ax - p * az
        cz = p * ay - q * ax
        node_f, kite_f, _ = tether_forces(
            node_pos, node_vel,
            (px + (r00 * ax + r01 * ay + r02 * az),
             py + (r10 * ax + r11 * ay + r12 * az),
             pz + (r20 * ax + r21 * ay + r22 * az)),
            (vx + (r00 * cx + r01 * cy + r02 * cz),
             vy + (r10 * cx + r11 * cy + r12 * cz),
             vz + (r20 * cx + r21 * cy + r22 * cz)),
            rest, self.line)

        nu = (u, v, ww, p, q, r)
        f0, f1, f2, f3, f4, f5 = net_force_moment(
            self.forces, ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)),
            nu, kite_f, deflections)
        c0, c1, c2, c3, c4, c5 = coriolis_force(self.mass_rows, nu)
        t0 = f0 - c0
        t1 = f1 - c1
        t2 = f2 - c2
        t3 = f3 - c3
        t4 = f4 - c4
        t5 = f5 - c5
        (m00, m01, m02, m03, m04, m05, m10, m11, m12, m13, m14, m15,
         m20, m21, m22, m23, m24, m25, m30, m31, m32, m33, m34, m35,
         m40, m41, m42, m43, m44, m45, m50, m51, m52, m53, m54, m55) = self._minv

        # the state's rate: inertial velocity, the quaternion rate, and
        # M^-1 (tau - C(nu) nu) row by row
        out = [
            vx, vy, vz,
            0.5 * (-x * p - yq * q - z * r),
            0.5 * (w * p + yq * r - z * q),
            0.5 * (w * q + z * p - x * r),
            0.5 * (w * r + x * q - yq * p),
            m00 * t0 + m01 * t1 + m02 * t2 + m03 * t3 + m04 * t4 + m05 * t5,
            m10 * t0 + m11 * t1 + m12 * t2 + m13 * t3 + m14 * t4 + m15 * t5,
            m20 * t0 + m21 * t1 + m22 * t2 + m23 * t3 + m24 * t4 + m25 * t5,
            m30 * t0 + m31 * t1 + m32 * t2 + m33 * t3 + m34 * t4 + m35 * t5,
            m40 * t0 + m41 * t1 + m42 * t2 + m43 * t3 + m44 * t4 + m45 * t5,
            m50 * t0 + m51 * t1 + m52 * t2 + m53 * t3 + m54 * t4 + m55 * t5,
        ]
        out += self.line.node_rates(node_vel, node_f, rest)
        out.append(spool_speed)
        return out

    def rk4_step(self, y: list[float], deflections: dict[str, float],
                 spool_speed: float) -> list[float]:
        dt = self.params.dt
        h = 0.5 * dt
        k1 = self.derivative(y, deflections, spool_speed)
        k2 = self.derivative([a + h * b for a, b in zip(y, k1)],
                             deflections, spool_speed)
        k3 = self.derivative([a + h * b for a, b in zip(y, k2)],
                             deflections, spool_speed)
        k4 = self.derivative([a + dt * b for a, b in zip(y, k3)],
                             deflections, spool_speed)
        c = dt / 6.0
        out = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
               for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        w, x, yq, z = out[3:7]
        norm = math.sqrt(w * w + x * x + yq * yq + z * z)
        out[3:7] = (w / norm, x / norm, yq / norm, z / norm)
        return out

    def winch_tension(self, y: list[float]) -> float:
        # a method run() calls each step, for the benchmark's tracer
        return self.line.winch_tension(y)

    # -- closed loop --------------------------------------------------------

    def run(self, n_laps: int, y0: np.ndarray | None = None,
            p_start: float | None = None) -> SimResult:
        if n_laps < 1:
            raise ValueError(f"n_laps must be at least 1; got {n_laps!r}")
        params = self.params
        y = (self.initial_state() if y0 is None else y0).tolist()
        self.controller.reset()
        p_total = params.init_path_pos if p_start is None else p_start
        t = 0.0
        log = LapLog(params.init_path_pos, p_total, params.trace_stride)
        guard = FlightGuard(params, self.tether.length)

        for _ in range(int(params.max_time / params.dt)):
            rot = quat_to_rot(y[3:7])
            vx, vy, vz = rotate(rot, y[7:10])
            p_mod = p_total % TWO_PI

            spool_speed, elevator = winch_command(p_mod, self.winch, self.flow)
            aileron, rudder = self.controller.update(
                y[0:3], (vx + self.flow.speed, vy, vz),
                (rot[0][1], rot[1][1], rot[2][1]), p_mod)
            deflections = {"aileron": aileron, "rudder": rudder,
                           "elevator": elevator}

            y = self.rk4_step(y, deflections, spool_speed)
            t += params.dt
            guard.check_state(t, y)

            pos = y[0:3]
            p_total += nearest_path_position(self.basis, pos, p_mod) - p_mod
            angle = interior_angle(self.basis, p_total % TWO_PI, pos)
            guard.check_angle(t, angle)

            tension = self.winch_tension(y)
            log.record(t, p_total, pos, spool_speed, angle, tension)
            if len(log.laps) == n_laps:
                return log.result(y, p_total)

        raise EmptyLap(f"{len(log.laps)} of {n_laps} laps closed in "
                       f"{t:.3f} s (p reached {p_total:.2f} rad)")
