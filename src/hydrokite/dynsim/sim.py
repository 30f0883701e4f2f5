"""Closed-loop time stepping: fixed-step RK4 over the kite 6-DOF, the
tether chain, and the spooled length, with the controllers held constant
across each step.

State vector layout (n tether nodes):
  [0:3] kite position  [3:7] attitude quaternion (w, x, y, z)
  [7:13] body relative velocity  [13:13+3n] node positions
  [13+3n:13+6n] node velocities  [13+6n] total unspooled length
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import FlightController, FlightGains, WinchParams, winch_command
from .kite import KiteProperties, coriolis_matrix, cross3, net_force_moment
from .paths import BasisParams, interior_angle, nearest_path_position, path_point, path_tangent
from .tether import TetherProperties, tether_forces
from ..errors import ConfigError, EmptyLap, NumericBlowup, PathLost
from ..hydro import FlowEnv

TWO_PI = 2.0 * math.pi


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_derivative(q: np.ndarray, omega_body: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    ox, oy, oz = omega_body
    return 0.5 * np.array([
        -x * ox - y * oy - z * oz,
        w * ox + y * oz - z * oy,
        w * oy + z * ox - x * oz,
        w * oz + x * oy - y * ox,
    ])


def quat_from_rot(rot: np.ndarray) -> np.ndarray:
    w = 0.5 * math.sqrt(max(1.0 + rot[0, 0] + rot[1, 1] + rot[2, 2], 1e-12))
    return np.array([
        w,
        (rot[2, 1] - rot[1, 2]) / (4.0 * w),
        (rot[0, 2] - rot[2, 0]) / (4.0 * w),
        (rot[1, 0] - rot[0, 1]) / (4.0 * w),
    ])


@dataclass
class SimParams:
    dt: float = 2e-3
    max_time: float = 900.0
    init_speed: float = 3.5
    init_path_pos: float = 0.25 * math.pi   # start of a spool-in quarter
    pre_strain: float = 6e-5
    objective_weight: float = 1.0e3   # J penalty in W per rad of interior angle
    abort_angle: float = 1.0          # rad of interior angle before PathLost
    grace_time: float = 20.0          # no abort during the initial transient
    blowup_speed: float = 60.0
    trace_stride: int = 5             # record every k-th step


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

    def lap_slice(self, lap: LapMetrics) -> np.ndarray:
        return (self.time >= lap.t_start) & (self.time < lap.t_end)


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
        self.n = tether.n_nodes
        self.minv = np.linalg.inv(props.mass_matrix())
        aileron_gain = next((s.deflection_gain for s in props.surfaces
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
        attach_target = path_point(self.basis, p0, radius)
        tangent = path_tangent(self.basis, p0, radius)
        v_kite = self.params.init_speed * tangent

        # suction side outward so wing lift loads the tether
        radial = attach_target / np.linalg.norm(attach_target)
        x_b = tangent
        z_b = radial - float(radial @ x_b) * x_b
        z_b /= np.linalg.norm(z_b)
        y_b = np.cross(z_b, x_b)
        rot = np.column_stack([x_b, y_b, z_b])
        quat = quat_from_rot(rot)

        position = attach_target - rot @ self.props.r_attach
        omega_i = np.cross(radial, v_kite) / np.linalg.norm(attach_target)
        nu = np.concatenate([
            rot.T @ (v_kite - np.array([self.flow.speed, 0.0, 0.0])),
            rot.T @ omega_i,
        ])

        fractions = (np.arange(1, self.n + 1) / (self.n + 1))[:, None]
        node_pos = fractions * attach_target[None, :]
        node_vel = fractions * v_kite[None, :]

        return np.concatenate([
            position, quat, nu, node_pos.ravel(), node_vel.ravel(),
            [self.tether.length],
        ])

    # -- dynamics -----------------------------------------------------------

    def derivative(self, y: np.ndarray, deflections: dict[str, float],
                   spool_speed: float) -> np.ndarray:
        n = self.n
        pos = y[0:3]
        quat = y[3:7]
        nu = y[7:13]
        node_pos = y[13:13 + 3 * n].reshape(n, 3)
        node_vel = y[13 + 3 * n:13 + 6 * n].reshape(n, 3)
        l_total = y[13 + 6 * n]

        rot = quat_to_rot(quat)
        u_flow = np.array([self.flow.speed, 0.0, 0.0])
        v_inertial = rot @ nu[:3] + u_flow
        omega = nu[3:]

        attach_pos = pos + rot @ self.props.r_attach
        attach_vel = v_inertial + rot @ cross3(omega, self.props.r_attach)
        rest = l_total / (n + 1)
        node_f, kite_f, _ = tether_forces(
            node_pos, node_vel, attach_pos, attach_vel, rest,
            self.tether, self.flow)
        node_mass = self.tether.link_mass(rest)

        tau = net_force_moment(self.props, rot, nu, kite_f, deflections,
                               self.flow)
        mass_m = self.props.mass_matrix()
        dnu = self.minv @ (tau - coriolis_matrix(mass_m, nu) @ nu)

        return np.concatenate([
            v_inertial,
            quat_derivative(quat, omega),
            dnu,
            node_vel.ravel(),
            (node_f / node_mass).ravel(),
            [spool_speed],
        ])

    def rk4_step(self, y: np.ndarray, deflections: dict[str, float],
                 spool_speed: float) -> np.ndarray:
        dt = self.params.dt
        k1 = self.derivative(y, deflections, spool_speed)
        k2 = self.derivative(y + 0.5 * dt * k1, deflections, spool_speed)
        k3 = self.derivative(y + 0.5 * dt * k2, deflections, spool_speed)
        k4 = self.derivative(y + dt * k3, deflections, spool_speed)
        out = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[3:7] /= np.linalg.norm(out[3:7])
        return out

    def winch_tension(self, y: np.ndarray) -> float:
        # only the first link matters: inner end pinned at the winch
        n = self.n
        node1 = y[13:16]
        vel1 = y[13 + 3 * n:16 + 3 * n]
        rest = y[13 + 6 * n] / (n + 1)
        dist = math.sqrt(float(node1 @ node1))
        if dist < rest or dist == 0.0:
            return 0.0
        k = self.tether.link_stiffness(rest)
        damp = 2.0 * self.tether.damping_ratio * math.sqrt(
            k * self.tether.link_mass(rest))
        mag = k * (dist - rest) + damp * float(node1 @ vel1) / dist
        return max(mag, 0.0)

    # -- closed loop --------------------------------------------------------

    def run(self, n_laps: int, y0: np.ndarray | None = None,
            p_start: float | None = None) -> SimResult:
        params = self.params
        y = self.initial_state() if y0 is None else y0.copy()
        self.controller.reset()
        p_total = params.init_path_pos if p_start is None else p_start
        t = 0.0
        laps: list[LapMetrics] = []
        rows: list[tuple] = []
        lap_rows: list[tuple] = []
        lap_start = 0.0
        step_count = 0
        max_steps = int(params.max_time / params.dt)

        while len(laps) < n_laps and step_count < max_steps:
            pos = y[0:3]
            rot = quat_to_rot(y[3:7])
            v_inertial = rot @ y[7:10] + np.array([self.flow.speed, 0.0, 0.0])
            p_mod = p_total % TWO_PI

            spool_speed, elevator = winch_command(p_mod, self.winch, self.flow)
            aileron, rudder, _ = self.controller.update(
                pos, v_inertial, rot[:, 1], p_mod)
            deflections = {"aileron": aileron, "rudder": rudder,
                           "elevator": elevator}

            y = self.rk4_step(y, deflections, spool_speed)
            t += params.dt
            step_count += 1

            if not np.all(np.isfinite(y)):
                raise NumericBlowup(f"non-finite state at t = {t:.3f} s")
            speed = float(np.linalg.norm(y[7:10]))
            if speed > params.blowup_speed or np.linalg.norm(y[0:3]) > 4.0 * self.tether.length:
                raise NumericBlowup(
                    f"state escaped bounds at t = {t:.3f} s (speed {speed:.1f} m/s)")

            pos = y[0:3]
            p_prev = p_total
            p_new = nearest_path_position(self.basis, pos, p_mod, window=0.25)
            p_total += p_new - p_mod
            angle = interior_angle(self.basis, p_total % TWO_PI, pos)
            if angle > params.abort_angle and t > params.grace_time:
                raise PathLost(
                    f"interior angle {angle:.2f} rad at t = {t:.2f} s")

            tension = self.winch_tension(y)
            power = tension * spool_speed
            lap_rows.append((t, power, angle, tension))
            if step_count % params.trace_stride == 0:
                rows.append((t, power, tension, angle, spool_speed,
                             p_total, pos[0], pos[1], pos[2]))

            # full figure-8 laps measured from the start position
            p0 = params.init_path_pos
            if math.floor((p_total - p0) / TWO_PI) > math.floor((p_prev - p0) / TWO_PI):
                laps.append(self._close_lap(len(laps), lap_start, t, lap_rows))
                lap_rows = []
                lap_start = t

        if not laps:
            raise EmptyLap(
                f"no lap completed in {t:.0f} s (p reached {p_total:.2f} rad)")

        data = np.array(rows)
        return SimResult(
            laps=laps,
            time=data[:, 0], power=data[:, 1], tension=data[:, 2],
            angle=data[:, 3], spool_speed=data[:, 4], path_pos=data[:, 5],
            position=data[:, 6:9], final_state=y, final_path_pos=p_total)

    def _close_lap(self, index: int, t_start: float, t_end: float,
                   rows: list[tuple]) -> LapMetrics:
        arr = np.array(rows)
        power = arr[:, 1]
        angle = arr[:, 2]
        tension = arr[:, 3]
        k_w = self.params.objective_weight
        return LapMetrics(
            index=index, t_start=t_start, t_end=t_end,
            power_avg=float(np.mean(power)),
            power_peak=float(np.max(power)),
            objective=float(np.mean(power - k_w * angle)),
            angle_mean=float(np.mean(angle)),
            angle_max=float(np.max(angle)),
            tension_mean=float(np.mean(tension)),
            tension_peak=float(np.max(tension)),
        )
