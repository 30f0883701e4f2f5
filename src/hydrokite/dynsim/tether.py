"""Lumped-mass tether: point nodes joined by non-compressive spring-damper
links, with buoyancy and cross-flow drag on each node.

The winch end is pinned at the origin; the outer end follows the kite's
attachment point.  Spooling rescales every link's rest length uniformly.

A line of n free nodes is a LumpedLine.  Its block, the tail of the
simulator's state, is the node positions, then the node velocities (x, y,
z per node, winch to kite), then the unspooled length, which the n + 1
links share equally as their rest length.  It binds once per simulator
everything the link and node forces take from the line and the flow: E A,
rho_t A, twice the damping ratio, the net buoyancy and drag per unit of
rest length, the line's width and the flow speed.  Each call forms a
link's stiffness E A / l, mass rho_t A l and damping 2 zeta sqrt(k m) from
those, and they come out as the unbound formulas give them: Python
multiplies left to right, so E * A / l is (E A) / l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .kite import GRAVITY
from ..errors import check_fields
from ..hydro import FlowEnv


@dataclass(frozen=True)
class TetherProperties:
    n_nodes: int = 5                # lumped masses along the line
    radius: float = 0.05            # m
    density: float = 975.0          # kg/m^3, a slightly buoyant line
    youngs_modulus: float = 1.0e10  # Pa
    damping_ratio: float = 0.5      # of a link's critical damping
    drag_coeff: float = 1.0         # cylinder cross-flow drag
    length: float = 125.0           # unstretched line length, m

    def __post_init__(self):
        check_fields(
            self, positive=("radius", "density", "youngs_modulus", "length"),
            nonnegative=("damping_ratio", "drag_coeff"),
            at_least={"n_nodes": 1})


class LumpedLine(NamedTuple):
    """A line of n_nodes free nodes in a flow, its constants in floats.

    Per unit of rest length l: a link's stiffness is axial_stiffness / l,
    its mass mass_per_length * l and its damping coefficient
    two_zeta * sqrt(stiffness * mass); a node's mass is
    mass_per_length * l, its net buoyancy net_buoyancy * l and its drag
    per speed^2 drag_pressure * (width * l).
    """

    axial_stiffness: float     # E A, N
    mass_per_length: float     # rho_t A, kg/m
    two_zeta: float            # twice the damping ratio
    net_buoyancy: float        # (rho_w - rho_t) A g, N/m
    drag_pressure: float       # 1/2 rho_w C_D, kg/m^3
    width: float               # 2 r, m
    flow_speed: float          # m/s, along inertial x
    n_nodes: int               # free nodes, winch to kite

    @classmethod
    def of(cls, props: TetherProperties, flow: FlowEnv) -> "LumpedLine":
        area = math.pi * props.radius**2
        return cls(
            props.youngs_modulus * area, props.density * area,
            2.0 * props.damping_ratio,
            (flow.density - props.density) * area * GRAVITY,
            0.5 * flow.density * props.drag_coeff, 2.0 * props.radius,
            flow.speed, props.n_nodes)

    def initial_state(self, attach_pos, attach_vel, length) -> list[float]:
        """The block with the nodes spaced evenly towards the attachment."""
        n = self.n_nodes
        fractions = [i / (n + 1) for i in range(1, n + 1)]
        return [*(f * c for f in fractions for c in attach_pos),
                *(f * c for f in fractions for c in attach_vel), length]

    def split(self, y):
        """Node positions, node velocities and link rest length in y."""
        n3 = 3 * self.n_nodes
        return y[-2 * n3 - 1:-n3 - 1], y[-n3 - 1:-1], y[-1] / (self.n_nodes + 1)

    def node_rates(self, node_vel, node_forces, rest_length) -> list[float]:
        """The node blocks' rate: velocities, then force over node mass."""
        node_mass = self.mass_per_length * rest_length
        return node_vel + [f / node_mass for f in node_forces]

    def winch_tension(self, y) -> float:
        """Tension in the winch link, whose inner end is pinned, in y."""
        node_pos, node_vel, rest = self.split(y)
        x, yy, z = node_pos[:3]
        vx, vy, vz = node_vel[:3]
        dist = math.sqrt(x * x + yy * yy + z * z)
        if dist < rest or dist == 0.0:
            return 0.0
        k = self.axial_stiffness / rest
        damp = self.two_zeta * math.sqrt(k * (self.mass_per_length * rest))
        mag = k * (dist - rest) + damp * (x * vx + yy * vy + z * vz) / dist
        return max(mag, 0.0)


def tether_forces(
    node_pos,
    node_vel,
    attach_pos,
    attach_vel,
    rest_length: float,
    line: LumpedLine,
) -> tuple[list[float], tuple[float, float, float], float]:
    """Net force per free node, force on the kite, and winch tension.

    node_pos/node_vel are flat sequences of 3N floats, x, y, z per free
    node ordered winch to kite, as in the simulator state; attach_pos and
    attach_vel are 3-sequences.  rest_length is the current per-link rest
    length (uniform spooling), and line the tether's LumpedLine in the
    flow.  The node forces come back in the same flat layout.
    """
    n3 = len(node_pos)
    (axial_stiffness, mass_per_length, two_zeta, net_buoyancy, drag_pressure,
     width, flow_speed, _) = line
    k = axial_stiffness / rest_length
    damp = two_zeta * math.sqrt(k * (mass_per_length * rest_length))
    # buoyancy net of weight, on each node's share of cable length
    lift = net_buoyancy * rest_length
    # cross-flow drag on the projected strip, tangential component dropped
    drag = drag_pressure * (width * rest_length)

    # one pass, winch to kite.  Link i joins chain point a (the winch for
    # i = 0) to chain point b (the attachment for the last link); once its
    # pull is known, node a has both links and both neighbours, h behind
    # and b ahead, and its force is finished.  The cable cannot push: a
    # slack link carries nothing and a taut one's damped pull floors at
    # zero; the distance is floored only where it divides, for a
    # zero-length link.  Each floor is a comparison that gives what max()
    # would, NaN and -0.0 included
    forces = [0.0] * n3
    hx = hy = hz = 0.0
    ax = ay = az = au = av = aw = 0.0
    px = py = pz = 0.0
    for i in range(0, n3 + 3, 3):
        if i < n3:
            bx, by, bz = node_pos[i], node_pos[i + 1], node_pos[i + 2]
            bu, bv, bw = node_vel[i], node_vel[i + 1], node_vel[i + 2]
        else:
            bx, by, bz = attach_pos
            bu, bv, bw = attach_vel
        sx = bx - ax
        sy = by - ay
        sz = bz - az
        dist = math.sqrt(sx * sx + sy * sy + sz * sz)
        mag = 0.0
        if dist >= rest_length:
            safe = 1e-12 if dist < 1e-12 else dist
            stretch_rate = (sx * (bu - au) + sy * (bv - av)
                            + sz * (bw - aw)) / safe
            pull = k * (dist - rest_length) + damp * stretch_rate
            mag = (0.0 if pull < 0.0 else pull) / safe
        qx, qy, qz = -mag * sx, -mag * sy, -mag * sz

        if i:
            tx = bx - hx
            ty = by - hy
            tz = bz - hz
            t_norm = math.sqrt(tx * tx + ty * ty + tz * tz)
            if t_norm < 1e-12:
                t_norm = 1e-12
            tx, ty, tz = tx / t_norm, ty / t_norm, tz / t_norm
            rx = flow_speed - au
            ry = -av
            rz = -aw
            along = rx * tx + ry * ty + rz * tz
            nx, ny, nz = rx - along * tx, ry - along * ty, rz - along * tz
            drag_n = drag * math.sqrt(nx * nx + ny * ny + nz * nz)
            forces[i - 3] = px - qx + drag_n * nx
            forces[i - 2] = py - qy + drag_n * ny
            forces[i - 1] = pz - qz + lift + drag_n * nz
        else:
            tension = math.sqrt(qx * qx + qy * qy + qz * qz)
        hx, hy, hz = ax, ay, az
        ax, ay, az, au, av, aw = bx, by, bz, bu, bv, bw
        px, py, pz = qx, qy, qz

    return forces, (px, py, pz), tension
