"""Lumped-mass tether: point nodes joined by non-compressive spring-damper
links, with buoyancy and cross-flow drag on each node.

The winch end is pinned at the origin; the outer end follows the kite's
attachment point.  Spooling rescales every link's rest length uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .kite import GRAVITY
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
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        for name in ("radius", "density", "youngs_modulus", "length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @cached_property
    def section_area(self) -> float:
        return math.pi * self.radius**2

    def link_constants(self, rest_length: float) -> tuple[float, float, float]:
        """Stiffness, damping coefficient (damping_ratio of critical for the
        link's own mass) and mass of one link of the given rest length."""
        area = self.section_area
        k = self.youngs_modulus * area / rest_length
        mass = self.density * area * rest_length
        return k, 2.0 * self.damping_ratio * math.sqrt(k * mass), mass


def tether_forces(
    node_pos,
    node_vel,
    attach_pos,
    attach_vel,
    rest_length: float,
    props: TetherProperties,
    flow: FlowEnv,
) -> tuple[list[float], tuple[float, float, float], float]:
    """Net force per free node, force on the kite, and winch tension.

    node_pos/node_vel are flat sequences of 3N floats, x, y, z per free
    node ordered winch to kite, as in the simulator state; attach_pos and
    attach_vel are 3-sequences.  rest_length is the current per-link rest
    length (uniform spooling).  The node forces come back in the same flat
    layout.
    """
    n3 = 3 * props.n_nodes
    k, damp, _ = props.link_constants(rest_length)
    # buoyancy net of weight, on each node's share of cable length
    lift = ((flow.density - props.density) * props.section_area * GRAVITY
            * rest_length)
    # cross-flow drag on the projected strip, tangential component dropped
    drag = 0.5 * flow.density * props.drag_coeff * (2.0 * props.radius * rest_length)
    flow_speed = flow.speed

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
