"""Lumped-mass tether: point nodes joined by non-compressive spring-damper
links, with buoyancy and cross-flow drag on each node.

The winch end is pinned at the origin; the outer end follows the kite's
attachment point.  Spooling rescales every link's rest length uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kite import GRAVITY
from ..hydro import FlowEnv


@dataclass(frozen=True)
class TetherProperties:
    n_nodes: int = 5
    radius: float = 0.05
    density: float = 975.0
    youngs_modulus: float = 1.0e10
    damping_ratio: float = 0.5
    drag_coeff: float = 1.0
    length: float = 125.0           # unstretched line length, m

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        for name in ("radius", "density", "youngs_modulus", "length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
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
    n = props.n_nodes
    chain_pos = [0.0, 0.0, 0.0, *node_pos, *attach_pos]
    chain_vel = [0.0, 0.0, 0.0, *node_vel, *attach_vel]
    k, damp, _ = props.link_constants(rest_length)

    # pull of each link on its outer end, winch to kite.  The cable cannot
    # push: a slack link carries nothing and a taut one's damped pull
    # floors at zero; the distance is floored only where it divides, for
    # a zero-length link
    pulls = []
    for i in range(0, 3 * n + 3, 3):
        sx = chain_pos[i + 3] - chain_pos[i]
        sy = chain_pos[i + 4] - chain_pos[i + 1]
        sz = chain_pos[i + 5] - chain_pos[i + 2]
        dist = math.sqrt(sx * sx + sy * sy + sz * sz)
        mag = 0.0
        if dist >= rest_length:
            safe = max(dist, 1e-12)
            stretch_rate = (sx * (chain_vel[i + 3] - chain_vel[i])
                            + sy * (chain_vel[i + 4] - chain_vel[i + 1])
                            + sz * (chain_vel[i + 5] - chain_vel[i + 2])) / safe
            mag = max(k * (dist - rest_length) + damp * stretch_rate, 0.0) / safe
        pulls += (-mag * sx, -mag * sy, -mag * sz)

    # buoyancy net of weight, on each node's share of cable length
    lift = ((flow.density - props.density) * props.section_area * GRAVITY
            * rest_length)
    # cross-flow drag on the projected strip, tangential component dropped
    drag = 0.5 * flow.density * props.drag_coeff * (2.0 * props.radius * rest_length)
    forces = []
    for i in range(0, 3 * n, 3):
        tx = chain_pos[i + 6] - chain_pos[i]
        ty = chain_pos[i + 7] - chain_pos[i + 1]
        tz = chain_pos[i + 8] - chain_pos[i + 2]
        t_norm = max(math.sqrt(tx * tx + ty * ty + tz * tz), 1e-12)
        tx, ty, tz = tx / t_norm, ty / t_norm, tz / t_norm
        ax = flow.speed - chain_vel[i + 3]
        ay = -chain_vel[i + 4]
        az = -chain_vel[i + 5]
        along = ax * tx + ay * ty + az * tz
        nx, ny, nz = ax - along * tx, ay - along * ty, az - along * tz
        drag_n = drag * math.sqrt(nx * nx + ny * ny + nz * nz)
        forces += (pulls[i] - pulls[i + 3] + drag_n * nx,
                   pulls[i + 1] - pulls[i + 4] + drag_n * ny,
                   pulls[i + 2] - pulls[i + 5] + lift + drag_n * nz)

    px, py, pz = pulls[0:3]
    return forces, tuple(pulls[3 * n:]), math.sqrt(px * px + py * py + pz * pz)
