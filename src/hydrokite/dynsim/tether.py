"""Lumped-mass tether: point nodes joined by non-compressive spring-damper
links, with buoyancy and cross-flow drag on each node.

The winch end is pinned at the origin; the outer end follows the kite's
attachment point.  Spooling rescales every link's rest length uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    def link_stiffness(self, rest_length: float) -> float:
        return self.youngs_modulus * self.section_area / rest_length

    def link_mass(self, rest_length: float) -> float:
        return self.density * self.section_area * rest_length


def tether_forces(
    node_pos: np.ndarray,
    node_vel: np.ndarray,
    attach_pos: np.ndarray,
    attach_vel: np.ndarray,
    rest_length: float,
    props: TetherProperties,
    flow: FlowEnv,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Net force per free node, force on the kite, and winch tension.

    node_pos/node_vel are (N, 3) for the free nodes ordered winch to kite;
    rest_length is the current per-link rest length (uniform spooling).
    """
    n = props.n_nodes
    chain_pos = np.vstack([np.zeros(3), node_pos, attach_pos])
    chain_vel = np.vstack([np.zeros(3), node_vel, attach_vel])
    spans = chain_pos[1:] - chain_pos[:-1]
    rates = chain_vel[1:] - chain_vel[:-1]

    # all links at once.  The cable cannot push: a slack link carries
    # nothing and a taut one's damped pull floors at zero; the distance is
    # floored only where it divides, for a zero-length link
    dist = np.linalg.norm(spans, axis=1)
    safe = np.maximum(dist, 1e-12)
    k = props.link_stiffness(rest_length)
    damp = 2.0 * props.damping_ratio * math.sqrt(k * props.link_mass(rest_length))
    stretch_rate = np.einsum("ij,ij->i", spans, rates) / safe
    mag = k * (dist - rest_length) + damp * stretch_rate
    mag = np.where(dist >= rest_length, np.maximum(mag, 0.0), 0.0)
    pulls = -(mag / safe)[:, None] * spans

    forces = pulls[:n] - pulls[1:]

    # buoyancy net of weight, on each node's share of cable length
    lift_per_len = (flow.density - props.density) * props.section_area * GRAVITY
    forces[:, 2] += lift_per_len * rest_length

    # cross-flow drag on the projected strip, tangential component dropped
    tangents = chain_pos[2:] - chain_pos[:-2]
    t_norm = np.maximum(np.linalg.norm(tangents, axis=1), 1e-12)
    tangents = tangents / t_norm[:, None]
    v_app = np.array([flow.speed, 0.0, 0.0]) - node_vel
    v_n = v_app - np.einsum("ij,ij->i", v_app, tangents)[:, None] * tangents
    speed_n = np.linalg.norm(v_n, axis=1)
    area = 2.0 * props.radius * rest_length
    forces += 0.5 * flow.density * props.drag_coeff * area * speed_n[:, None] * v_n

    kite_force = pulls[n]
    winch_tension = float(np.linalg.norm(pulls[0]))
    return forces, kite_force, winch_tension
