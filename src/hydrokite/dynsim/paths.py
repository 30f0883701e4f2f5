"""Figure-8 reference paths on the tether sphere.

The path is a lemniscate of Booth in spherical angles: azimuth about the
vertical axis measured from straight downstream, elevation from the
horizontal.  The inertial frame is x downstream, y cross-stream (port),
z up, winch at the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import check_fields


@dataclass(frozen=True)
class BasisParams:
    """Lemniscate shape vector b.

    b1 is the elevation amplitude; b1/b2 sets the azimuth width; b3 and b4
    are the mean azimuth and elevation.  All radians.
    """

    b1: float = 0.3
    b2: float = 0.2
    b3: float = 0.0
    b4: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.b2 == 0.0:
            raise ValueError("b2 must be nonzero")

    def as_array(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3, self.b4])

    @classmethod
    def from_array(cls, arr) -> "BasisParams":
        b1, b2, b3, b4 = (float(v) for v in arr)
        return cls(b1, b2, b3, b4)


def path_angles(b: BasisParams, p: float) -> tuple[float, float]:
    """(azimuth, elevation) at path position p."""
    q = (b.b1 / b.b2) ** 2
    s, c = math.sin(p), math.cos(p)
    denom = 1.0 + q * (c * c)
    phi = q * s * c / denom + b.b3
    theta = b.b1 * s / denom + b.b4
    return phi, theta


def path_direction(b: BasisParams, p: float) -> tuple[float, float, float]:
    """Inertial unit vector from the winch to the path point at p; the
    point itself at tether radius r is r times this."""
    phi, theta = path_angles(b, p)
    ct = math.cos(theta)
    return (ct * math.cos(phi), ct * math.sin(phi), math.sin(theta))


# spool-in on the two azimuth-edge quarters of the lap, spool-out in the
# two center quarters; half-open intervals decide the boundaries
SPOOL_IN_SPANS = ((0.25 * math.pi, 0.75 * math.pi),
                  (1.25 * math.pi, 1.75 * math.pi))


def spool_phase(p: float) -> str:
    """"in" on the edge quarters of the path, "out" on the center quarters."""
    p = p % (2.0 * math.pi)
    for lo, hi in SPOOL_IN_SPANS:
        if lo <= p < hi:
            return "in"
    return "out"


# nearest_path_position's candidates: SCAN_POINTS even offsets spanning
# SCAN_WINDOW rad ahead of the last known path position
SCAN_POINTS = 61
SCAN_WINDOW = 0.25
_SCAN_OFFSETS = np.linspace(0.0, SCAN_WINDOW, SCAN_POINTS).tolist()


@functools.lru_cache(maxsize=16)
def _scan_points(b: BasisParams,
                 p_guess: float) -> tuple[list[float], np.ndarray]:
    """The scan's candidate positions and their path_direction, the latter
    as a read-only (SCAN_POINTS, 3) array."""
    candidates = [p_guess + offset for offset in _SCAN_OFFSETS]
    points = np.array([path_direction(b, p) for p in candidates])
    points.flags.writeable = False
    return candidates, points


def nearest_path_position(b: BasisParams, direction, p_guess: float) -> float:
    """Path position whose direction is closest to the kite's, searched in
    a forward window from the last known position (keeps p monotone).

    The candidates are path_direction(b, p) for p_guess plus each of
    SCAN_POINTS even offsets in [0, SCAN_WINDOW].  They are memoized on
    (b, p_guess) in a 16-entry LRU, since a flight step repeats the last
    step's p_guess until the kite passes the next candidate; a call then
    only normalizes the direction and takes one argmax.
    """
    candidates, points = _scan_points(b, p_guess)
    x, y, z = direction
    norm = math.sqrt(x * x + y * y + z * z)
    return candidates[int((points @ (x / norm, y / norm, z / norm)).argmax())]


def interior_angle(b: BasisParams, p: float, position) -> float:
    """Angle between the kite's direction and the path point at p (rad);
    the cross-track error measure on the sphere.

    Taken as atan2(|r x d|, r . d), which keeps its relative accuracy at
    small angles, where arccos of a cosine near 1 loses it.
    """
    x, y, z = position
    dx, dy, dz = path_direction(b, p)
    cx, cy, cz = y * dz - z * dy, z * dx - x * dz, x * dy - y * dx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                      x * dx + y * dy + z * dz)
