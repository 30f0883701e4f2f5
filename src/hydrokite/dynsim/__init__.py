"""Closed-loop flight simulation: paths, kite body, tether, controllers,
and the RK4 time stepper."""

from .control import FlightController, FlightGains, WinchParams, winch_command
from .kite import (
    KiteProperties,
    SurfaceDef,
    build_kite,
    coriolis_matrix,
    net_force_moment,
    surface_force_moment,
)
from .paths import (
    BasisParams,
    interior_angle,
    nearest_path_position,
    path_angles,
    path_point,
    path_tangent,
    spool_phase,
)
from .sim import LapMetrics, SimParams, SimResult, Simulator
from .tether import TetherProperties, link_tension, tether_forces

__all__ = [
    "BasisParams", "FlightController", "FlightGains", "KiteProperties",
    "LapMetrics", "SimParams", "SimResult", "Simulator", "SurfaceDef",
    "TetherProperties", "WinchParams", "build_kite", "coriolis_matrix",
    "interior_angle", "link_tension", "nearest_path_position",
    "net_force_moment", "path_angles", "path_point", "path_tangent",
    "spool_phase", "surface_force_moment", "tether_forces", "winch_command",
]
