"""Closed-loop flight simulation: paths, kite body, tether, controllers,
and the RK4 time stepper."""

from .control import FlightController, FlightGains, WinchParams, winch_command
from .kite import (
    ForceTable,
    KiteProperties,
    SurfaceRow,
    build_kite,
    coriolis_force,
    net_force_moment,
    surface,
)
from .paths import (
    BasisParams,
    interior_angle,
    nearest_path_position,
    path_angles,
    path_direction,
    spool_phase,
)
from .sim import LapMetrics, SimParams, SimResult, Simulator
from .tether import LumpedLine, TetherProperties, tether_forces

__all__ = [
    "BasisParams", "FlightController", "FlightGains", "ForceTable",
    "KiteProperties", "LapMetrics", "LumpedLine", "SimParams", "SimResult",
    "Simulator", "SurfaceRow", "TetherProperties", "WinchParams",
    "build_kite", "coriolis_force", "interior_angle", "nearest_path_position",
    "net_force_moment", "path_angles", "path_direction", "spool_phase",
    "surface", "tether_forces", "winch_command",
]
