"""Bundled reference kite designs for simulation and comparison.

Records are data, not derivations: masses and thicknesses are carried as
sized by the program that produced each design.  The structural audit in
this package applies its own load case and may disagree with a record;
that disagreement is reported, not hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .design import ScalingRule
from .dynsim.kite import KiteProperties, build_kite
from .errors import ConfigError
from .fusestruct import FuselageDesign
from .hydro import FlowEnv, FoilCoeffs, WingPlanform
from .wingstruct import FourDigitFoil

_FLOAT_KEYS = ("span", "aspect_ratio", "diameter", "length", "wall_pct",
               "m_wing", "m_fuse", "ratio_mass")
_OPTIONAL_FLOAT_KEYS = ("spar_width_pct", "shell_pct", "power_rated")


@dataclass(frozen=True)
class DesignRecord:
    """One catalog entry; structure fields are None when never sized."""

    name: str
    span: float
    aspect_ratio: float
    diameter: float
    length: float
    wall_pct: float
    m_wing: float
    m_fuse: float
    ratio_mass: float          # mass its power-to-mass figure is quoted against
    n_spars: Optional[int] = None
    spar_width_pct: Optional[float] = None
    shell_pct: Optional[float] = None
    power_rated: Optional[float] = None
    note: str = ""

    @property
    def m_kite(self) -> float:
        return self.m_wing + self.m_fuse

    @property
    def planform(self) -> WingPlanform:
        return WingPlanform(self.span, self.aspect_ratio)

    @property
    def fuselage(self) -> FuselageDesign:
        return FuselageDesign(self.diameter, self.length, self.wall_pct)


def _number(name: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"design {name!r}: {key} must be a number")
    return float(value)


def _parse_record(name: str, data: dict) -> DesignRecord:
    if not isinstance(data, dict):
        raise ConfigError(f"design {name!r} must be a mapping")
    known = set(_FLOAT_KEYS) | set(_OPTIONAL_FLOAT_KEYS) | {"n_spars", "note"}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"design {name!r}: unknown key {sorted(bad)[0]!r}")
    kwargs: dict = {"name": name}
    for key in _FLOAT_KEYS:
        if key not in data:
            raise ConfigError(f"design {name!r} is missing {key!r}")
        kwargs[key] = _number(name, key, data[key])
    for key in _OPTIONAL_FLOAT_KEYS:
        if data.get(key) is not None:
            kwargs[key] = _number(name, key, data[key])
    n_spars = data.get("n_spars")
    if n_spars is not None:
        if isinstance(n_spars, bool) or not isinstance(n_spars, int):
            raise ConfigError(f"design {name!r}: n_spars must be an integer")
        kwargs["n_spars"] = n_spars
    kwargs["note"] = str(data.get("note", ""))
    return DesignRecord(**kwargs)


def load_designs(path: Optional[str] = None) -> dict[str, DesignRecord]:
    """Catalog from a YAML file; with no path, the bundled catalog."""
    if path is None:
        text = (resources.files("hydrokite") / "data" / "designs.yaml").read_text()
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"design catalog {path!r} does not exist")
        text = p.read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"design catalog is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("design catalog must map names to records")
    return {name: _parse_record(name, data) for name, data in doc.items()}


def kite_from_record(
    record: DesignRecord,
    rule: ScalingRule = ScalingRule(),
    flow: FlowEnv = FlowEnv(),
    foil_coeffs: FoilCoeffs = FoilCoeffs(),
    foil: FourDigitFoil = FourDigitFoil(),
) -> KiteProperties:
    """Assemble the simulated kite; ballast closes neutral buoyancy."""
    return build_kite(record.planform, record.m_wing, record.fuselage,
                      record.m_fuse, rule=rule, flow=flow,
                      foil_coeffs=foil_coeffs, foil=foil)
