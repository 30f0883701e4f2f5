"""Bundled reference kite designs for simulation and comparison.

Records are data, not derivations: masses and thicknesses are carried as
sized by the program that produced each design.  The structural audit in
this package applies its own load case and may disagree with a record;
that disagreement is reported, not hidden.

The typed reader that builds a record from YAML, ``build_record``, also
reads every section of the suite's config file.  It lives here because the
config schema imports the whole design search, which loading a catalog
kite to fly it must not pay for.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .design import ScalingRule
from .dynsim.kite import KiteProperties, build_kite
from .errors import ConfigError, check_fields
from .fusestruct import FuselageDesign
from .hydro import FlowEnv, FoilCoeffs, WingPlanform
from .wingstruct import FourDigitFoil


def read_text(path: str, what: str) -> str:
    """The text of a file the user named; ``what`` names it in errors."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} {path!r} does not exist")
    return p.read_text()


# libyaml's scanner and parser when PyYAML was built with them; the
# resolver and constructor are the same Python classes either way
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_yaml(text: str, what: str) -> Any:
    """The one YAML entry point; ``what`` names the text in errors."""
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} is not valid YAML: {exc}") from exc


def _coerce(name: str, ftype: str, raw: Any) -> Any:
    # the records are defined under postponed annotations, so fields()
    # gives each type as its source string
    if ftype.startswith("Optional["):
        if raw is None:
            return None
        ftype = ftype[len("Optional["):-1]
    if ftype == "str":
        if not isinstance(raw, str):
            raise ValueError(f"{name} must be a string")
        return raw
    if ftype == "bool":
        if not isinstance(raw, bool):
            raise ValueError(f"{name} must be true or false")
        return raw
    if ftype == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ValueError(f"{name} must be an integer")
        return raw
    if ftype == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"{name} must be a number")
        return float(raw)
    raise ValueError(f"{name} has unsupported type {ftype!r}")


def build_record(cls: type, data: dict) -> Any:
    """Dataclass ``cls`` from a mapping read out of a YAML file.

    Each value is checked against its field's type, and unknown or missing
    keys are rejected: a misspelled key must never change a result.  Each
    rejection, like ``cls``'s own checks, is a ``ValueError`` naming the key.
    """
    known = {f.name: f for f in fields(cls)}
    bad = set(data) - set(known)
    if bad:
        raise ValueError(
            f"unknown key {sorted(bad)[0]}; "
            f"known keys: {', '.join(sorted(known))}")
    missing = [name for name, f in known.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing key {missing[0]}")
    return cls(**{name: _coerce(name, known[name].type, raw)
                  for name, raw in data.items()})


@dataclass(frozen=True)
class DesignRecord:
    """One catalog entry; structure fields are None when never sized."""

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

    def __post_init__(self):
        check_fields(self, positive=(
            "span", "aspect_ratio", "diameter", "length", "wall_pct",
            "m_wing", "m_fuse", "ratio_mass", "spar_width_pct", "shell_pct",
            "power_rated"), at_least={"n_spars": 1})

    @property
    def m_kite(self) -> float:
        return self.m_wing + self.m_fuse

    @property
    def planform(self) -> WingPlanform:
        return WingPlanform(self.span, self.aspect_ratio)

    @property
    def fuselage(self) -> FuselageDesign:
        return FuselageDesign(self.diameter, self.length, self.wall_pct)


def load_designs(path: Optional[str] = None) -> dict[str, DesignRecord]:
    """Catalog from a YAML file; with no path, the bundled catalog."""
    if path is None:
        text = (resources.files("hydrokite") / "data" / "designs.yaml").read_text()
    else:
        text = read_text(path, "design catalog")
    doc = parse_yaml(text, "design catalog")
    if not isinstance(doc, dict):
        raise ConfigError("design catalog must map names to records")
    designs = {}
    for name, data in doc.items():
        if not isinstance(data, dict):
            raise ConfigError(f"design {name!r} must be a mapping")
        try:
            designs[name] = build_record(DesignRecord, data)
        except ValueError as exc:
            raise ConfigError(f"design {name!r}: {exc}") from exc
    return designs


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
