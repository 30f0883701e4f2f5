"""One structured text file drives every tool in the suite.

The file is YAML with one section per subsystem.  Each section is parsed
into the dataclass the runtime code takes, so the schema lives in one
place: the dataclass definitions.  Unknown sections or keys are rejected
rather than ignored; a silently misspelled key must never change a
published sweep.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .codesign import DesignContext, GAConfig, SearchGrid
from .design import ScalingRule
from .dynsim import BasisParams, FlightGains, SimParams, TetherProperties, WinchParams
from .effmap import EffSurface
from .errors import ConfigError
from .hydro import FlowEnv, FoilCoeffs
from .ilc import ILCConfig
from .wingstruct import Material


_SECTION_TYPES = {
    "flow": FlowEnv,
    "foil": FoilCoeffs,
    "material": Material,
    "tether": TetherProperties,
    "scaling": ScalingRule,
    "simulation": SimParams,
    "controller": FlightGains,
    "winch": WinchParams,
    "path": BasisParams,
    "ilc": ILCConfig,
    "ga": GAConfig,
    "grids": SearchGrid,
}


@dataclass(frozen=True)
class SuiteConfig:
    flow: FlowEnv = field(default_factory=FlowEnv)
    foil: FoilCoeffs = field(default_factory=FoilCoeffs)
    material: Material = field(default_factory=Material)
    tether: TetherProperties = field(default_factory=TetherProperties)
    scaling: ScalingRule = field(default_factory=ScalingRule)
    simulation: SimParams = field(default_factory=SimParams)
    controller: FlightGains = field(default_factory=FlightGains)
    winch: WinchParams = field(default_factory=WinchParams)
    path: BasisParams = field(default_factory=BasisParams)
    ilc: ILCConfig = field(default_factory=ILCConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    grids: SearchGrid = field(default_factory=SearchGrid)

    def design_context(self, surface: Optional[EffSurface] = None) -> DesignContext:
        kwargs = dict(flow=self.flow, foil_coeffs=self.foil,
                      material=self.material, rule=self.scaling,
                      grid=self.grids)
        if surface is not None:
            kwargs["surface"] = surface
        return DesignContext(**kwargs)

    def sim_kwargs(self) -> dict:
        return dict(gains=self.controller, winch=self.winch, flow=self.flow,
                    params=self.simulation)


def default_config() -> SuiteConfig:
    return SuiteConfig()


def _coerce(section: str, name: str, ftype: Any, raw: Any) -> Any:
    where = f"{section}.{name}"
    if ftype is bool or ftype == "bool":
        if not isinstance(raw, bool):
            raise ConfigError(f"{where} must be true or false")
        return raw
    if ftype is int or ftype == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{where} must be an integer")
        return raw
    if ftype is float or ftype == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{where} must be a number")
        return float(raw)
    raise ConfigError(f"{where} has unsupported type {ftype!r}")


def _build_section(section: str, cls: type, data: dict) -> Any:
    known = {f.name: f.type for f in fields(cls)}
    bad = set(data) - set(known)
    if bad:
        raise ConfigError(
            f"unknown key {section}.{sorted(bad)[0]}; "
            f"known keys: {', '.join(sorted(known))}")
    kwargs = {name: _coerce(section, name, known[name], raw)
              for name, raw in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} settings: {exc}") from exc


def parse_config(text: str) -> SuiteConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping of sections")

    bad = set(doc) - set(_SECTION_TYPES)
    if bad:
        raise ConfigError(
            f"unknown section {sorted(bad)[0]!r}; "
            f"known sections: {', '.join(sorted(_SECTION_TYPES))}")

    kwargs: dict = {}
    for section, raw in doc.items():
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        kwargs[section] = _build_section(section, _SECTION_TYPES[section], raw)
    return SuiteConfig(**kwargs)


def config_text(cfg: SuiteConfig) -> str:
    doc = {section: dataclasses.asdict(getattr(cfg, section))
           for section in _SECTION_TYPES}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_config(path: Optional[str] = None) -> SuiteConfig:
    """Read a config file; with no path, the packaged defaults file."""
    if path is None:
        text = (resources.files("hydrokite") / "data" / "defaults.yaml").read_text()
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path!r} does not exist")
        text = p.read_text()
    return parse_config(text)


def save_config(cfg: SuiteConfig, path: str) -> None:
    Path(path).write_text(config_text(cfg))


def apply_overrides(cfg: SuiteConfig, overrides: list[str]) -> SuiteConfig:
    """Apply ``section.key=value`` strings on top of a parsed config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        dotted, _, raw_text = item.partition("=")
        parts = dotted.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"override target {dotted!r} must be section.key")
        section, key = parts
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown section {section!r}")
        try:
            raw = yaml.safe_load(raw_text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse value {raw_text!r}") from exc
        # rebuild the whole section so the value is checked like a file's
        values = {**dataclasses.asdict(getattr(cfg, section)), key: raw}
        updated = _build_section(section, _SECTION_TYPES[section], values)
        cfg = replace(cfg, **{section: updated})
    return cfg
