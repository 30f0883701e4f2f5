"""One structured text file drives every tool in the suite.

The file is YAML with one section per subsystem.  Each section is parsed
into the dataclass the runtime code takes, so the schema lives in one
place: the dataclass definitions.  A setting's default and unit live on
its dataclass field and its range in the one ``errors.check_fields`` call
of that dataclass's ``__post_init__``, nowhere else; every number must be
finite.  ``SuiteConfig()`` is the default configuration, and
``config_text(SuiteConfig())`` prints it as a complete file.  Sections are
read by ``catalog.build_record``, the reader the design catalog uses too.
Unknown sections or keys are rejected
rather than ignored; a silently misspelled key must never change a
published sweep.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

import yaml

from .catalog import build_record, parse_yaml, read_text
from .codesign import DesignContext, GAConfig, SearchGrid
from .design import ScalingRule
from .dynsim import BasisParams, FlightGains, SimParams, TetherProperties, WinchParams
from .effmap import EffSurface
from .errors import ConfigError
from .hydro import FlowEnv, FoilCoeffs
from .ilc import ILCConfig
from .wingstruct import Material


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


# section name -> the runtime dataclass it parses into, in file order
_SECTION_TYPES = {f.name: f.default_factory for f in fields(SuiteConfig)}


def _build_section(section: str, data: dict) -> Any:
    try:
        return build_record(_SECTION_TYPES[section], data)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} settings: {exc}") from exc


def parse_config(text: str) -> SuiteConfig:
    doc = parse_yaml(text, "config")
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
        kwargs[section] = _build_section(section, raw)
    return SuiteConfig(**kwargs)


def config_text(cfg: SuiteConfig) -> str:
    doc = {section: dataclasses.asdict(getattr(cfg, section))
           for section in _SECTION_TYPES}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_config(path: str) -> SuiteConfig:
    return parse_config(read_text(path, "config file"))


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
        raw = parse_yaml(raw_text, f"override value {raw_text!r}")
        # rebuild the whole section so the value is checked like a file's
        values = {**dataclasses.asdict(getattr(cfg, section)), key: raw}
        updated = _build_section(section, values)
        cfg = replace(cfg, **{section: updated})
    return cfg
