"""One structured text file drives every tool in the suite.

The file is YAML with one section per subsystem.  Section keys mirror the
parameter dataclasses exactly, so the schema lives in one place: the
dataclass definitions.  Unknown sections or keys are rejected rather than
ignored; a silently misspelled key must never change a published sweep.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .codesign import DesignContext, GAConfig
from .design import ScalingRule
from .dynsim import BasisParams, FlightGains, SimParams, TetherProperties, WinchParams
from .effmap import EffSurface
from .errors import ConfigError
from .hydro import FlowEnv, FoilCoeffs
from .ilc import DEFAULT_BOX, ILCConfig
from .wingstruct import Material


@dataclass(frozen=True)
class IlcSettings:
    """Scalar knobs for the lap-to-lap path search; expands to ILCConfig."""

    learning_gain: float = 1e-7   # isotropic gain on the surrogate gradient
    k_w: float = 8.0e3            # W per rad of lap-mean interior angle
    perturb_amplitude: float = 0.02
    perturb_decay: float = 30.0
    seed: int = 0
    warmup_laps: int = 20
    max_laps: int = 200
    tol: float = 1e-3
    init_cov: float = 1e8

    def to_ilc_config(self) -> ILCConfig:
        return ILCConfig(
            learning_gain=self.learning_gain * np.eye(4),
            k_w=self.k_w,
            perturb_amplitude=self.perturb_amplitude,
            perturb_decay=self.perturb_decay,
            seed=self.seed,
            warmup_laps=self.warmup_laps,
            max_laps=self.max_laps,
            tol=self.tol,
            box=DEFAULT_BOX,
            init_cov=self.init_cov,
        )


@dataclass(frozen=True)
class GridSettings:
    """Search resolutions shared by the design-space tools."""

    s_step: float = 0.05
    d_step: float = 0.02
    l_step: float = 0.2
    ar_scan: int = 64
    n_stations: int = 2000
    power_tol: float = 1e-3


@dataclass(frozen=True)
class EffmapSettings:
    degree: int = 2
    span_points: int = 3
    aspect_points: int = 3


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
    "ilc": IlcSettings,
    "ga": GAConfig,
    "grids": GridSettings,
    "effmap": EffmapSettings,
}

# tether length lives with the tether section but parameterizes the
# simulator, not the line model, so it is carried separately
_TETHER_LENGTH_KEY = "length"


@dataclass(frozen=True)
class SuiteConfig:
    flow: FlowEnv = field(default_factory=FlowEnv)
    foil: FoilCoeffs = field(default_factory=FoilCoeffs)
    material: Material = field(default_factory=Material)
    tether: TetherProperties = field(default_factory=TetherProperties)
    tether_length: float = 125.0
    scaling: ScalingRule = field(default_factory=ScalingRule)
    simulation: SimParams = field(default_factory=SimParams)
    controller: FlightGains = field(default_factory=FlightGains)
    winch: WinchParams = field(default_factory=WinchParams)
    path: BasisParams = field(default_factory=BasisParams)
    ilc: IlcSettings = field(default_factory=IlcSettings)
    ga: GAConfig = field(default_factory=GAConfig)
    grids: GridSettings = field(default_factory=GridSettings)
    effmap: EffmapSettings = field(default_factory=EffmapSettings)

    def design_context(self, surface: Optional[EffSurface] = None) -> DesignContext:
        kwargs = dict(
            flow=self.flow, foil_coeffs=self.foil, material=self.material,
            rule=self.scaling, s_step=self.grids.s_step,
            d_step=self.grids.d_step, l_step=self.grids.l_step,
            ar_scan=self.grids.ar_scan, n_stations=self.grids.n_stations,
            power_tol=self.grids.power_tol,
        )
        if surface is not None:
            kwargs["surface"] = surface
        return DesignContext(**kwargs)

    def sim_kwargs(self) -> dict:
        return dict(gains=self.controller, winch=self.winch, flow=self.flow,
                    params=self.simulation, tether_length=self.tether_length)


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
        if section == "tether":
            raw = dict(raw)
            if _TETHER_LENGTH_KEY in raw:
                kwargs["tether_length"] = _coerce(
                    "tether", _TETHER_LENGTH_KEY, float,
                    raw.pop(_TETHER_LENGTH_KEY))
        kwargs[section] = _build_section(section, _SECTION_TYPES[section], raw)
    return SuiteConfig(**kwargs)


def config_text(cfg: SuiteConfig) -> str:
    doc: dict = {}
    for section, cls in _SECTION_TYPES.items():
        values = dataclasses.asdict(getattr(cfg, section))
        if section == "tether":
            values = {_TETHER_LENGTH_KEY: cfg.tether_length, **values}
        doc[section] = values
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
        if section == "tether" and key == _TETHER_LENGTH_KEY:
            value = _coerce("tether", key, float, yaml.safe_load(raw_text))
            cfg = replace(cfg, tether_length=value)
            continue
        cls = _SECTION_TYPES[section]
        known = {f.name: f.type for f in fields(cls)}
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key}")
        try:
            raw = yaml.safe_load(raw_text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse value {raw_text!r}") from exc
        value = _coerce(section, key, known[key], raw)
        updated = replace(getattr(cfg, section), **{key: value})
        cfg = replace(cfg, **{section: updated})
    return cfg
