"""Config file parsing, overrides, and the bundled design catalog."""
import re
import textwrap
import warnings
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
import yaml

from hydrokite.catalog import (
    YAML_LOADER, DesignRecord, kite_from_record, load_designs, parse_yaml,
)
from hydrokite.codesign import SearchGrid
from hydrokite.config import (
    _SECTION_TYPES,
    SuiteConfig,
    apply_overrides,
    config_text,
    load_config,
    parse_config,
    save_config,
)
from hydrokite.dynsim import BasisParams, Simulator, TetherProperties
from hydrokite.dynsim.sim import quat_to_rot
from hydrokite.effmap import EffSurface
from hydrokite.errors import ConfigError, NotConverged
from hydrokite.ilc import ILCConfig, optimize_path


def test_serialize_parse_round_trip():
    cfg = SuiteConfig()
    assert parse_config(config_text(cfg)) == cfg

    edited = replace(
        cfg,
        tether=replace(cfg.tether, length=150.0),
        simulation=replace(cfg.simulation, max_time=60.0, trace_stride=2),
        ga=replace(cfg.ga, seed=9, polish=False),
    )
    assert parse_config(config_text(edited)) == edited
    assert edited != cfg


def test_empty_text_gives_defaults():
    assert parse_config("") == SuiteConfig()


def test_partial_file_fills_remaining_sections():
    cfg = parse_config("simulation:\n  dt: 0.004\n")
    assert cfg.simulation.dt == 0.004
    assert cfg.simulation.max_time == SuiteConfig().simulation.max_time
    assert cfg.flow == SuiteConfig().flow


def test_unknown_section_rejected():
    # bounds and run were sections once; files that still carry them fail
    for text in ("turbines:\n  count: 3\n",
                 "bounds:\n  span: [7.0, 10.0]\n",
                 "run:\n  jobs: 0\n"):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(text)


def test_unknown_key_lists_known_keys():
    # the aileron gain comes from the kite build, not the controller
    # section; the design search sizes the hull, not a scaling factor
    for text in ("simulation:\n  step: 0.01\n",
                 "controller:\n  aileron_gain: 1.5\n",
                 "scaling:\n  fuse_length_factor: 0.75\n"):
        with pytest.raises(ConfigError, match="known keys"):
            parse_config(text)


def test_root_and_section_shape_checks():
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config("- a\n- b\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_config("simulation: 3\n")


def test_value_type_mismatches_rejected():
    bad = [
        "simulation:\n  dt: fast\n",          # float key, string value
        "simulation:\n  trace_stride: 2.5\n",  # int key, float value
        "simulation:\n  trace_stride: true\n",  # int key, bool value
        "ga:\n  polish: 1\n",                 # bool key, int value
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_tether_length_rides_in_tether_section():
    cfg = parse_config("tether:\n  length: 140.0\n  radius: 0.06\n")
    assert cfg.tether.length == 140.0
    assert cfg.tether.radius == 0.06
    # the simulator takes the length from the line it is given
    props = kite_from_record(load_designs()["intermediate"])
    sim = Simulator(props, cfg.tether, BasisParams(), **cfg.sim_kwargs())
    y = sim.initial_state()
    attach = y[0:3] + quat_to_rot(y[3:7]) @ props.r_attach
    assert np.linalg.norm(attach) == pytest.approx(
        140.0 * (1.0 + cfg.simulation.pre_strain), rel=1e-12)
    assert y[-1] == 140.0


def test_tether_length_must_be_positive():
    for length in (0.0, -5.0):
        with pytest.raises(ValueError, match="length must be finite and positive"):
            TetherProperties(length=length)
    with pytest.raises(ConfigError, match="length must be finite and positive"):
        parse_config("tether:\n  length: -5.0\n")
    with pytest.raises(ConfigError, match="length must be finite and positive"):
        apply_overrides(SuiteConfig(), ["tether.length=0"])


@pytest.mark.parametrize("setting, value", [
    ("flow.speed", -1.5),
    ("material.density", -2700.0),
    ("scaling.hstab_area_fraction", 0.0),
    ("winch.spool_ratio", -1.0),
    ("simulation.max_time", -1.0),
    ("simulation.dt", ".inf"),
    ("tether.length", ".inf"),
    ("tether.damping_ratio", -1.0),
    ("tether.drag_coeff", -1.0),
    ("controller.aileron_limit", -0.25),
    ("grids.s_step", ".nan"),
])
def test_impossible_physical_settings_rejected(setting, value):
    section, key = setting.split(".")
    with pytest.raises(ConfigError, match=f"invalid {section} settings: "
                                          f"{key} must be finite"):
        parse_config(f"{section}:\n  {key}: {value}\n")


def test_physical_settings_must_be_finite():
    for item in ("flow.speed=.nan", "flow.density=.inf", "flow.density=0",
                 "material.youngs_modulus=0", "material.yield_stress=.nan",
                 "scaling.vstab_area_fraction=-0.15",
                 "winch.spool_ratio=.inf", "winch.elevator_out=-.inf",
                 "winch.elevator_in=.nan"):
        with pytest.raises(ConfigError, match="must be finite"):
            apply_overrides(SuiteConfig(), [item])
    # still water and a winch that holds the tether are legal
    cfg = apply_overrides(SuiteConfig(), ["flow.speed=0", "winch.spool_ratio=0"])
    assert cfg.flow.speed == 0.0 and cfg.winch.spool_ratio == 0.0


def numeric_keys(cls) -> list[tuple[str, str]]:
    """(name, type) of each int or float field of a record class."""
    return [(f.name, f.type) for f in fields(cls)
            if f.type.removeprefix("Optional[").rstrip("]") in ("int", "float")]


CONFIG_NUMBERS = [(section, key, ftype)
                  for section, cls in _SECTION_TYPES.items()
                  for key, ftype in numeric_keys(cls)]


@pytest.mark.parametrize("section, key, ftype", CONFIG_NUMBERS,
                         ids=[f"{s}.{k}" for s, k, _ in CONFIG_NUMBERS])
def test_every_numeric_setting_rejects_nonfinite_values(section, key, ftype):
    # no .nan or .inf is an int, so an int key's type check answers, in
    # the same shape as a float key's range check
    message = f"invalid {section} settings: {key} must be"
    for value in (".nan", ".inf", "-.inf"):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(f"{section}:\n  {key}: {value}\n")


TINY_RECORD = {"span": 7.5, "aspect_ratio": 5.0, "diameter": 0.5,
               "length": 7.0, "wall_pct": 1.0, "m_wing": 300.0,
               "m_fuse": 200.0, "ratio_mass": 500.0}


def tiny_catalog(**changes) -> str:
    """A catalog file holding the one design 'tiny'."""
    items = {**TINY_RECORD, **changes}
    return "tiny:\n" + "".join(f"  {k}: {v}\n" for k, v in items.items())


@pytest.mark.parametrize("key", [k for k, _ in numeric_keys(DesignRecord)])
def test_every_numeric_record_key_rejects_nonfinite_values(tmp_path, key):
    path = tmp_path / "cat.yaml"
    for value in (".nan", ".inf", "-.inf"):
        path.write_text(tiny_catalog(**{key: value}))
        with pytest.raises(ConfigError,
                           match=re.escape(f"design 'tiny': {key} must be")):
            load_designs(str(path))


def test_overrides_apply_and_coerce():
    cfg = SuiteConfig()
    out = apply_overrides(cfg, [
        "simulation.max_time=120",
        "ga.seed=7",
        "tether.length=150",
        "ga.polish=false",
    ])
    assert out.simulation.max_time == 120.0
    assert isinstance(out.simulation.max_time, float)
    assert out.ga.seed == 7
    assert out.tether.length == 150.0
    assert out.ga.polish is False
    # untouched sections shared, source config unchanged
    assert out.flow == cfg.flow
    assert cfg.ga.seed == SuiteConfig().ga.seed
    assert apply_overrides(cfg, []) == cfg


def test_override_rejections():
    cfg = SuiteConfig()
    bad = [
        "simulation.max_time",          # no value
        "max_time=10",                  # no section
        "a.b.c=1",                      # too deep
        "nosuch.key=1",
        "simulation.nosuch=1",
        "bounds.span=[7, 10]",
        "simulation.max_time=banana",
        "simulation.dt=0",              # rejected by SimParams itself
        "simulation.dt=-0.002",
        "simulation.trace_stride=0",
        "tether.radius=-1",             # rejected by the section's own check
        "ilc.learning_gain=-0.5",
        "foil.cd_zero=0.0",             # no drag floor: glide ratio unbounded
        "foil.e_drag=-1.0",
        "foil.k_visc=-0.01",
        "ga.elite=200",                 # no room left for children
        "ga.elite=0",                   # the GA reads its winner off the elite
        "ga.tournament=0",              # a tournament needs an entrant
        "ga.generations=-1",
        "ga.crossover_prob=1.5",        # a probability
        "ga.sbx_eta=-1.0",              # 1/(eta + 1) divides by zero
        "grids.s_step=0",               # each step divides an axis
        "grids.d_step=-0.02",
        "grids.l_step=0",
        "grids.ar_scan=0",              # no aspect-ratio interval to scan
        "grids.n_stations=1",           # one station has no chord to span
        "grids.power_tol=0",            # no design hits a power exactly
        "ilc.max_laps=0",               # the search returns its best lap
        "ilc.perturb_decay=0",          # divides the lap count
        "ilc.tol=-1",                   # a step norm is never negative
        "ilc.init_cov=0",               # the prior must be positive definite
        "ilc.k_w=-1",
        "ilc.warmup_laps=-1",
    ]
    for item in bad:
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [item])
    with pytest.raises(ConfigError, match=r"override value '\[1' is not valid YAML"):
        apply_overrides(cfg, ["flow.speed=[1"])
    with pytest.raises(ConfigError, match="dt must be finite and positive"):
        parse_config("simulation:\n  dt: 0.0\n")
    with pytest.raises(ConfigError, match="trace_stride must be at least 1"):
        parse_config("simulation:\n  trace_stride: 0\n")


def test_save_and_load_round_trip(tmp_path):
    cfg = apply_overrides(SuiteConfig(), ["grids.s_step=0.5"])
    path = tmp_path / "suite.yaml"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(str(tmp_path / "missing.yaml"))


def test_design_context_carries_grid_settings():
    cfg = apply_overrides(SuiteConfig(), [
        "grids.s_step=0.5", "grids.n_stations=300", "grids.ar_scan=16",
    ])
    ctx = cfg.design_context()
    assert ctx.grid.s_step == 0.5
    assert ctx.grid.n_stations == 300
    assert ctx.grid.ar_scan == 16
    assert ctx.flow == cfg.flow
    assert ctx.material == cfg.material

    flat = EffSurface(degree=0, coeffs=np.array([1.0]),
                      domain=(7.0, 10.0, 4.0, 12.0), residual_rms=0.0)
    assert cfg.design_context(surface=flat).surface is flat


def test_sections_are_the_runtime_classes():
    cfg = SuiteConfig()
    for section, cls in _SECTION_TYPES.items():
        assert type(getattr(cfg, section)) is cls
        assert cls.__module__ != "hydrokite.config"
    # the ilc section drives the path search as it is
    assert isinstance(cfg.ilc, ILCConfig)
    short = replace(cfg.ilc, warmup_laps=2, max_laps=4, tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConverged)
        out = optimize_path(None, None, short,
                            lap_fn=lambda b: (-float(b @ b), 1.0, 2.0))
    assert out.history.shape == (4, 8)
    # the grids section is the design search's grid object
    assert isinstance(cfg.grids, SearchGrid)
    assert cfg.design_context().grid is cfg.grids
    # nothing reads effmap grid settings yet, so the section is not in the
    # schema and a file that still has it fails
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("effmap:\n  degree: 2\n")


def test_sim_kwargs_cover_simulator_inputs():
    cfg = SuiteConfig()
    kw = cfg.sim_kwargs()
    assert set(kw) == {"gains", "winch", "flow", "params"}
    assert kw["gains"] is cfg.controller
    assert kw["params"] is cfg.simulation


# -- catalog ----------------------------------------------------------------


def test_bundled_catalog_contents():
    designs = load_designs()
    assert set(designs) == {
        "mass_driven", "intermediate", "power_driven", "baseline"}

    mid = designs["intermediate"]
    assert mid.span == 8.51
    assert mid.aspect_ratio == 6.0
    assert mid.m_wing == 628.7
    assert mid.m_fuse == 387.8
    assert mid.m_kite == pytest.approx(1016.5)
    assert mid.ratio_mass == pytest.approx(1016.5)
    assert mid.power_rated == pytest.approx(548300.0)
    assert mid.n_spars == 1

    for name in ("mass_driven", "intermediate", "power_driven"):
        rec = designs[name]
        assert rec.m_kite == pytest.approx(rec.ratio_mass)
        assert rec.n_spars is not None


def test_libyaml_and_python_loaders_agree():
    # parse_yaml uses libyaml's scanner when PyYAML has it
    assert YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    catalog = (resources.files("hydrokite") / "data" / "designs.yaml").read_text()
    for text in (catalog, config_text(SuiteConfig())):
        doc = yaml.load(text, Loader=yaml.SafeLoader)
        assert doc
        assert parse_yaml(text, "text") == doc


def test_baseline_record_is_legacy_shaped():
    base = load_designs()["baseline"]
    assert base.span == 10.0
    assert base.aspect_ratio == 12.0
    # never structurally sized, quoted against its as-flown mass
    assert base.n_spars is None
    assert base.spar_width_pct is None
    assert base.ratio_mass > base.m_kite
    assert base.note


def test_record_builds_a_neutral_kite():
    designs = load_designs()
    props = kite_from_record(designs["intermediate"])
    # ballast closes the gap between structure and displacement
    assert props.ballast > 0.0
    assert props.mass == pytest.approx(props.structural_mass + props.ballast)
    assert props.mass == pytest.approx(1000.0 * props.volume, rel=1e-9)
    assert props.structural_mass == pytest.approx(designs["intermediate"].m_kite)


def test_catalog_rejections(tmp_path):
    def load_text(text):
        p = tmp_path / "cat.yaml"
        p.write_text(textwrap.dedent(text))
        return load_designs(str(p))

    record = tiny_catalog()
    ok = load_text(record)
    assert isinstance(ok["tiny"], DesignRecord)
    assert ok["tiny"].power_rated is None

    with pytest.raises(ConfigError, match="^design 'tiny': unknown key color"):
        load_text("""
            tiny:
              span: 7.5
              aspect_ratio: 5.0
              diameter: 0.5
              length: 7.0
              wall_pct: 1.0
              m_wing: 300.0
              m_fuse: 200.0
              ratio_mass: 500.0
              color: red
        """)
    with pytest.raises(ConfigError, match="^design 'tiny': missing key aspect_ratio$"):
        load_text("tiny:\n  span: 7.5\n")
    with pytest.raises(ConfigError, match="must be a number"):
        load_text("""
            tiny:
              span: wide
              aspect_ratio: 5.0
              diameter: 0.5
              length: 7.0
              wall_pct: 1.0
              m_wing: 300.0
              m_fuse: 200.0
              ratio_mass: 500.0
        """)
    # the optional keys are checked like the required ones
    assert load_text(record + "  n_spars: 2\n")["tiny"].n_spars == 2
    for line, message in (("n_spars: 2.7", "n_spars must be an integer"),
                          ("n_spars: true", "n_spars must be an integer"),
                          ("n_spars: x", "n_spars must be an integer"),
                          ("shell_pct: true", "shell_pct must be a number"),
                          ("shell_pct: abc", "shell_pct must be a number"),
                          ("power_rated: [1]", "power_rated must be a number"),
                          ("note: null", "note must be a string"),
                          ("note: [1, 2]", "note must be a string"),
                          ("note: 3", "note must be a string"),
                          ("n_spars: 0", "n_spars must be at least 1"),
                          ("shell_pct: .nan", "shell_pct must be finite")):
        # one prefix, whether the type or the range check answers
        with pytest.raises(ConfigError, match=f"^design 'tiny': {message}"):
            load_text(record + f"  {line}\n")
    # dimensions and masses are checked when the catalog is read, not
    # first when a kite is built from the record
    for key, value in (("span", -7.5), ("m_wing", -300.0)):
        with pytest.raises(ConfigError,
                           match=f"design 'tiny': {key} must be finite"):
            load_text(record.replace(f"{key}: {-value}", f"{key}: {value}"))
    with pytest.raises(ConfigError, match="does not exist"):
        load_designs(str(tmp_path / "absent.yaml"))
    with pytest.raises(ConfigError, match="map names"):
        load_text("- one\n- two\n")
