"""Config file parsing, overrides, and the bundled design catalog."""
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hydrokite.catalog import DesignRecord, kite_from_record, load_designs
from hydrokite.codesign import SearchGrid
from hydrokite.config import (
    _SECTION_TYPES,
    SuiteConfig,
    apply_overrides,
    config_text,
    default_config,
    load_config,
    parse_config,
    save_config,
)
from hydrokite.dynsim import BasisParams, Simulator, TetherProperties
from hydrokite.dynsim.sim import quat_to_rot
from hydrokite.effmap import EffSurface
from hydrokite.errors import ConfigError, NotConverged
from hydrokite.ilc import ILCConfig, optimize_path


def test_packaged_defaults_match_builtin_defaults():
    # the shipped file must never drift from the dataclass defaults
    assert load_config() == default_config()


def test_serialize_parse_round_trip():
    cfg = default_config()
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
    assert parse_config("") == default_config()


def test_partial_file_fills_remaining_sections():
    cfg = parse_config("simulation:\n  dt: 0.004\n")
    assert cfg.simulation.dt == 0.004
    assert cfg.simulation.max_time == default_config().simulation.max_time
    assert cfg.flow == default_config().flow


def test_unknown_section_rejected():
    # bounds and run were sections once; files that still carry them fail
    for text in ("turbines:\n  count: 3\n",
                 "bounds:\n  span: [7.0, 10.0]\n",
                 "run:\n  jobs: 0\n"):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(text)


def test_unknown_key_lists_known_keys():
    # the aileron gain comes from the kite build, not the controller section
    for text in ("simulation:\n  step: 0.01\n",
                 "controller:\n  aileron_gain: 1.5\n"):
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
        with pytest.raises(ValueError, match="length must be positive"):
            TetherProperties(length=length)
    with pytest.raises(ConfigError, match="length must be positive"):
        parse_config("tether:\n  length: -5.0\n")
    with pytest.raises(ConfigError, match="length must be positive"):
        apply_overrides(default_config(), ["tether.length=0"])


def test_overrides_apply_and_coerce():
    cfg = default_config()
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
    assert cfg.ga.seed == default_config().ga.seed
    assert apply_overrides(cfg, []) == cfg


def test_override_rejections():
    cfg = default_config()
    bad = [
        "simulation.max_time",          # no value
        "max_time=10",                  # no section
        "a.b.c=1",                      # too deep
        "nosuch.key=1",
        "simulation.nosuch=1",
        "bounds.span=[7, 10]",
        "simulation.max_time=banana",
        "tether.radius=-1",             # rejected by the section's own check
        "ilc.learning_gain=-0.5",
        "foil.cd_zero=0.0",             # no drag floor: glide ratio unbounded
        "foil.e_drag=-1.0",
        "foil.k_visc=-0.01",
    ]
    for item in bad:
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [item])


def test_save_and_load_round_trip(tmp_path):
    cfg = apply_overrides(default_config(), ["grids.s_step=0.5"])
    path = tmp_path / "suite.yaml"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(str(tmp_path / "missing.yaml"))


def test_design_context_carries_grid_settings():
    cfg = apply_overrides(default_config(), [
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
    cfg = default_config()
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
    cfg = default_config()
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

    ok = load_text("""
        tiny:
          span: 7.5
          aspect_ratio: 5.0
          diameter: 0.5
          length: 7.0
          wall_pct: 1.0
          m_wing: 300.0
          m_fuse: 200.0
          ratio_mass: 500.0
    """)
    assert isinstance(ok["tiny"], DesignRecord)
    assert ok["tiny"].power_rated is None

    with pytest.raises(ConfigError, match="unknown key"):
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
    with pytest.raises(ConfigError, match="missing"):
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
    with pytest.raises(ConfigError, match="does not exist"):
        load_designs(str(tmp_path / "absent.yaml"))
    with pytest.raises(ConfigError, match="map names"):
        load_text("- one\n- two\n")
