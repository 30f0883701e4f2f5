"""The benchmark's layer table still matches the package.

``bench/tracing.py`` wraps each traced function in every module that looks
it up by name, and installing fails when a listed function or lookup site
is gone.  Installing it here makes a rename or a dropped import fail the
package's own test run, not only ``bench/run.py --trace 1``.
"""
import importlib.util
import sys
from pathlib import Path

from hydrokite import codesign, wingstruct
from hydrokite.catalog import kite_from_record, load_designs
from hydrokite.dynsim import BasisParams, SimParams, Simulator, TetherProperties, sim
from hydrokite.hydro import FlowEnv, FoilCoeffs, WingPlanform

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_layer():
    tracing = load_tracing()
    original = codesign.evaluate_design
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert codesign.evaluate_design.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert codesign.evaluate_design is original


def test_tracer_counts_memo_hits_as_calls():
    tracing = load_tracing()
    integ = wingstruct.SectionIntegrator(wingstruct.FourDigitFoil(), 400)
    design = wingstruct.WingStructureDesign(2, 4.0, 3.0)
    basis = BasisParams()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _ in range(2):
            integ.properties(design)
            # looked up where the flight step looks it up
            sim.nearest_path_position(basis, (100.0, 20.0, 60.0), 1.2)
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    assert calls["wingstruct.properties.calls"] == 2
    assert calls["dynsim.paths.nearest_path_position.calls"] == 2


class CountingIntegrator(wingstruct.SectionIntegrator):
    """Counts the sections it integrates."""

    def __init__(self, *args):
        super().__init__(*args)
        self.integrations = 0

    def properties(self, design, cells=None):
        self.integrations += 1
        return super().properties(design, cells)


def test_tracer_sees_every_section_the_sizing_search_integrates(monkeypatch):
    # ``bench/run.py`` fails a run whose traced layers saw no call, so the
    # sizing search must integrate through the traced method
    tracing = load_tracing()
    foil = wingstruct.FourDigitFoil()
    integ = CountingIntegrator(foil, 2000)
    monkeypatch.setitem(wingstruct._DEFAULT_INTEGRATOR, (foil, 2000), integ)
    planform = WingPlanform(span=8.51, aspect_ratio=6.0)
    load = wingstruct.rated_wing_load(planform, FlowEnv(), FoilCoeffs())
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wingstruct.swdt_optimize(planform, load)
    finally:
        tracer.uninstall()
    assert integ.integrations > 100
    assert tracer.summary()["wingstruct.properties.calls"] == integ.integrations


def test_traced_flight_passes_through_every_flight_layer():
    # the flight step must reach each traced layer through the name the
    # tracer wraps, as often per step as the per-layer figures assume
    tracing = load_tracing()
    props = kite_from_record(load_designs()["intermediate"])
    y0 = Simulator(props, TetherProperties(), BasisParams(),
                   params=SimParams(init_path_pos=2.0)).initial_state()
    flight = Simulator(props, TetherProperties(), BasisParams(),
                       params=SimParams(init_path_pos=2.05))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        flight.run(1, y0=y0, p_start=2.0)
    finally:
        tracer.uninstall()
    assert tracer.missing("flight") == []
    calls = tracer.summary()
    steps = calls["dynsim.sim.rk4_step.calls"]
    assert steps > 100
    assert calls["dynsim.sim.run.calls"] == 1
    for layer in ("dynsim.sim.winch_tension", "dynsim.control.update",
                  "dynsim.paths.nearest_path_position"):
        assert calls[f"{layer}.calls"] == steps, layer
    for layer in ("dynsim.sim.derivative", "dynsim.tether.tether_forces",
                  "dynsim.kite.net_force_moment"):
        assert calls[f"{layer}.calls"] == 4 * steps, layer
