"""Outside-in span tracing of the hydrokite layers for the benchmark.

Every traced function is replaced by a wrapper in each hydrokite module
that holds it, because several are imported by name into the module that
calls them (``tether_forces`` is looked up in ``dynsim.sim``,
``max_glide_cubed`` in ``hydro`` and ``wingstruct``, and so on).  Methods
are wrapped on their class.  Installing fails loudly when a listed lookup
site no longer holds the function, and checks afterwards that no loaded
module still holds an unwrapped copy.

Spans are ``(name, start, end, parent)`` tuples, ``name`` and ``parent``
being indexes into the name table and the span list.  They are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in this single-threaded program, so the children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

FLIGHT = ("flight",)
PARETO = ("pareto",)
DUAL = ("dual",)
DESIGN = ("pareto", "dual")


@dataclass(frozen=True)
class Layer:
    """One traced function: where it is defined, and which workloads call it."""

    name: str                 # span name, "<layer>.<fn>"
    module: str               # defining module
    attr: str                 # "function" or "Class.method"
    sites: tuple              # modules that look the function up by name
    workloads: tuple          # workloads that must call it at least once


LAYERS = (
    Layer("dynsim.sim.run", "hydrokite.dynsim.sim", "Simulator.run", (), FLIGHT),
    Layer("dynsim.sim.rk4_step", "hydrokite.dynsim.sim", "Simulator.rk4_step", (), FLIGHT),
    Layer("dynsim.sim.derivative", "hydrokite.dynsim.sim", "Simulator.derivative", (), FLIGHT),
    Layer("dynsim.sim.winch_tension", "hydrokite.dynsim.sim", "Simulator.winch_tension", (), FLIGHT),
    Layer("dynsim.tether.tether_forces", "hydrokite.dynsim.tether", "tether_forces",
          ("hydrokite.dynsim.sim",), FLIGHT),
    Layer("dynsim.kite.net_force_moment", "hydrokite.dynsim.kite", "net_force_moment",
          ("hydrokite.dynsim.sim",), FLIGHT),
    Layer("dynsim.control.update", "hydrokite.dynsim.control", "FlightController.update", (), FLIGHT),
    Layer("dynsim.control.winch_command", "hydrokite.dynsim.control", "winch_command",
          ("hydrokite.dynsim.sim",), FLIGHT),
    Layer("dynsim.paths.nearest_path_position", "hydrokite.dynsim.paths", "nearest_path_position",
          ("hydrokite.dynsim.sim",), FLIGHT),
    Layer("dynsim.paths.interior_angle", "hydrokite.dynsim.paths", "interior_angle",
          ("hydrokite.dynsim.sim",), FLIGHT),
    Layer("wingstruct.properties", "hydrokite.wingstruct", "SectionIntegrator.properties", (), DESIGN),
    Layer("wingstruct.swdt_optimize", "hydrokite.wingstruct", "swdt_optimize",
          ("hydrokite.codesign",), PARETO),
    Layer("wingstruct.rated_wing_load", "hydrokite.wingstruct", "rated_wing_load",
          ("hydrokite.codesign", "hydrokite.fusestruct"), DESIGN),
    Layer("hydro.max_glide_cubed", "hydrokite.hydro", "max_glide_cubed",
          ("hydrokite.hydro", "hydrokite.wingstruct"), DESIGN),
    Layer("hydro.loyd_power", "hydrokite.hydro", "loyd_power", ("hydrokite.codesign",), DESIGN),
    Layer("effmap.eval", "hydrokite.effmap", "EffSurface.eval", (), DESIGN),
    Layer("codesign.sft_enumerate", "hydrokite.codesign", "sft_enumerate",
          ("hydrokite.codesign",), PARETO),
    Layer("codesign.power_of", "hydrokite.codesign", "power_of", ("hydrokite.codesign",), DESIGN),
    Layer("fusestruct.sfdt_optimize", "hydrokite.fusestruct", "sfdt_optimize",
          ("hydrokite.codesign",), PARETO),
    Layer("codesign.evaluate_design", "hydrokite.codesign", "evaluate_design",
          ("hydrokite.codesign",), DUAL),
    Layer("codesign.design_margins", "hydrokite.codesign", "design_margins",
          ("hydrokite.codesign",), DUAL),
    Layer("codesign.fully_nested", "hydrokite.codesign", "fully_nested",
          ("hydrokite.codesign",), PARETO),
    Layer("codesign.simultaneous_ga", "hydrokite.codesign", "simultaneous_ga",
          ("hydrokite.codesign",), DUAL),
)

STATS = (("calls", "count", "lower"), ("p50_us", "us", "lower"),
         ("tail_us", "us", "lower"), ("self_s", "s", "lower"))

# ratios measured where the work happens: (metric, unit, better)
RATIOS = (("wingstruct.swdt_optimize.infeasible_frac", "frac", "lower"),
          ("fusestruct.sfdt_optimize.infeasible_frac", "frac", "lower"),
          ("hydro.max_glide_cubed.hit_frac", "frac", "higher"),
          ("codesign.design_margins.feasible_frac", "frac", "higher"))

# whole-run figures the traced run adds: (metric, unit, better)
RUN_FIGURES = (("trace.overhead_frac", "frac", "lower"),
               ("flight.sim_rate", "s/s", "higher"))

TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{layer.name}.{stat}", unit, better)
           for layer in LAYERS for stat, unit, better in STATS]
    return out + list(RATIOS) + list(RUN_FIGURES)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if round(n * (100.0 - pct) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return pct
    return None


def _resolve(owner, attr: str):
    """(holder, name) for "function" or "Class.method" under owner."""
    holder = owner
    *path, name = attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, name


class WrapMissed(RuntimeError):
    """A traced function was not where the layer table says it is."""


class Tracer:
    """Records spans around the LAYERS functions while installed."""

    def __init__(self):
        self.names = [layer.name for layer in LAYERS]
        self.spans: list = []
        self._stack = [-1]
        self.infeasible = [0] * len(LAYERS)
        self.feasible = 0
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._margins_ok = None
        self._infeasible_type = None
        self._cache_at_install = None

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        self._margins_ok = importlib.import_module("hydrokite.codesign").margins_ok
        self._infeasible_type = importlib.import_module("hydrokite.errors").Infeasible
        for index, layer in enumerate(LAYERS):
            module = importlib.import_module(layer.module)
            holder, name = _resolve(module, layer.attr)
            original = holder.__dict__.get(name)
            if original is None:
                raise WrapMissed(f"{layer.module}.{layer.attr} does not exist")
            self._originals[layer.name] = original
            traced = self._wrap(index, original)
            if isinstance(holder, type):
                self._swap(holder, name, traced)
                continue
            for site in layer.sites:
                site_module = importlib.import_module(site)
                if site_module.__dict__.get(name) is not original:
                    raise WrapMissed(
                        f"{site} no longer looks up {layer.module}.{name}")
            # every loaded hydrokite module holding the name gets the wrapper,
            # so a lookup site missing from the table is still traced
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "hydrokite" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, traced)
        self._check_no_stale()
        self._cache_at_install = self.original("hydro.max_glide_cubed").cache_info()

    def _check_no_stale(self) -> None:
        originals = {id(fn): name for name, fn in self._originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "hydrokite" or mod is None:
                continue
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise WrapMissed(
                        f"{mod_name}.{key} still holds unwrapped "
                        f"{originals[id(value)]}")

    def _swap(self, holder, name, value) -> None:
        self._restore.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def original(self, name: str):
        return self._originals[name]

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        infeasible, infeasible_type = self.infeasible, self._infeasible_type
        judge_margins = LAYERS[index].name == "codesign.design_margins"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except infeasible_type:
                infeasible[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if judge_margins and self._margins_ok(result):
                self.feasible += 1
            return result

        return traced

    # -- results -------------------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layer index, duration, parent) per span."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        return (arr[:, 0].astype(np.int64), arr[:, 2] - arr[:, 1],
                arr[:, 3].astype(np.int64))

    def _self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, dur, parent = self._columns()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> dict[str, float]:
        """calls, p50_us, tail_us and self_s per layer, plus the ratios.

        tail_us is the highest percentile of TAIL_LADDER with at least ten
        calls beyond it; with fewer than twenty calls it is the maximum.
        """
        out: dict[str, float] = {}
        n_layers = len(LAYERS)
        which, dur, _ = self._columns()
        self_time = self._self_times()
        calls = np.bincount(which, minlength=n_layers)
        self_sum = np.bincount(which, weights=self_time, minlength=n_layers)
        order = np.argsort(which, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(calls)])
        for i, layer in enumerate(LAYERS):
            d = dur[order[bounds[i]:bounds[i + 1]]] * 1e6
            pct = tail_percentile(len(d))
            out[f"{layer.name}.calls"] = int(calls[i])
            out[f"{layer.name}.p50_us"] = float(np.median(d)) if len(d) else 0.0
            out[f"{layer.name}.tail_us"] = (
                0.0 if not len(d) else
                float(np.max(d)) if pct is None else float(np.percentile(d, pct)))
            out[f"{layer.name}.self_s"] = float(self_sum[i])
        index = {layer.name: i for i, layer in enumerate(LAYERS)}

        def frac(num, den):
            return float(num) / den if den else 0.0

        for fn in ("wingstruct.swdt_optimize", "fusestruct.sfdt_optimize"):
            out[f"{fn}.infeasible_frac"] = frac(
                self.infeasible[index[fn]], calls[index[fn]])
        out["codesign.design_margins.feasible_frac"] = frac(
            self.feasible, calls[index["codesign.design_margins"]])
        before = self._cache_at_install
        info = self.original("hydro.max_glide_cubed").cache_info()
        hits, misses = info.hits - before.hits, info.misses - before.misses
        out["hydro.max_glide_cubed.hit_frac"] = frac(hits, hits + misses)
        return out

    def missing(self, workload: str) -> list[str]:
        """Layers mapped to the workload that saw no call."""
        seen = set(int(s[0]) for s in self.spans)
        return [layer.name for i, layer in enumerate(LAYERS)
                if workload in layer.workloads and i not in seen]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)
