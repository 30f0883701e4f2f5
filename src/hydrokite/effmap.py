"""Flight efficiency proxy eta(s, AR).

Closed-loop flight never extracts the full crosswind ideal; the ratio of
converged peak simulated power to the ideal at the same geometry defines a
flight efficiency.  This module samples that ratio over the wing design
box, fits a low-order polynomial surface to the samples, and serves the
surface as a cheap stand-in for the simulator inside design optimization.
``simulated_point`` flies the kite the design search sizes at a geometry.
The monomial basis, in any number of variables, also serves ``ilc``.

``codesign``, the flight simulator (``dynsim``) and the lap optimizer
(``ilc``) load only when a geometry is flown, so a design search that only
evaluates the surface never imports the last two.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib import resources
from itertools import combinations_with_replacement
from operator import add
from typing import Callable, Iterable

import numpy as np

from .design import ASPECT_RANGE, SPAN_RANGE
from .errors import (
    ConfigError, DomainWarning, EmptyLap, Infeasible, NumericBlowup,
    PathLost, RankDeficient, check_fields,
)
from .hydro import WingPlanform, loyd_power

ETA_FLOOR = 0.01
ETA_CAP = 1.0


@dataclass(frozen=True)
class EffSample:
    """One simulated geometry: the powers that define its efficiency."""

    span: float
    aspect_ratio: float
    power_peak: float    # converged peak from the lap optimizer, W
    power_ideal: float   # crosswind ideal at the same geometry, W

    def __post_init__(self):
        if self.power_ideal <= 0.0:
            raise ValueError("ideal power must be positive")
        if not 0.0 < self.eta <= ETA_CAP + 1e-12:
            raise ValueError(f"eta {self.eta:.4g} outside (0, {ETA_CAP:g}]")

    @property
    def eta(self) -> float:
        return self.power_peak / self.power_ideal


@lru_cache(maxsize=None)
def monomial_exponents(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Powers of n_vars variables up to degree, in graded-lex order: for
    (s, AR), 1, s, a, s2, sa, a2, ...; for the four path basis parameters
    at degree 2, the ILC's 15 quadratic features."""
    if n_vars < 1 or degree < 0:
        raise ValueError(f"need n_vars >= 1, degree >= 0; got {n_vars}, {degree}")
    return tuple(tuple(combo.count(v) for v in range(n_vars))
                 for g in range(degree + 1)
                 for combo in combinations_with_replacement(range(n_vars), g))


@lru_cache(maxsize=None)
def _monomial_plan(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Per monomial, where its factors x_v^e (e > 0) sit in the power
    table of ``monomials``; the constant's one factor is the table's 1.0."""
    return tuple(tuple(v * degree + e for v, e in enumerate(exps) if e) or (0,)
                 for exps in monomial_exponents(n_vars, degree))


def monomials(xs, degree: int) -> list:
    """The terms of monomial_exponents(len(xs), degree) at xs, floats or
    broadcasting arrays alike.  Powers are chains of products (s*s*s, not
    s**3), multiplied left to right, (s*s)*(a*a): NumPy's array power
    rounds cubes and up in its own kernel, unlike Python's float power, so
    products are what rounds the same for a float and for an array."""
    table = [1.0]    # then x^1 .. x^degree of each x in turn
    for x in xs:
        row = [x]
        while len(row) < degree:
            row.append(row[-1] * x)
        table += row[:degree]
    terms = []
    for factors in _monomial_plan(len(xs), degree):
        term = table[factors[0]]
        for i in factors[1:]:
            term = term * table[i]
        terms.append(term)
    return terms


def monomial_gradient(coeffs, xs, degree: int) -> np.ndarray:
    """Gradient over xs of coeffs @ monomials(xs, degree).  Each partial
    sums (power * coefficient) * (the monomial over its variable) in
    monomial order, starting at its first term."""
    exps = monomial_exponents(len(xs), degree)
    lowered = monomials(xs, max(degree - 1, 0))
    grad = []
    for v in range(len(xs)):
        slope = [e[v] * coeffs[k]
                 * lowered[exps.index(e[:v] + (e[v] - 1,) + e[v + 1:])]
                 for k, e in enumerate(exps) if e[v]]
        grad.append(reduce(add, slope) if slope else 0.0)
    return np.array(grad)


def design_matrix(spans, aspects, degree: int) -> np.ndarray:
    s = np.asarray(spans, dtype=float)
    a = np.asarray(aspects, dtype=float)
    return np.column_stack(
        [np.broadcast_to(term, s.shape) for term in monomials((s, a), degree)])


@dataclass
class EffSurface:
    """Polynomial efficiency map with its fitted domain and residual."""

    degree: int
    coeffs: np.ndarray
    domain: tuple[float, float, float, float]   # s_lo, s_hi, ar_lo, ar_hi
    residual_rms: float

    def __post_init__(self):
        # a NaN coefficient or bound would pass every clamp below quietly
        check_fields(self, nonnegative=("residual_rms",), at_least={"degree": 0})
        s_lo, s_hi, a_lo, a_hi = self.domain
        if not (-np.inf < s_lo < s_hi < np.inf
                and -np.inf < a_lo < a_hi < np.inf):
            raise ValueError(
                f"domain needs finite lo < hi pairs; got {self.domain!r}")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")

    def eval(self, span: float, aspect_ratio: float) -> float:
        """Clamped polynomial evaluation; out-of-domain queries warn."""
        s_lo, s_hi, a_lo, a_hi = self.domain
        s, a = float(span), float(aspect_ratio)
        if not (s_lo <= s <= s_hi and a_lo <= a <= a_hi):
            warnings.warn(
                f"({span:g}, {aspect_ratio:g}) outside the fitted box; "
                "evaluating at the clamped point", DomainWarning, stacklevel=2)
            s, a = (float(x) for x in self._into_box(s, a))
        val = float(np.dot(monomials((s, a), self.degree), self.coeffs))
        return min(max(val, ETA_FLOOR), ETA_CAP)

    def eval_array(self, span, aspect_ratio) -> np.ndarray:
        """``eval`` at every point of broadcasting span and aspect-ratio
        arrays, in one pass.

        Points clamp into the fitted box as in ``eval``, but one warning per
        call names how many were clamped.  The polynomial is one matrix
        product, whose sums can round differently from ``eval``'s dot
        product in the last bit.
        """
        s_in, a_in = np.broadcast_arrays(np.asarray(span, dtype=float),
                                         np.asarray(aspect_ratio, dtype=float))
        s, a = self._into_box(s_in, a_in)
        n_out = np.count_nonzero((s != s_in) | (a != a_in))
        if n_out:
            warnings.warn(
                f"{n_out} of {s.size} points outside the fitted box; "
                "evaluating at the clamped points", DomainWarning, stacklevel=2)
        val = design_matrix(s.ravel(), a.ravel(), self.degree) @ self.coeffs
        return np.clip(val, ETA_FLOOR, ETA_CAP).reshape(s.shape)

    def _into_box(self, span, aspect_ratio):
        """(span, aspect ratio) clamped into the fitted domain."""
        s_lo, s_hi, a_lo, a_hi = self.domain
        return np.clip(span, s_lo, s_hi), np.clip(aspect_ratio, a_lo, a_hi)


def fit_surface(samples: Iterable[EffSample], degree: int = 2) -> EffSurface:
    """Least-squares polynomial fit of eta over (s, AR)."""
    samples = list(samples)
    n_terms = len(monomial_exponents(2, degree))
    if len(samples) < n_terms:
        raise RankDeficient(
            f"{len(samples)} samples cannot determine {n_terms} terms")
    spans = [p.span for p in samples]
    aspects = [p.aspect_ratio for p in samples]
    domain = (min(spans), max(spans), min(aspects), max(aspects))
    if domain[0] == domain[1] or domain[2] == domain[3]:
        raise RankDeficient("samples share one span or one aspect ratio")
    etas = np.array([p.eta for p in samples])
    matrix = design_matrix(spans, aspects, degree)
    coeffs, _, rank, _ = np.linalg.lstsq(matrix, etas, rcond=None)
    if rank < n_terms:
        raise RankDeficient(
            f"design matrix rank {rank} below term count {n_terms}")
    resid = matrix @ coeffs - etas
    return EffSurface(
        degree=degree,
        coeffs=coeffs,
        domain=domain,
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
    )


# -- persistence ------------------------------------------------------------

def surface_text(surface: EffSurface) -> str:
    lines = [
        "# flight efficiency surface eta(s, AR)",
        "# coefficients in graded-lex monomial order: 1, s, AR, s^2, s*AR, AR^2, ...",
        f"degree {surface.degree}",
        "domain " + " ".join(f"{x:.17g}" for x in surface.domain),
        f"residual_rms {surface.residual_rms:.17g}",
    ]
    lines += [f"coeff {c:.17g}" for c in surface.coeffs]
    return "\n".join(lines) + "\n"


def save_surface(surface: EffSurface, path) -> None:
    with open(path, "w") as handle:
        handle.write(surface_text(surface))


def parse_surface(text: str) -> EffSurface:
    fields = {}
    coeffs = []
    try:
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *vals = line.split()
            if key == "coeff":
                coeffs.append(float(vals[0]))
            elif key in ("degree", "domain", "residual_rms"):
                fields[key] = vals
            else:
                raise ConfigError(f"unknown efficiency surface key {key!r}")
        degree = int(fields["degree"][0])
        domain = tuple(float(x) for x in fields["domain"])
        surface = EffSurface(
            degree=degree,
            coeffs=np.array(coeffs),
            domain=domain,
            residual_rms=float(fields["residual_rms"][0]),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed efficiency surface document: {exc}")
    if len(coeffs) != len(monomial_exponents(2, degree)):
        raise ConfigError(
            f"degree {degree} needs {len(monomial_exponents(2, degree))} "
            f"coefficients, document has {len(coeffs)}")
    return surface


def load_surface(path) -> EffSurface:
    with open(path) as handle:
        return parse_surface(handle.read())


def default_surface() -> EffSurface:
    """The surface bundled with the package (a synthetic smooth basin)."""
    text = resources.files("hydrokite").joinpath(
        "data/eta_surface.txt").read_text()
    return parse_surface(text)


SAMPLES_HEADER = "s\tAR\teta\tP_star\tP_ideal"


def samples_text(samples: Iterable[EffSample]) -> str:
    lines = [SAMPLES_HEADER]
    for p in samples:
        lines.append("\t".join(f"{x:.17g}" for x in
                               (p.span, p.aspect_ratio, p.eta,
                                p.power_peak, p.power_ideal)))
    return "\n".join(lines) + "\n"


def save_samples(samples: Iterable[EffSample], path) -> None:
    with open(path, "w") as handle:
        handle.write(samples_text(samples))


def load_samples(path) -> list[EffSample]:
    """Samples from a file written by ``save_samples``: its first line is
    the header and its eta column must equal P_star / P_ideal."""
    samples = []
    with open(path) as handle:
        lines = handle.read().splitlines()
        if not lines or lines[0] != SAMPLES_HEADER:
            raise ConfigError(
                f"{path} line 1: expected the header {SAMPLES_HEADER!r}, "
                f"got {lines[0] if lines else ''!r}")
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                s, ar, eta, p_star, p_ideal = (float(x) for x in line.split("\t"))
                sample = EffSample(s, ar, p_star, p_ideal)
            except ValueError as exc:
                raise ConfigError(f"{path} line {number}: {exc}") from exc
            if abs(eta - sample.eta) > 1e-9 * max(1.0, abs(sample.eta)):
                raise ConfigError(
                    f"{path} line {number}: eta {eta!r} at ({s:g}, {ar:g}) "
                    f"is not P_star / P_ideal = {sample.eta!r}")
            samples.append(sample)
    return samples


# -- sample generation ------------------------------------------------------

def generate_samples(
    grid: Iterable[tuple[float, float]],
    point_fn: Callable[[float, float], tuple[float, float]],
) -> list[EffSample]:
    """Score a grid of wing geometries: point_fn(s, AR) -> (P_star, P_ideal).

    ``partial(simulated_point, ctx=..., ilc_cfg=..., **sim_kwargs)`` flies
    each geometry; a stub stands in for tests.  Points whose flight
    diverges or whose structure is infeasible are skipped with a warning.
    """
    samples = []
    for span, aspect in grid:
        if not (SPAN_RANGE[0] <= span <= SPAN_RANGE[1]
                and ASPECT_RANGE[0] <= aspect <= ASPECT_RANGE[1]):
            raise ConfigError(
                f"grid point ({span:g}, {aspect:g}) outside the design box")
        try:
            p_star, p_ideal = point_fn(span, aspect)
            samples.append(EffSample(span, aspect, p_star, p_ideal))
        except (NumericBlowup, PathLost, EmptyLap, Infeasible) as exc:
            warnings.warn(
                f"skipping geometry ({span:g}, {aspect:g}): {exc}",
                stacklevel=2)
    return samples


def simulated_point(span, aspect, ctx=None, ilc_cfg=None, tether=None,
                    **sim_kwargs) -> tuple[float, float]:
    """(P_star, P_ideal) of ``codesign.size_structure``'s kite under ``ctx``
    (default ``DesignContext()``), path-optimized by ``optimize_path`` with
    ``Simulator`` keywords; a ``flow`` keyword must equal ``ctx.flow``."""
    from .codesign import DesignContext, size_structure
    from .dynsim import TetherProperties, build_kite
    from .ilc import ILCConfig, SimLapEvaluator, optimize_path

    ctx = ctx or DesignContext()
    ilc_cfg = ilc_cfg or ILCConfig()
    if sim_kwargs.setdefault("flow", ctx.flow) != ctx.flow:
        raise ConfigError("flow differs from ctx.flow, which sizes the kite")
    planform = WingPlanform(span, aspect)
    wing, hull = size_structure(planform, ctx)
    props = build_kite(planform, wing.mass, hull.design, hull.mass,
                       ctx.rule, ctx.flow, ctx.foil_coeffs, ctx.foil)
    lap_fn = SimLapEvaluator(props, tether or TetherProperties(),
                             ilc_cfg.k_w, **sim_kwargs)
    optimum = optimize_path(lap_fn, ilc_cfg)
    return optimum.power_peak, loyd_power(planform, ctx.flow, foil=ctx.foil_coeffs)
