"""Exception and warning types shared across the package, and the one
field-range check, ``check_fields``, that every settings section and
catalog record runs when it is built."""

import math
from dataclasses import fields


class HydrokiteError(Exception):
    """Base class for all package errors."""


class ConfigError(HydrokiteError):
    """Configuration file or override is malformed, incomplete, or has unknown keys."""


class DegenerateRange(HydrokiteError):
    """An angle-of-attack search range produced no positive lift to optimize."""


class GeometryError(HydrokiteError):
    """A structural cross-section is geometrically self-intersecting or impossible."""


class ThinWallViolation(HydrokiteError):
    """Wall thickness too large for thin-wall section formulas to apply."""


class Infeasible(HydrokiteError):
    """No design within the stated bounds satisfies the constraints.

    Carries an optional ``detail`` dict describing the violated constraint(s).
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


class EmptySet(HydrokiteError):
    """A requested power level is unreachable anywhere in the design box."""


class RankDeficient(HydrokiteError):
    """Least-squares surface fit has too few independent samples for the degree."""


class NumericBlowup(HydrokiteError):
    """Simulation state left the trusted numeric envelope (NaN or runaway norm)."""


class PathLost(HydrokiteError):
    """Kite strayed beyond the allowed interior angle from the reference path."""


class EmptyLap(HydrokiteError):
    """Fewer laps closed than asked before ``Simulator.run``'s ``max_time``."""


class NoFeasibleIndividual(HydrokiteError):
    """Genetic search finished without a single constraint-satisfying member."""


class NotPositiveDefinite(HydrokiteError):
    """A mass or covariance matrix lost positive definiteness."""


class DomainWarning(UserWarning):
    """Surrogate surface evaluated outside its fitted domain box."""


class NotConverged(UserWarning):
    """Iterative search hit its lap budget; best-so-far result is still returned."""


def check_fields(obj, positive=(), nonnegative=(), at_least={}):
    """Raise ``ValueError`` for the first field of dataclass ``obj`` out of
    range: every ``int`` or ``float`` value (not ``bool``) must be finite,
    those named in ``positive`` > 0, those in ``nonnegative`` >= 0, and
    each ``name: least`` pair of ``at_least`` must hold."""
    for f in fields(obj):
        name = f.name
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name in positive:
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive; got {value!r}")
        elif name in nonnegative:
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and at least 0; got {value!r}")
        elif not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite; got {value!r}")
        if name in at_least and value < at_least[name]:
            raise ValueError(
                f"{name} must be at least {at_least[name]}; got {value!r}")
