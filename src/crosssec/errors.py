"""Typed errors raised by the design, solver and analysis paths, and the
one check every numeric input goes through.

Input-validation problems raise plain ``ValueError``: every number that
enters a record, a public function or the CLI passes
:func:`check_number`, so a bool, a string, None, an integer beyond the
float range or a value of the wrong sign ends the same way wherever it
enters.  Everything that is a property of the geometry or of the
numerics raises one of the classes below, so the CLI can map them to its
infeasible/non-convergent exit code.
"""

import math
import numbers

_INF = math.inf


def check_number(value, name: str, kind: str = "real"):
    """``value`` as a float (an int for ``"integer"``), or ValueError.

    Any ``numbers.Real`` but a bool is a number, so NumPy scalars pass;
    None, strings, lists and integers beyond the float range do not.
    ``kind`` says what else must hold: ``"positive"`` or
    ``"non-negative"``, a finite value of that sign; ``"finite"``;
    ``"integer"``, an integral value, which may be a float (``1e6``);
    ``"real"``, nothing more.  Messages name the value as ``name``.
    """
    if type(value) is float:  # the common case, kept cheap
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name} is out of range") from None
    else:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind == "positive":
        if 0.0 < number < _INF:
            return number
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if kind == "non-negative":
        if 0.0 <= number < _INF:
            return number
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    if kind == "finite":
        if -_INF < number < _INF:
            return number
        raise ValueError(f"{name} must be finite, got {value!r}")
    if kind == "integer":
        if number.is_integer():
            return int(value)
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if kind == "real":
        return number
    raise ValueError(f"unknown kind of number {kind!r}")


class CrossSecError(Exception):
    """Base class for all crosssec-specific errors."""


class InfeasibleSpec(CrossSecError):
    """A design spec violates at least one feasibility condition.

    Attributes:
        violations: Names of the violated conditions, e.g. ``("w > H_s",)``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("infeasible spec: " + "; ".join(self.violations))


class SolverError(CrossSecError):
    """Base class for root-finder failures.

    Attributes:
        channel: ``"center"`` or ``"side"`` when the failure is attributable
            to one channel's solve, else ``None``.
    """

    def __init__(self, message, channel=None):
        self.channel = channel
        if channel is not None:
            message = f"{channel} channel: {message}"
        super().__init__(message)


class NoBracket(SolverError):
    """The channel's equation has no usable root for these lengths."""


class NonConvergence(SolverError):
    """The Newton solve was still moving after its fixed step cap."""


class DegeneratePolygon(CrossSecError):
    """Polygon unusable for area computation (non-positive or overflowing
    area, or self-intersecting boundary)."""


class OracleMismatch(CrossSecError):
    """The brute-force area maximum disagrees with the analytic root by
    more than one grid step.  Not a user error: a bug, or near 10**8 grid
    points float64 ties near the maximum, which can put the raw argmax
    just past one grid step from the root."""
