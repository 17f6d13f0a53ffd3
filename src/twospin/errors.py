"""Exception hierarchy shared by all modules, and the one float-range rule.

The CLI maps these onto exit codes (domain -> 2, numeric -> 2, capacity -> 3),
so library code should raise the most specific class that applies instead of
bare ValueError/RuntimeError.

The float-range rule: a float result beyond the float range is a NumericError
naming the quantity.  In IEEE 754 a float ``*`` or ``/`` overflows to inf
silently, while ``**``, ``math.exp`` and ``float()`` raise OverflowError;
`in_float_range`, which every float computation that can leave the range goes
through, turns both into that NumericError.
"""

import math


class DomainError(ValueError):
    """Inputs violate a documented precondition (bad parameters, bad graph)."""


class CapacityError(RuntimeError):
    """Requested computation exceeds a configured enumeration/size limit."""


class NumericError(RuntimeError):
    """A solver failed to converge or to find a feasible value, or a float left its range.

    Under the documented preconditions this should not happen, so it usually
    signals that the caller's parameters violate an assumption that is not
    cheaply checkable up front.
    """


class InvariantViolation(RuntimeError):
    """An internal loop invariant failed; the computation never silently continues."""


def in_float_range(what: str, compute, *args):
    """compute(*args), where an OverflowError or ZeroDivisionError, or a float
    result that is inf or nan, is NumericError("{what} overflows a float").
    An exact result (int, Fraction, Quad) is returned unchanged."""
    try:
        value = compute(*args)
        if not isinstance(value, float) or math.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericError(f"{what} overflows a float")
