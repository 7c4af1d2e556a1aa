"""Exception types shared across the package; exit_code is the CLI exit
status: 2 for usage errors (bad arguments, inputs or sizes), 3 for numeric
failures.  _size and _real state the scalar-argument contract once."""

import math
import numbers
import operator


class VmfheadError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class DomainError(VmfheadError):
    """A scalar argument is outside the mathematical domain of an operation."""
    exit_code = 2


class DegenerateInput(DomainError):
    """An input vector is zero, non-finite or not unit where a direction is needed."""


class DimensionMismatch(VmfheadError):
    """Operands live in incompatible dimensions."""
    exit_code = 2


class NumericalFailure(VmfheadError):
    """An iterative numeric procedure failed to converge."""


class EncodingError(VmfheadError):
    """A digit stream is malformed or inconsistent with its declared shape."""
    exit_code = 2


class PrecisionBudgetExceeded(VmfheadError):
    """A digit-packing request does not fit the floating-point budget."""
    exit_code = 2


class InstanceTooLarge(VmfheadError):
    """A fully synthesized construction was requested beyond its size caps."""
    exit_code = 2


class OverflowWarning(UserWarning):
    """A bound evaluation overflowed to infinity."""


class PermissiveModeWarning(UserWarning):
    """A bound formula was evaluated outside its guaranteed dimension range."""


def _size(value, name: str, least: int = 1) -> int:
    """A size argument as a Python int via operator.index, at least `least`;
    bools, floats (integral ones too), NaN and smaller values are refused
    with DomainError."""
    try:
        if not isinstance(value, bool):
            size = operator.index(value)
            if size >= least:
                return size
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(value, name: str, low: float = -math.inf, high: float = math.inf, ends: str = "()") -> float:
    """A finite real (Python or numpy int or float) in the interval from low
    to high, as a float; ends gives its brackets, "(" or "[" then ")" or
    "]".  Bools, non-reals, NaN, +-inf and values outside the interval are
    refused with DomainError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        real = float(value)
        above = low < real or (ends[0] == "[" and real == low)
        below = real < high or (ends[1] == "]" and real == high)
        if math.isfinite(real) and above and below:
            return real
    if high == math.inf:
        interval = f"{'>=' if ends[0] == '[' else '>'} {low:g}"
    elif low == -math.inf:
        interval = f"{'<=' if ends[1] == ']' else '<'} {high:g}"
    else:
        interval = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise DomainError(f"{name} must be finite and {interval}, got {value!r}")


def _positive(value, name: str) -> float:
    """A finite real > 0 as a float (_real on (0, inf))."""
    return _real(value, name, 0.0)
