"""Exception types shared across the package; exit_code is the CLI exit
status: 2 for usage errors (bad arguments, inputs or sizes), 3 for numeric
failures.  _size, _real, _reals and _flag state the argument contracts once."""

import math
import numbers
import operator

import numpy as np


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


def _reals(value, name: str, low: float | None = -math.inf, high: float = math.inf, error=DomainError) -> np.ndarray:
    """Python or numpy ints and floats, or nested lists of them, as a float64
    array of the same values (the same array where it is one).  Bool, string,
    complex, object and ragged input, and values not finite or outside [low,
    high] (both finite or both infinite; low None: no value check), raise `error`."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got {value!r:.80}")
    array = array.astype(np.float64, copy=False)
    if low is None:
        return array
    if low == -high == -math.inf:
        if np.isfinite(array).all():  # one pass, faster than min and max on small arrays
            return array
    elif not array.size or low <= array.min() and array.max() <= high:  # refuses NaN and +-inf too
        return array
    raise error(f"{name} must be finite in [{low:g}, {high:g}], got values from {array.min()} to {array.max()}")


def _flag(value, name: str) -> bool:
    """A Python or numpy bool as a bool; anything else is refused with DomainError."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _positive(value, name: str) -> float:
    """A finite real > 0 as a float (_real on (0, inf))."""
    return _real(value, name, 0.0)
