"""Exception types shared across the package; exit_code is the CLI exit
status: 2 for usage errors (bad arguments, inputs or sizes), 3 for numeric
failures."""


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


class PoleSingularity(VmfheadError):
    """The stereographic projection was evaluated at its pole."""


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
