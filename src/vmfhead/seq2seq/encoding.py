"""Digit encoding that packs a whole sequence into one scalar.

Each coordinate in [0, 1] is truncated to a fixed number of binary digits
and mapped into the Cantor set by writing those digits (doubled) in ternary.
A sequence of T elements with m+1 coordinates each is aggregated as

    R = 3 * sum_i 3^(-(i-1)(m+1)) * sum_p 3^(-p) * psi(x_{i,p}),

where psi spreads the digits of coordinate q with stride d = T(m+1); the
flat coordinate q then owns exactly the ternary positions congruent to q
mod d, so the aggregation is injective and exactly invertible.  All digit
arithmetic is exact (Python integers); the float view of R is faithful only
while 3^(total digits) fits under 2^52, and conversions are guarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import DomainError, EncodingError, PrecisionBudgetExceeded

__all__ = [
    "DigitConfig",
    "SequenceSample",
    "RAggregate",
    "binary_digits",
    "psi_encode",
    "psi_decode",
    "psi_strided",
    "aggregate_R",
    "decode_sequence",
    "strided_bits_to_coords",
    "apply_sequence_function",
    "reference_seq2seq",
    "sequence_mean",
    "float_budget_digits",
]

_MAX_DIGITS = 40


@dataclass(frozen=True)
class DigitConfig:
    """Binary digits retained per coordinate; ties use the terminating
    expansion (dyadic rationals encode with a trailing run of zeros)."""

    digits: int = 8

    def __post_init__(self):
        if not (1 <= self.digits <= _MAX_DIGITS):
            raise DomainError(f"digits must be in [1, {_MAX_DIGITS}], got {self.digits}")


@dataclass(frozen=True)
class SequenceSample:
    """T elements, each a vector in [0, 1]^(m+1)."""

    t_len: int
    m: int
    elements: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.elements, dtype=np.float64)
        if e.shape != (self.t_len, self.m + 1):
            raise DomainError("elements must have shape (T, m+1)")
        if not np.all((e >= 0.0) & (e <= 1.0)):
            raise DomainError("coordinates must lie in [0, 1]")
        e.setflags(write=False)
        object.__setattr__(self, "elements", e)

    def flat(self) -> np.ndarray:
        return self.elements.reshape(-1)


@dataclass(frozen=True)
class RAggregate:
    """Exact aggregation result: ternary digits plus the rounded float view."""

    t_len: int
    m: int
    digits: int
    ternary: tuple
    value: float

    def __float__(self) -> float:
        return self.value

    def ternary_string(self) -> str:
        return "".join(str(d) for d in self.ternary)


def binary_digits(x: float, digits: int) -> list[int]:
    """First binary digits of x in [0, 1], terminating expansion at ties.

    x = 1 is truncated to an all-ones digit string (the largest value the
    budget can hold).  Doubling is exact for floats, so the digits are the
    true binary expansion of the input.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"psi domain is [0, 1], got {x}")
    if x == 1.0:
        return [1] * digits
    out = []
    frac = x
    for _ in range(digits):
        frac *= 2.0
        if frac >= 1.0:
            out.append(1)
            frac -= 1.0
        else:
            out.append(0)
    return out


def psi_encode(x: float, cfg: DigitConfig) -> float:
    """Cantor-set digit map: sum_j 2 a_j 3^(-j) over the retained digits.

    Monotone non-decreasing in x; dyadic rationals take their terminating
    expansion, so psi(1/2) = 2/3.
    """
    bits = binary_digits(float(x), cfg.digits)
    num = 0
    for b in bits:
        num = num * 3 + 2 * b
    return float(Fraction(num, 3**cfg.digits))


def psi_decode(c: float, cfg: DigitConfig) -> float:
    """Inverse of psi_encode on valid truncated Cantor values.

    Recovers x to precision 2^(-digits); a ternary digit equal to 1 means
    the value is not in the truncated Cantor set and raises EncodingError.
    """
    if not (0.0 <= c <= 1.0):
        raise EncodingError(f"Cantor values live in [0, 1], got {c}")
    scaled = c * 3.0**cfg.digits
    num = round(scaled)
    if abs(scaled - num) > 1e-6 * max(1.0, abs(scaled)):
        raise EncodingError("value is not a truncated Cantor encoding")
    bits = []
    for _ in range(cfg.digits):
        num, digit = divmod(num, 3)
        if digit == 1:
            raise EncodingError("ternary digit 1 found; not a Cantor encoding")
        bits.append(1 if digit == 2 else 0)
    if num != 0:
        raise EncodingError("value out of range for the digit budget")
    bits.reverse()
    x = 0.0
    for b in reversed(bits):
        x = (x + b) / 2.0
    return x


def psi_strided(x: float, cfg: DigitConfig, stride: int) -> Fraction:
    """Stride-aware digit map: digit j lands at ternary position 1+(j-1)*stride.

    This is the per-coordinate encoder the aggregation uses; stride equals
    the flattened sequence width T(m+1), and stride 1 recovers psi_encode.
    """
    if stride < 1:
        raise DomainError("stride must be >= 1")
    bits = binary_digits(float(x), cfg.digits)
    total = 1 + (cfg.digits - 1) * stride
    num = 0
    for j, b in enumerate(bits):
        pos = 1 + j * stride
        num += 2 * b * 3 ** (total - pos)
    return Fraction(num, 3**total)


def float_budget_digits(t_len: int, m: int, cfg: DigitConfig) -> int:
    """Total ternary digits of the aggregate; the float view is faithful
    only while 3^total < 2^52."""
    return t_len * (m + 1) * cfg.digits


def _check_float_budget(t_len: int, m: int, cfg: DigitConfig) -> None:
    if 3 ** float_budget_digits(t_len, m, cfg) >= 2**52:
        raise PrecisionBudgetExceeded(
            f"T(m+1)digits = {float_budget_digits(t_len, m, cfg)} ternary digits "
            "cannot round-trip through a double; use the exact digit form"
        )


def aggregate_R(s: SequenceSample, cfg: DigitConfig) -> RAggregate:
    """Pack the whole sequence into one scalar with exact digit arithmetic.

    Flat coordinate q = (i-1)(m+1) + p contributes its j-th binary digit at
    ternary position q + (j-1) * width, with width = T(m+1): the weights
    3 * 3^(-(i-1)(m+1)) * 3^(-p) of the aggregation shift each stride-width
    encoding into its own residue class, so digits never collide.
    """
    width = s.t_len * (s.m + 1)
    total = width * cfg.digits
    if total > 4096:
        raise PrecisionBudgetExceeded(
            f"{total} ternary digits exceed the supported packing budget"
        )
    digits = [0] * total
    flat = s.flat()
    for q0 in range(width):
        bits = binary_digits(float(flat[q0]), cfg.digits)
        for j, b in enumerate(bits):
            digits[q0 + j * width] = 2 * b
    num = 0
    for d in digits:
        num = num * 3 + d
    value = float(Fraction(num, 3**total))
    return RAggregate(t_len=s.t_len, m=s.m, digits=cfg.digits, ternary=tuple(digits), value=value)


def decode_sequence(r, t_len: int, m: int, cfg: DigitConfig) -> SequenceSample:
    """Exact digit unpacking; inverse of aggregate_R up to truncation.

    Accepts an RAggregate (always exact) or a float, which is first scaled
    back to the integer digit mantissa and therefore requires the total
    digit count to fit the float budget.
    """
    width = t_len * (m + 1)
    total = width * cfg.digits
    if isinstance(r, RAggregate):
        if (r.t_len, r.m, r.digits) != (t_len, m, cfg.digits):
            raise EncodingError("aggregate shape does not match the declared (T, m, digits)")
        digits = list(r.ternary)
    else:
        r = float(r)
        if not (0.0 <= r <= 1.0):
            raise EncodingError(f"aggregate values live in [0, 1], got {r}")
        _check_float_budget(t_len, m, cfg)
        num = round(r * 3**total)
        digits = []
        for _ in range(total):
            num, d = divmod(num, 3)
            digits.append(d)
        if num != 0:
            raise EncodingError("value out of range for the digit budget")
        digits.reverse()
    if len(digits) != total:
        raise EncodingError("digit stream length does not match the declared shape")
    if 1 in digits:
        raise EncodingError("ternary digit 1 found; not a Cantor encoding")
    coords = strided_bits_to_coords([1 if d == 2 else 0 for d in digits], width)
    return SequenceSample(t_len=t_len, m=m, elements=coords.reshape(t_len, m + 1))


def strided_bits_to_coords(bits, width: int) -> np.ndarray:
    """(width,) coordinates from a strided bit stream: coordinate q reads
    bits q, q + width, q + 2 width, ... as its binary expansion, most
    significant first."""
    digits = len(bits) // width
    coords = np.zeros(width)
    for q0 in range(width):
        x = 0.0
        for j in range(digits - 1, -1, -1):
            x = (x + bits[q0 + j * width]) / 2.0
        coords[q0] = x
    return coords


def apply_sequence_function(f, elements: np.ndarray) -> np.ndarray:
    """f(elements) as a float array, refused unless it has the (T, m+1)
    shape of its input."""
    out = np.asarray(f(elements), dtype=np.float64)
    if out.shape != elements.shape:
        raise DomainError("sequence function returned a wrongly shaped output")
    return out


def sequence_mean(elements: np.ndarray) -> np.ndarray:
    """The demonstration sequence function: every position gets the mean
    element of the sequence."""
    return np.tile(elements.mean(axis=0), (elements.shape[0], 1))


def reference_seq2seq(f, s: SequenceSample, cfg: DigitConfig) -> list[np.ndarray]:
    """Finite-precision realization of the encode/decode identity.

    Computes the per-position outputs [f(decoded)]_i where decoded is the
    round trip of the aggregation; by construction this equals f applied to
    the digit-truncated inputs.
    """
    r = aggregate_R(s, cfg)
    truncated = decode_sequence(r, s.t_len, s.m, cfg)
    out = apply_sequence_function(f, truncated.elements)
    return [out[i] for i in range(s.t_len)]
