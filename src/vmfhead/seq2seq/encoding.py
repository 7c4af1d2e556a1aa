"""Digit encoding that packs a whole sequence into one scalar.

Each coordinate in [0, 1] is truncated to a fixed number of binary digits
and mapped into the Cantor set by writing those digits (doubled) in ternary.
A sequence of T elements with m+1 coordinates each is aggregated as

    R = 3 * sum_i 3^(-(i-1)(m+1)) * sum_p 3^(-p) * psi(x_{i,p}),

where psi spreads the digits of coordinate q with stride d = T(m+1); the
flat coordinate q then owns exactly the ternary positions congruent to q
mod d, so the aggregation is injective and exactly invertible.

One exact codec does every encode and decode.  A coordinate's digits are
the bit string of floor(x 2^digits) (scaling by a power of two is exact);
the ternary digits are those bits with 1 -> 2, interleaved across
coordinates, and read as an integer with int(s, 3).  Decoding turns an
integer mantissa back into its ternary string, and coordinate q is the bit
string at positions q, q + d, ... over 2^digits.  The float view of R is
faithful only while 3^(total digits) fits under 2^52, and conversions from
a float are guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import DomainError, EncodingError, PrecisionBudgetExceeded, _size

__all__ = [
    "DigitConfig",
    "SequenceSample",
    "RAggregate",
    "psi_encode",
    "psi_decode",
    "psi_strided",
    "aggregate_R",
    "decode_sequence",
    "relaxed_decode",
    "apply_sequence_function",
    "reference_seq2seq",
    "sequence_mean",
]

_MAX_DIGITS = 40


@dataclass(frozen=True)
class DigitConfig:
    """Binary digits retained per coordinate; ties use the terminating
    expansion (dyadic rationals encode with a trailing run of zeros)."""

    digits: int = 8

    def __post_init__(self):
        object.__setattr__(self, "digits", _size(self.digits, "digits"))
        if self.digits > _MAX_DIGITS:
            raise DomainError(f"digits must be in [1, {_MAX_DIGITS}], got {self.digits}")


@dataclass(frozen=True)
class SequenceSample:
    """T elements, each a vector in [0, 1]^(m+1)."""

    t_len: int
    m: int
    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_len", _size(self.t_len, "t_len"))
        object.__setattr__(self, "m", _size(self.m, "m", 0))
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
    """Exact aggregation result: the ternary digit string plus the rounded
    float view."""

    t_len: int
    m: int
    digits: int
    ternary: str
    value: float

    def __float__(self) -> float:
        return self.value

    def ternary_string(self) -> str:
        return self.ternary


def _bits(x: float, digits: int) -> str:
    """First binary digits of x in [0, 1], terminating expansion at ties.

    Scaling by 2^digits is exact, so the digits are the true binary
    expansion of the input; x = 1 is truncated to all ones (the largest
    value the budget can hold).
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"psi domain is [0, 1], got {x}")
    scale = 2**digits
    return format(min(int(x * scale), scale - 1), f"0{digits}b")


def _ternary(num: int, total: int) -> str:
    """The `total` ternary digits of the mantissa num, most significant first."""
    out = []
    for _ in range(total):
        num, d = divmod(num, 3)
        out.append("012"[d])
    if num != 0:
        raise EncodingError("value out of range for the digit budget")
    return "".join(reversed(out))


def _mantissa(u, total: int):
    """The mantissa of `total` ternary digits nearest u, elementwise as float64:
    min(round(clip(u, 0, 1) 3^total), 3^total - 1), clipped after rounding."""
    base = 3**total
    return np.minimum(np.maximum(np.rint(u * base), 0.0), base - 1)


def _coords(ternary: str, width: int) -> np.ndarray:
    """(width,) coordinates of a strided digit string: coordinate q reads
    digits q, q + width, q + 2 width, ... as its binary expansion, most
    significant first, with ternary 2 as bit 1 and anything else as 0."""
    bits = ternary.replace("1", "0").replace("2", "1")
    scale = 2 ** (len(ternary) // width)
    return np.array([int(bits[q::width], 2) / scale for q in range(width)])


def _check_float_budget(total: int) -> None:
    """The float view of `total` ternary digits is faithful only while
    3^total < 2^52."""
    if 3**total >= 2**52:
        raise PrecisionBudgetExceeded(
            f"{total} ternary digits cannot round-trip through a double; use the exact digit form"
        )


def psi_encode(x: float, cfg: DigitConfig) -> float:
    """Cantor-set digit map: sum_j 2 a_j 3^(-j) over the retained digits.

    Monotone non-decreasing in x; dyadic rationals take their terminating
    expansion, so psi(1/2) = 2/3.
    """
    return _psi_float(x, cfg, 1)


def psi_decode(c: float, cfg: DigitConfig) -> float:
    """Inverse of psi_encode on valid truncated Cantor values.

    Recovers x to precision 2^(-digits); a ternary digit equal to 1 means
    the value is not in the truncated Cantor set and raises EncodingError.
    The float value holds the digits only while 3^digits < 2^52.
    """
    if not (0.0 <= c <= 1.0):
        raise EncodingError(f"Cantor values live in [0, 1], got {c}")
    _check_float_budget(cfg.digits)
    scaled = c * 3.0**cfg.digits
    num = round(scaled)
    if abs(scaled - num) > 1e-6 * max(1.0, abs(scaled)):
        raise EncodingError("value is not a truncated Cantor encoding")
    ternary = _ternary(num, cfg.digits)
    if "1" in ternary:
        raise EncodingError("ternary digit 1 found; not a Cantor encoding")
    return float(_coords(ternary, 1)[0])


def _psi_ternary(x: float, cfg: DigitConfig, stride: int) -> str:
    """The ternary digits of psi_strided(x, cfg, stride), most significant
    first; the stride is checked by psi_strided, not on every call."""
    return ("0" * (stride - 1)).join(_bits(float(x), cfg.digits).replace("1", "2"))


def _psi_float(x: float, cfg: DigitConfig, stride: int) -> float:
    """float(psi_strided(x, cfg, stride)) without the Fraction: int / int
    rounds the same rational correctly, so the double is the same."""
    ternary = _psi_ternary(x, cfg, stride)
    return int(ternary, 3) / 3 ** len(ternary)


def psi_strided(x: float, cfg: DigitConfig, stride: int) -> Fraction:
    """Stride-aware digit map: digit j lands at ternary position 1+(j-1)*stride.

    This is the per-coordinate encoder the aggregation uses; stride equals
    the flattened sequence width T(m+1), and stride 1 recovers psi_encode.
    """
    ternary = _psi_ternary(x, cfg, _size(stride, "stride"))
    return Fraction(int(ternary, 3), 3 ** len(ternary))


def aggregate_R(s: SequenceSample, cfg: DigitConfig) -> RAggregate:
    """Pack the whole sequence into one scalar with exact digit arithmetic.

    Flat coordinate q = (i-1)(m+1) + p contributes its j-th binary digit at
    ternary position q + (j-1) * width, with width = T(m+1): the weights
    3 * 3^(-(i-1)(m+1)) * 3^(-p) of the aggregation shift each stride-width
    encoding into its own residue class, so digits never collide.
    """
    total = s.t_len * (s.m + 1) * cfg.digits
    if total > 4096:
        raise PrecisionBudgetExceeded(
            f"{total} ternary digits exceed the supported packing budget"
        )
    columns = [_bits(float(x), cfg.digits) for x in s.flat()]
    ternary = "".join(map("".join, zip(*columns))).replace("1", "2")
    value = int(ternary, 3) / 3**total
    return RAggregate(t_len=s.t_len, m=s.m, digits=cfg.digits, ternary=ternary, value=value)


def decode_sequence(r, t_len: int, m: int, cfg: DigitConfig) -> SequenceSample:
    """Exact digit unpacking; inverse of aggregate_R up to truncation.

    Accepts an RAggregate (always exact) or a float, which is first scaled
    back to the integer digit mantissa and therefore requires the total
    digit count to fit the float budget.
    """
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
    width = t_len * (m + 1)
    total = width * cfg.digits
    if isinstance(r, RAggregate):
        if (r.t_len, r.m, r.digits) != (t_len, m, cfg.digits):
            raise EncodingError("aggregate shape does not match the declared (T, m, digits)")
        ternary = r.ternary
    else:
        r = float(r)
        if not (0.0 <= r <= 1.0):
            raise EncodingError(f"aggregate values live in [0, 1], got {r}")
        _check_float_budget(total)
        ternary = _ternary(round(r * 3**total), total)
    if len(ternary) != total:
        raise EncodingError("digit stream length does not match the declared shape")
    if "1" in ternary:
        raise EncodingError("ternary digit 1 found; not a Cantor encoding")
    return SequenceSample(t_len=t_len, m=m, elements=_coords(ternary, width).reshape(t_len, m + 1))


def relaxed_decode(u: float, t_len: int, m: int, cfg: DigitConfig) -> np.ndarray:
    """(T, m+1) coordinates decoded from an arbitrary scalar in [0, 1].

    The scalar is rounded to the nearest integer mantissa first, so every
    exact aggregate value sits in the interior of its decoding plateau
    (otherwise values with an all-zero digit tail would be jump points,
    decoding differently from one side).  Digits are read 2 -> 1, else 0;
    the in-between digit 1 only occurs off the valid aggregate set.  On
    valid aggregates this agrees with decode_sequence.  The float holds the
    digits only while 3^(T(m+1) digits) < 2^52.  A NaN or a u outside
    [0, 1] raises EncodingError, as in decode_sequence.
    """
    if not 0.0 <= u <= 1.0:
        raise EncodingError(f"aggregate values live in [0, 1], got {u}")
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
    width = t_len * (m + 1)
    total = width * cfg.digits
    _check_float_budget(total)
    return _coords(_ternary(int(_mantissa(float(u), total)), total), width).reshape(t_len, m + 1)


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
