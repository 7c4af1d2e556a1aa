"""Digit encoding that packs a whole sequence into one scalar.

Each coordinate in [0, 1] is truncated to a fixed number of binary digits
and mapped into the Cantor set by writing those digits (doubled) in ternary.
A sequence of T elements with m+1 coordinates each is aggregated as

    R = 3 * sum_i 3^(-(i-1)(m+1)) * sum_p 3^(-p) * psi(x_{i,p}),

where psi spreads the digits of coordinate q with stride d = T(m+1); the
flat coordinate q then owns exactly the ternary positions congruent to q
mod d, so the aggregation is injective and exactly invertible.

One integer codec does every encode and decode, elementwise on arrays: a
coordinate's digits are the int64 bits of floor(x 2^digits) (scaling by a
power of two is exact), ternary digit q + j d is twice bit j of coordinate
q, and the mantissa is their dot product with powers of 3, read back with
// and %.  A mantissa of up to 33 digits is an int64 whose double is exact
(3^33 < 2^53), so its float view is rounded once; a longer one is a Python
int joined from, and split into, int64 limbs of 33 digits.  The float view
of R is faithful only while 3^(total digits) < 2^52, and conversions from a
float are guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import DomainError, EncodingError, PrecisionBudgetExceeded, _real, _reals, _size

__all__ = [
    "DigitConfig",
    "SequenceSample",
    "RAggregate",
    "psi_encode",
    "psi_strided",
    "aggregate_R",
    "decode_sequence",
    "relaxed_decode",
    "apply_sequence_function",
    "reference_seq2seq",
    "sequence_mean",
]

_MAX_DIGITS = 40
_LIMB = 33  # ternary digits per int64 limb: 3^33 < 2^53, so a limb is exact as a double
_POWERS = 3 ** np.arange(_LIMB - 1, -1, -1, dtype=np.int64)  # a limb's digit weights 3^32, ..., 3, 1


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
        e = _reals(self.elements, "coordinates", 0.0, 1.0)
        if e.shape != (self.t_len, self.m + 1):
            raise DomainError("elements must have shape (T, m+1)")
        e.setflags(write=False)
        object.__setattr__(self, "elements", e)

    def flat(self) -> np.ndarray:
        return self.elements.reshape(-1)


@dataclass(frozen=True)
class RAggregate:
    """Exact aggregation result: the integer ternary mantissa (the value
    times 3^(T(m+1) digits)) plus the rounded float view."""

    t_len: int
    m: int
    digits: int
    mantissa: int
    value: float

    def ternary_string(self) -> str:
        """The T(m+1) * digits ternary digits of the mantissa, most significant first."""
        return "".join(map(str, _unpack(self.mantissa, self.t_len * (self.m + 1) * self.digits).tolist()))


def _bits(x, digits: int) -> np.ndarray:
    """min(floor(x 2^digits), 2^digits - 1) elementwise as int64, x in [0, 1].

    Scaling by 2^digits is exact, so these are the true leading binary
    digits of x, the terminating expansion at ties; x = 1 is truncated to
    all ones (the largest value the budget can hold).
    """
    x = _reals(x, "psi argument", 0.0, 1.0)
    scale = 2**digits
    return np.minimum((x * scale).astype(np.int64), scale - 1)


def _encode(bits: np.ndarray, digits: int, width: int):
    """The mantissas of digits * width ternary digits whose digit q + j width
    (most significant first) is twice bit j of coordinate q of the (..., k)
    int64 bits, and 0 for q >= k: int64 up to _LIMB digits, else Python
    ints (an object array) joined from int64 limbs."""
    n = digits * width
    ternary = np.zeros((*bits.shape[:-1], digits, width), dtype=np.int64)
    ternary[..., : bits.shape[-1]] = 2 * ((bits[..., None, :] >> np.arange(digits - 1, -1, -1)[:, None]) & 1)
    ternary = ternary.reshape(*bits.shape[:-1], n)
    if n <= _LIMB:
        return ternary @ _POWERS[-n:]
    limbs = np.pad(ternary, [(0, 0)] * (ternary.ndim - 1) + [(-n % _LIMB, 0)])
    limbs = limbs.reshape(*bits.shape[:-1], -1, _LIMB) @ _POWERS
    return limbs.astype(object) @ [3 ** (_LIMB * k) for k in range(limbs.shape[-1] - 1, -1, -1)]


def _unpack(mantissa, total: int) -> np.ndarray:
    """(..., total) base-3 digits, most significant first, of int64
    mantissas, or of one Python int split by divmod into int64 limbs; a
    mantissa past 3^total - 1 is refused."""
    held = np.asarray(mantissa)
    if not np.all((held >= 0) & (held < 3**total)):
        raise EncodingError("value out of range for the digit budget")
    if total <= _LIMB:
        return held.astype(np.int64)[..., None] // _POWERS[-total:] % 3
    rest, limbs = int(mantissa), []
    for _ in range(-(-total // _LIMB)):
        rest, limb = divmod(rest, 3**_LIMB)
        limbs.insert(0, limb)
    return (np.array(limbs)[:, None] // _POWERS % 3).reshape(-1)[-total:]


def _decode(mantissa, digits: int, width: int, strict: bool) -> np.ndarray:
    """(..., width) coordinates of mantissas of digits * width ternary
    digits, the inverse of _encode: coordinate q reads digits q, q + width,
    ... as its bits, 2 as 1 and 0 as 0, and a digit 1, off the Cantor set,
    raises EncodingError when strict and reads as 0 otherwise."""
    ternary = _unpack(mantissa, digits * width)
    if strict and np.any(ternary == 1):
        raise EncodingError("ternary digit 1 found; not a Cantor encoding")
    bits = (ternary // 2).reshape(*ternary.shape[:-1], digits, width)
    return 2 ** np.arange(digits - 1, -1, -1) @ bits / 2**digits


def _psi(bits: np.ndarray, digits: int, stride: int) -> np.ndarray:
    """float(psi_strided) at each of the int64 coordinate bits, as float64:
    the mantissa over 3^(digits stride), rounded once."""
    return np.asarray(_encode(bits[..., None], digits, stride) / 3 ** (digits * stride), dtype=np.float64)


def _mantissa(u, total: int):
    """The mantissa of `total` ternary digits nearest u, elementwise as float64:
    min(round(clip(u, 0, 1) 3^total), 3^total - 1), clipped after rounding."""
    base = 3**total
    return np.minimum(np.maximum(np.rint(u * base), 0.0), base - 1)


def _check_float_budget(total: int) -> None:
    """The float view of `total` ternary digits is faithful only while
    3^total < 2^52."""
    if 3**total >= 2**52:
        raise PrecisionBudgetExceeded(
            f"{total} ternary digits cannot round-trip through a double; use the exact digit form"
        )


def psi_encode(x, cfg: DigitConfig):
    """Cantor-set digit map: sum_j 2 a_j 3^(-j) over the retained digits,
    elementwise (a float for a scalar x, an array for an array).

    Monotone non-decreasing in x; dyadic rationals take their terminating
    expansion, so psi(1/2) = 2/3.
    """
    return _psi(_bits(x, cfg.digits), cfg.digits, 1)[()]


def psi_strided(x: float, cfg: DigitConfig, stride: int) -> Fraction:
    """Stride-aware digit map: digit j lands at ternary position 1+(j-1)*stride.

    The exact value of the per-coordinate encoder the aggregation uses, at
    stride T(m+1); stride 1 recovers psi_encode.
    """
    x, stride = _real(x, "psi argument", 0.0, 1.0, "[]"), _size(stride, "stride")
    mantissa = _encode(_bits(x, cfg.digits)[None], cfg.digits, stride)
    return Fraction(int(mantissa), 3 ** (cfg.digits * stride))


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
        raise PrecisionBudgetExceeded(f"{total} ternary digits exceed the supported packing budget")
    mantissa = int(_encode(_bits(s.flat(), cfg.digits), cfg.digits, width))
    return RAggregate(t_len=s.t_len, m=s.m, digits=cfg.digits, mantissa=mantissa, value=mantissa / 3**total)


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
        mantissa = r.mantissa
    else:
        r = _reals(r, "aggregate value", 0.0, 1.0, EncodingError)
        if r.ndim:
            raise EncodingError(f"decode_sequence takes one aggregate value, got shape {r.shape}")
        _check_float_budget(total)
        mantissa = round(float(r) * 3**total)
    elements = _decode(mantissa, cfg.digits, width, strict=True)
    return SequenceSample(t_len=t_len, m=m, elements=elements.reshape(t_len, m + 1))


def relaxed_decode(u, t_len: int, m: int, cfg: DigitConfig) -> np.ndarray:
    """(..., T, m+1) coordinates decoded from each scalar of u in [0, 1].

    Each scalar is rounded to the nearest integer mantissa first, so every
    exact aggregate value sits in the interior of its decoding plateau
    (otherwise values with an all-zero digit tail would be jump points,
    decoding differently from one side).  Digits are read 2 -> 1, else 0;
    the in-between digit 1 only occurs off the valid aggregate set.  On
    valid aggregates this agrees with decode_sequence.  The float holds the
    digits only while 3^(T(m+1) digits) < 2^52.  A NaN or a u outside
    [0, 1] raises EncodingError, as in decode_sequence.
    """
    u = _reals(u, "aggregate values", 0.0, 1.0, EncodingError)
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
    width = t_len * (m + 1)
    _check_float_budget(width * cfg.digits)
    coordinates = _decode(_mantissa(u, width * cfg.digits).astype(np.int64), cfg.digits, width, strict=False)
    return coordinates.reshape(*u.shape, t_len, m + 1)


def apply_sequence_function(f, elements: np.ndarray) -> np.ndarray:
    """f(elements) as a float array, refused unless it holds finite reals
    in the (T, m+1) shape of its input."""
    out = _reals(f(elements), "sequence function output")
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
    truncated = decode_sequence(aggregate_R(s, cfg), s.t_len, s.m, cfg)
    return list(apply_sequence_function(f, truncated.elements))
