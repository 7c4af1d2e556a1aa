"""Self-contained special functions for spherical kernel computations.

Everything here is scalar, pure, and log-domain friendly: log-Gamma,
the regularized incomplete beta function, and modified Bessel functions of the first kind at general nonnegative
(often half-integer) order.  Bessel values are only ever exposed as
logarithms or as ratios of consecutive orders, because the concentration
parameters used elsewhere in the package push I_nu(x) far beyond the
range of IEEE doubles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NumericalFailure, _positive, _real

__all__ = [
    "log_gamma",
    "reg_inc_beta",
    "log_bessel_i",
    "bessel_ratio",
]


def _order(nu) -> float:
    """The order of a modified Bessel function: a finite real >= 0."""
    return _real(nu, "Bessel order", 0.0, ends="[)")


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Thin domain-checked wrapper over the C library's lgamma, which is
    accurate to well below the 1e-12 absolute error needed here.
    """
    return math.lgamma(_positive(x, "x"))


# Iteration cap of _betacf; past it the fraction raises NumericalFailure.
_BETACF_MAX_ITER = 500


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericalFailure("incomplete beta continued fraction did not converge")


@functools.lru_cache(maxsize=64)
def _log_beta_prefactor(a: float, b: float) -> float:
    """ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b), summed left to right as
    reg_inc_beta adds its further terms, so caching it changes no value."""
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Closed forms where the function is elementary (DLMF 8.17): for a = 1,
    I_x(1, b) = 1 - (1-x)^b, as -expm1(b log1p(-x)); for an integer b up to
    _BETACF_MAX_ITER, the finite sum of positive terms
    I_x(a, b) = x^a sum_{j<b} (a)_j / j! (1-x)^j, each term the one before
    times (a+j-1)/j (1-x), so none exceeds 1.  Against 40-digit values both
    read within 1.5e-15 relative over x in [1e-12, 1 - 1e-6] for b up to 32
    (tests/test_specialfn.py); every S^2 cap area and every equator-side cap
    area of an even m takes one of them.  Any other (a, b) goes through the
    standard continued fraction, switching to the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) where the fraction converges faster.
    Absolute error is well below 1e-10 on the domain.
    """
    # inline rather than _real and _positive: each partition the benchmark
    # builds calls this 357 to 762 times
    try:
        valid = 0.0 <= x <= 1.0
    except (TypeError, ValueError):  # x not a real, e.g. None, a string or an array
        valid = False
    if not valid or isinstance(x, (bool, np.bool_)):
        raise DomainError(f"reg_inc_beta requires a real x in [0, 1], got {x!r}")
    x = float(x)
    try:
        valid = 0 < a < math.inf and 0 < b < math.inf
    except TypeError:  # a or b not a real, e.g. None or a string
        valid = False
    if not valid or isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        raise DomainError(f"reg_inc_beta requires finite reals a, b > 0, got a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if a == 1.0:
        return -math.expm1(b * math.log1p(-x))
    if b <= _BETACF_MAX_ITER and b == int(b):
        y = 1.0 - x
        term = total = x**a
        for j in range(1, int(b)):
            term *= (a + j - 1) / j * y
            total += term
        return total
    log_front = _log_beta_prefactor(a, b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def _log_bessel_i_series(nu: float, lam: float) -> float:
    """Ascending series for ln I_nu, summed with log-sum-exp.

    Every term of the series is positive, so the log-domain sum is
    unconditionally stable no matter how large the argument is; only
    the term count grows (like lam/2 plus a dispersion margin).
    """
    half = lam / 2.0
    n_terms = int(half + 14.0 * math.sqrt(half + 1.0) + 30.0)
    while True:
        k = np.arange(n_terms + 1, dtype=np.float64)
        log_terms = (nu + 2.0 * k) * math.log(half) - _lgamma_vec(k + 1.0) - _lgamma_vec(nu + k + 1.0)
        peak = float(np.max(log_terms))
        # The tail decays super-geometrically past the peak; widen if the
        # last retained term is not yet negligible.
        if log_terms[-1] - peak < -45.0 or n_terms > 20_000_000:
            return peak + math.log(float(np.sum(np.exp(log_terms - peak))))
        n_terms *= 2


_lgamma_object = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma_vec(x: np.ndarray) -> np.ndarray:
    """math.lgamma of each element of x, as float64."""
    return _lgamma_object(x).astype(np.float64)


def _hankel(nu: float, lam: float) -> bool:
    """Whether lam is large enough against order nu for the large-argument
    expansion (_hankel_sum) to give I_nu(lam) to full precision."""
    return lam >= 4000.0 and lam >= 4.0 * nu * nu


def _hankel_sum(nu: float, lam: float) -> float:
    """S in the large-argument expansion I_nu(lam) ~ e^lam S / sqrt(2 pi lam).

    S is the Hankel correction series in inverse powers of lam; summation
    stops at the smallest term, which where _hankel holds is below a
    rounding unit of the sum.
    """
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    prev_abs = math.inf
    for k in range(1, 40):
        term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * lam)
        if abs(term) >= prev_abs:
            break
        total += term
        prev_abs = abs(term)
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def log_bessel_i(nu, lam: float) -> float:
    """ln I_nu(lam) for lam > 0, stable over lam in [1e-3, 1e5] and beyond.

    Uses the all-positive ascending series with log-sum-exp for small and
    moderate arguments and the large-argument expansion once lam dominates
    nu^2 (_hankel), so the value never overflows.
    """
    nu, lam = _order(nu), _positive(lam, "lam")
    if _hankel(nu, lam):
        return lam - 0.5 * math.log(2.0 * math.pi * lam) + math.log(_hankel_sum(nu, lam))
    return _log_bessel_i_series(nu, lam)


def bessel_ratio(nu, lam: float) -> float:
    """Ratio I_{nu+1}(lam) / I_nu(lam), strictly inside (0, 1): the k = 1
    case of _ratio_product.  Relative error is at the 1e-13 level below the
    large-argument switch (_hankel) and a few units of rounding above it.
    Past lam of about 1e16 the ratio is within one rounding unit of 1 and
    is returned as the largest double below 1."""
    return _ratio_product(_order(nu), _positive(lam, "lam"), 1)


def _ratio_product(nu: float, lam: float, k: int) -> float:
    """I_{nu+k}(lam) / I_nu(lam), in O(k + lam) steps below the large-argument
    switch and O(1) above it.

    Where the expansion holds for both orders (_hankel at nu + k) the ratio
    is S_{nu+k}(lam) / S_nu(lam) (_hankel_sum): the factors e^lam /
    sqrt(2 pi lam) cancel exactly.  Below it, the ratio is the product
    r_nu r_{nu+1} ... r_{nu+k-1} of the ratios r_v = I_{v+1}/I_v, taken in
    that order, all k read off one backward recurrence r_v = 1 / (2(v+1)/lam
    + r_{v+1}) (forward recurrence is unstable for I).  It is seeded past
    order nu+k-1 at a depth that grows with lam by the classical ratio lower
    bound lam / (v+1 + sqrt(lam^2 + (v+1)^2)), so r_{nu+k-1} is computed as
    bessel_ratio computes it and the lower orders run deeper still; at the
    switch, lam = 4000, that is about 5,500 steps.
    """
    # Mathematically every ratio is in (0, 1); the clamps defend against
    # rounding at extreme arguments only.
    if _hankel(nu + k, lam):
        return min(_hankel_sum(nu + k, lam) / _hankel_sum(nu, lam), 1.0 - 1e-16)
    depth = int(40 + 1.3 * lam + 4.0 * math.sqrt(lam)) + k - 1
    v = nu + depth
    r = lam / ((v + 1.0) + math.hypot(lam, v + 1.0))
    for i in range(depth, k, -1):
        r = 1.0 / (2.0 * (nu + i) / lam + r)
    ratios = []
    for i in range(k, 0, -1):
        r = 1.0 / (2.0 * (nu + i) / lam + r)
        ratios.append(min(max(r, 5e-324), 1.0 - 1e-16))
    return math.prod(reversed(ratios))
