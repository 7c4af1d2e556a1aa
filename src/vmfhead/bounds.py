"""Explicit accuracy-to-complexity bounds for the kernel-head construction.

Two quantities drive everything: the concentration needed so that kernel
smoothing loses at most a prescribed sup-norm accuracy, and the number of
control points needed so that the Riemann-sum discretization of the
convolution loses at most the remaining budget.  Both are evaluated in log
domain because realistic values overflow doubles by enormous margins; all
outputs report log10 alongside the (possibly infinite) linear value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, OverflowWarning, PermissiveModeWarning, _flag, _positive, _real, _size
from .kernel import vmf_log_normalizer
from .sphere import cap_area, surface_area

__all__ = [
    "SmoothnessSpec",
    "PrefixLengthBound",
    "lambda_for_accuracy",
    "prefix_length_bound",
    "phi",
    "covering_bounds",
    "normalized_head_parameters",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness data of a target: geodesic Lipschitz constant, harmonic
    component bound, polynomial-approximation constant, and sup norm.

    The harmonic and polynomial constants are not computable from a target
    in general; they are inputs, defaulted to heuristic placeholders by the
    callers that own concrete targets.
    """

    L: float
    C_H: float
    C_R: float
    f_sup: float

    def __post_init__(self):
        for name in ("L", "C_H", "C_R"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "f_sup", _real(self.f_sup, "f_sup", 0.0, ends="[)"))


@dataclass(frozen=True)
class PrefixLengthBound:
    """A control-point count that may exceed the float range; log10 is exact."""

    n: float
    log10_n: float


def _check_dimension(m: int, strict: bool) -> int:
    """m as a size >= 2; below 8 refused if strict (a bool), warned otherwise."""
    m, strict = _size(m, "m", 2), _flag(strict, "strict")
    if m < 8:
        if strict:
            raise DomainError(f"strict mode requires m >= 8 (covering constants), got {m}")
        warnings.warn(
            f"m = {m} < 8 is outside the guaranteed range of the covering constants",
            PermissiveModeWarning,
            stacklevel=3,
        )
    return m


def lambda_for_accuracy(sigma: float, spec: SmoothnessSpec, m: int, strict: bool = True) -> float:
    """Concentration needed so kernel smoothing costs at most sigma in sup norm.

    With beta = sigma^2 / (8 L C_H C_R + 2 sigma C_H) and
    e1 = sigma / (4 L C_R + sigma):

        Lambda = (8 L C_R + (m+1) sigma) (1-beta)^e1 / (sigma (1 - (1-beta)^(2 e1)))

    evaluated with log1p/expm1 so the small-sigma regime (where the value
    behaves like 128 L^3 C_H C_R^3 / sigma^4) stays accurate.  Returns +inf
    with an OverflowWarning when the value exceeds the float range.
    """
    sigma, m = _positive(sigma, "sigma"), _check_dimension(m, strict)
    L, C_H, C_R = spec.L, spec.C_H, spec.C_R
    beta = sigma * sigma / (8.0 * L * C_H * C_R + 2.0 * sigma * C_H)
    if beta >= 1.0:
        # Extremely coarse accuracy: any positive concentration works; the
        # formula degenerates, so report the trivial bound.
        return 1.0
    e1 = sigma / (4.0 * L * C_R + sigma)
    log_one_minus_beta = math.log1p(-beta)
    log_numer = math.log(8.0 * L * C_R + m * sigma + sigma) + e1 * log_one_minus_beta
    denom = -math.expm1(2.0 * e1 * log_one_minus_beta)
    if denom <= 0.0:
        warnings.warn("concentration bound overflowed to +inf", OverflowWarning, stacklevel=2)
        return math.inf
    log_lambda = log_numer - math.log(sigma) - math.log(denom)
    if log_lambda > 709.0:
        warnings.warn("concentration bound overflowed to +inf", OverflowWarning, stacklevel=2)
        return math.inf
    return math.exp(log_lambda)


def _phi_formula(m: int) -> float:
    mp1 = m + 1.0
    return math.e * (mp1 * math.log(mp1) + mp1 * math.log(math.log(mp1)) + 5.0 * mp1)


def phi(m: int) -> float:
    """Dimension factor e((m+1)ln(m+1) + (m+1)ln ln(m+1) + 5(m+1)).

    The covering estimate behind it holds for m >= 8, which is enforced.
    """
    return _phi_formula(_size(m, "m", 8))


def _length_bound(
    lam: float, epsilon: float, spec: SmoothnessSpec, m: int, ln_vector_factor: float
) -> PrefixLengthBound:
    """ln N = ln Phi(m) + 2(m+1)(ln 3pi + ln_vector_factor + ln(L + lam f_sup)
    + ln c_{m+1}(lam) + lam - ln eps); ln_vector_factor is 0.5 ln(m+1) for the
    normalized head and 0 otherwise."""
    ln_n = math.log(_phi_formula(m)) + 2.0 * (m + 1) * (
        math.log(3.0 * math.pi)
        + ln_vector_factor
        + math.log(spec.L + lam * spec.f_sup)
        + vmf_log_normalizer(m, lam)
        + lam
        - math.log(epsilon)
    )
    n = math.exp(ln_n) if ln_n <= 709.0 else math.inf
    return PrefixLengthBound(n=n, log10_n=ln_n / _LN10)


def prefix_length_bound(
    lam: float, epsilon: float, spec: SmoothnessSpec, m: int, strict: bool = True
) -> PrefixLengthBound:
    """Control-point count sufficient for the Riemann-sum half of the error.

    N = Phi(m) * (3 pi (L + lambda f_sup) c_{m+1}(lambda) e^lambda / eps)^(2(m+1)),
    computed in log domain; the linear value is +inf whenever it exceeds the
    float range, and log10 N is always finite.
    """
    lam, epsilon = _positive(lam, "lam"), _positive(epsilon, "epsilon")
    return _length_bound(lam, epsilon, spec, _check_dimension(m, strict), 0.0)


def covering_bounds(m: int, delta: float) -> tuple[float, float]:
    """(lower, upper) bounds on the cap covering number of S^m at depth delta.

    lower = w_m / (area of a cap of depth delta) (area comparison), and
    upper = Phi(m) / (delta(2-delta))^((m+1)/2) (ball-covering transfer).
    """
    m = _size(m, "m", 8)
    delta = _real(delta, "delta", 0.0, 1.0)
    lower = surface_area(m) / cap_area(m, delta)
    upper = phi(m) / (delta * (2.0 - delta)) ** ((m + 1) / 2.0)
    return lower, upper


def normalized_head_parameters(
    epsilon: float, spec: SmoothnessSpec, m: int, strict: bool = True
) -> tuple[float, PrefixLengthBound]:
    """Concentration and prefix length for the normalized (softmax) head.

    The normalization steals accuracy, so the concentration is taken at the
    shrunk argument 2 eps L / (2L + f_sup); the length bound carries an
    extra sqrt(m+1) factor inside its power because the output error is
    measured in the Euclidean norm over m+1 components.
    """
    epsilon, m = _positive(epsilon, "epsilon"), _check_dimension(m, strict)
    if not epsilon < 2.0 * spec.f_sup:
        raise DomainError(f"normalized_head_parameters requires epsilon < 2 * f_sup, got {epsilon}")
    sigma = 2.0 * epsilon * spec.L / (2.0 * spec.L + spec.f_sup)
    lam = lambda_for_accuracy(sigma, spec, m, strict=strict)
    if not math.isfinite(lam):
        return lam, PrefixLengthBound(n=math.inf, log10_n=math.inf)
    return lam, _length_bound(lam, epsilon, spec, m, 0.5 * math.log(m + 1.0))
