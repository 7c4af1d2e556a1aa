"""Oracles the tests share, kept out of the library they check."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from vmfhead.errors import DomainError


def langevin(lam: float) -> float:
    """coth(lam) - 1/lam = I_{3/2}(lam) / I_{1/2}(lam): on S^2 the kernel's
    first eigenvalue, so (K*id)(x) = langevin(lam) x."""
    return 1.0 / math.tanh(lam) - 1.0 / lam


def gegenbauer(k: int, alpha: float, t: float) -> float:
    """Gegenbauer polynomial Q_k^alpha(t) by the three-term recurrence.

    Q_0 = 1, Q_1 = 2*alpha*t, and
    k Q_k = 2 t (k + alpha - 1) Q_{k-1} - (k + 2 alpha - 2) Q_{k-2}.
    """
    if k < 0:
        raise DomainError(f"gegenbauer requires k >= 0, got {k}")
    if not alpha > 0:
        raise DomainError(f"gegenbauer requires alpha > 0, got {alpha}")
    if not (-1.0 <= t <= 1.0):
        raise DomainError(f"gegenbauer requires t in [-1, 1], got {t}")
    if k == 0:
        return 1.0
    q_prev = 1.0
    q = 2.0 * alpha * t
    for n in range(2, k + 1):
        q_prev, q = q, (2.0 * t * (n + alpha - 1.0) * q - (n + 2.0 * alpha - 2.0) * q_prev) / n
    return q


def aggregate_oracle(elements, digits: int) -> Fraction:
    """sum over coordinates q and digits j of 2 b 3^-(1 + q + j width), with
    b bit j of floor(x 2^digits) (x = 1 keeps all ones)."""
    flat = [float(x) for x in np.ravel(elements)]
    width, total = len(flat), len(flat) * digits
    num = 0
    for q, x in enumerate(flat):
        n = min(math.floor(x * 2**digits), 2**digits - 1)
        for j in range(digits):
            b = (n >> (digits - 1 - j)) & 1
            num += 2 * b * 3 ** (total - 1 - q - j * width)
    return Fraction(num, 3**total)


def relaxed_decode_oracle(u: float, width: int, digits: int) -> list[Fraction]:
    """The width coordinates read from the scalar u in [0, 1]: u is rounded
    to the nearest integer mantissa of width * digits ternary digits (ties
    to even, as a double product, capped at 3^total - 1), and coordinate q
    sums 2^-(j+1) over the j whose digit q + j width, counted from the most
    significant, is 2."""
    total = width * digits
    mantissa = min(round(u * 3**total), 3**total - 1)
    ternary = []
    for _ in range(total):
        mantissa, d = divmod(mantissa, 3)
        ternary.insert(0, d)
    return [sum(Fraction(int(ternary[q + j * width] == 2), 2 ** (j + 1)) for j in range(digits)) for q in range(width)]


def suppression_gap(cp, x, M: float, t_inputs: int = 1) -> float:
    """Exact relative gap T e^M / (S + T e^M) between the universal classical
    head over T inputs and the split head at finite M, S = sum_k
    exp(lam <x, p_alpha_k>) the prefix mass at x: the two heads share their
    numerator, so the projected classical output is split * S / (S + T e^M).
    Summed in log domain, because at working suppression levels the gap sits
    far below float subtraction resolution."""
    logits = cp.lam * (cp.p_alpha @ np.asarray(x, dtype=np.float64))
    peak = float(logits.max())
    log_mass = peak + math.log(float(np.exp(logits - peak).sum()))
    extra = M + math.log(t_inputs)
    return math.exp(extra - np.logaddexp(log_mass, extra))


def circle_head_oracle(z, values, lam: float, span: int) -> float:
    """The split head over the N anchors of the circle at the exact angles
    (j + 1/2) 2 pi / N, anchor j carrying values[j], at the angle of the
    point z, in 50-digit arithmetic: sum_j e^(lam (cos(theta - phi_j) - 1)) v_j
    over sum_j e^(lam (cos(theta - phi_j) - 1)), summed over the 2 span + 1
    anchors nearest theta (all N where they cover the circle)."""
    n = len(values)
    with mp.workdps(50):
        theta = mp.atan2(mp.mpf(float(z[1])), mp.mpf(float(z[0])))
        delta = 2 * mp.pi / n
        k = int(mp.floor(theta / delta))
        nearest = range(k - span, k + span + 1) if 2 * span + 1 < n else range(n)
        num = den = mp.mpf(0)
        for j in nearest:
            weight = mp.exp(lam * (mp.cos(theta - (j + mp.mpf(0.5)) * delta) - 1))
            num += weight * float(values[j % n])
            den += weight
        return float(num / den)
