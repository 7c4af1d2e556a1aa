"""Oracles the tests share, kept out of the library they check."""

from vmfhead.errors import DomainError


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
