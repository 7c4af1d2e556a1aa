"""Machine-speed probe: a fixed computation that uses no vmfhead code.

On a shared machine the speed of one core drifts by 20% and more over tens
of seconds, so two runs of the same program a minute apart can differ more
than the bounds allow.  The probe runs before the first timed section of a
round and after each section.  `slowness()` turns a probe time into a
factor (1.0 at the nominal speed of the machine the constants were taken
on, 1.2 when it currently runs 20% slower), and each timed section is
divided by the mean factor of the probes on its two sides.  The probe
mixes the two kinds of work the workloads do: an interpreted loop of scalar arithmetic and function calls, like the
partition's bisection over a continued fraction, and dense numpy softmax
blocks, like head evaluation.
"""

from __future__ import annotations

import time

import numpy as np

# Probe part times (s) at nominal speed, taken on the reference machine
# (2-core x86-64 VM, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread) as
# the middle of the medians of several 200-probe series, which ranged over
# 0.018-0.031 s and 0.023-0.030 s.  They only fix the scale of the
# reported times.
NOMINAL_PY_S = 0.0225
NOMINAL_NP_S = 0.0265

_rng = np.random.default_rng(20240222)
_QUERIES = _rng.standard_normal((256, 3))
_KEYS = _rng.standard_normal((4096, 3))


def _continued_fraction(x: float, a: float, b: float) -> float:
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1) * (a + m2)), -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _python_part(n: int = 800) -> float:
    total = 0.0
    for i in range(n):
        lo, hi = 0.0, 1.0
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            if _continued_fraction(0.5 * mid, 2.5 + i % 3, 0.5) < 1.0:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def _numpy_part(reps: int = 2) -> float:
    total = 0.0
    for _ in range(reps):
        logits = _QUERIES @ _KEYS.T
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        total += float((w @ _KEYS).sum())
    return total


def slowness() -> float:
    """Current slowness factor: mean of the two parts' time over nominal.

    A short untimed pass first refills the caches the previous section
    evicted; without it a probe taken right after a subprocess or a large
    numpy section reads up to 3x slow.
    """
    _python_part(200)
    _numpy_part(1)
    t0 = time.perf_counter()
    _python_part()
    t1 = time.perf_counter()
    _numpy_part()
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / NOMINAL_PY_S + (t2 - t1) / NOMINAL_NP_S)
