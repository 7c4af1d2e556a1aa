"""Prefix synthesis: control points that make a head approximate a target.

The recipe is direct: partition the sphere into N equal-measure cells, put
one anchor at each cell center, and attach either the plain target value
(split-head mode) or the measure-weighted kernel coefficient (core-head
mode).  Error estimation, the near-constancy check of the softmax
denominator, and the any-length element-wise extension live here too.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import astuple, dataclass

import numpy as np

from .attention import (
    AttentionHeadParams,
    ControlPoints,
    PrefixTokens,
    assemble_prefix_tokens,
    build_universal_head,
    default_suppression,
    log_prefix_mass,
    split_head_batch,
)
from .bounds import SmoothnessSpec
from .errors import DimensionMismatch, DomainError, _positive, _real, _reals, _size
from .kernel import vmf_log_normalizer
from .sphere import Partition, equal_area_partition, uniform_sphere_sample

__all__ = [
    "TargetFunction",
    "ApproximationReport",
    "REPORT_COLUMNS",
    "make_target",
    "target_names",
    "synthesize_prefix",
    "synthesize_core_weights",
    "sup_error_estimate",
    "verify_denominator_constancy",
    "element_wise_extend",
]


@dataclass(frozen=True)
class TargetFunction:
    """Evaluable map S^m -> R^(m+1) with declared smoothness metadata.

    eval_batch takes an (n, m+1) array of unit vectors and returns an
    (n, m+1) array.  smoothness carries (L, C_H, C_R, f_sup).
    """

    m: int
    name: str
    eval_batch: object
    smoothness: SmoothnessSpec

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(_reals(points, "points"))
        out = _reals(self.eval_batch(pts), f"target {self.name!r} output")
        if out.shape != (pts.shape[0], self.m + 1):
            raise DimensionMismatch("target returned a wrongly shaped batch")
        return out


# ApproximationReport's fields, in their order, as CSV and JSON name them.
REPORT_COLUMNS = ["name", "m", "lambda", "N", "sup_error", "mean_error", "samples", "seed", "wall_time_ms"]


@dataclass(frozen=True)
class ApproximationReport:
    name: str
    m: int
    lam: float
    n_points: int
    sup_error: float
    mean_error: float
    samples: int
    seed: int
    wall_time_ms: float

    def __post_init__(self):
        for name in ("sup_error", "mean_error", "wall_time_ms"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0, ends="[)"))
        for name, least in (("m", 1), ("n_points", 1), ("samples", 1), ("seed", 0)):
            object.__setattr__(self, name, _size(getattr(self, name), name, least))
        object.__setattr__(self, "lam", _positive(self.lam, "lam"))

    def row(self) -> dict:
        """The fields keyed by REPORT_COLUMNS, in order: the one form of a
        report that the JSON payload and the CSV rows are written from."""
        return dict(zip(REPORT_COLUMNS, astuple(self)))


# ---------------------------------------------------------------------------
# Built-in target registry
# ---------------------------------------------------------------------------


def _constant_target(m: int) -> TargetFunction:
    vec = np.full(m + 1, 0.5)

    def ev(pts):
        return np.tile(vec, (pts.shape[0], 1))

    # A constant has zero modulus slope; L must stay positive, so declare a
    # negligible one.
    spec = SmoothnessSpec(L=1e-9, C_H=0.5, C_R=1.0, f_sup=0.5)
    return TargetFunction(m=m, name="constant", eval_batch=ev, smoothness=spec)


def _identity_target(m: int) -> TargetFunction:
    def ev(pts):
        return pts.copy()

    spec = SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1.0)
    return TargetFunction(m=m, name="identity", eval_batch=ev, smoothness=spec)


def _linear_target(m: int) -> TargetFunction:
    a = uniform_sphere_sample(m, 1, 2024)[0] * 1.5

    def ev(pts):
        return np.outer(pts @ a, a)

    norm_a = float(np.linalg.norm(a))
    max_comp = float(np.max(np.abs(a)))
    spec = SmoothnessSpec(L=norm_a * max_comp, C_H=norm_a * max_comp, C_R=1.0, f_sup=norm_a * max_comp)
    return TargetFunction(m=m, name="linear", eval_batch=ev, smoothness=spec)


def _bump_target(m: int) -> TargetFunction:
    sharpness = 6.0
    center = uniform_sphere_sample(m, 1, 77)[0]
    direction = np.zeros(m + 1)
    direction[0] = 1.0

    def ev(pts):
        vals = np.exp(sharpness * (np.clip(pts @ center, -1.0, 1.0) - 1.0))
        return np.outer(vals, direction)

    # max_t s e^{s(t-1)} sqrt(1-t^2) over [-1, 1], found on a dense grid once.
    ts = np.linspace(-1.0, 1.0, 200001)
    lip = float(np.max(sharpness * np.exp(sharpness * (ts - 1.0)) * np.sqrt(1.0 - ts * ts)))
    spec = SmoothnessSpec(L=lip, C_H=1.0, C_R=1.0, f_sup=1.0)
    return TargetFunction(m=m, name="bump", eval_batch=ev, smoothness=spec)


def _coordinate_max_target(m: int) -> TargetFunction:
    direction = np.zeros(m + 1)
    direction[0] = 1.0

    def ev(pts):
        return np.outer(np.max(pts, axis=1), direction)

    spec = SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1.0)
    return TargetFunction(m=m, name="coordinate-max", eval_batch=ev, smoothness=spec)


_REGISTRY = {
    "constant": _constant_target,
    "identity": _identity_target,
    "linear": _linear_target,
    "bump": _bump_target,
    "coordinate-max": _coordinate_max_target,
}


def target_names() -> list[str]:
    return sorted(_REGISTRY)


def make_target(name: str, m: int) -> TargetFunction:
    if not isinstance(name, str) or name not in _REGISTRY:
        raise DomainError(f"unknown target {name!r}; known: {', '.join(target_names())}")
    return _REGISTRY[name](_size(m, "m"))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def synthesize_prefix(f: TargetFunction, n_points: int, lam: float) -> ControlPoints:
    """Split-head control points: anchors at equal-area cell centers,
    values = target at the anchors."""
    lam = _positive(lam, "lam")
    centers = equal_area_partition(f.m, n_points).centers()
    return ControlPoints(m=f.m, lam=lam, p_alpha=centers, p_beta=f(centers))


def synthesize_core_weights(f: TargetFunction, part: Partition, lam: float) -> ControlPoints:
    """Core-head control points: values are the measure-weighted kernel
    coefficients c_{m+1}(lam) * f(b_k) * w(V_k) / w_m (no softmax intended).
    """
    if part.m != f.m:
        raise DimensionMismatch("partition dimension does not match target")
    centers = part.centers()
    c = math.exp(vmf_log_normalizer(f.m, lam))
    weights = part.measures() / part.measures().sum()
    xi = c * weights[:, None] * f(centers)
    return ControlPoints(m=f.m, lam=lam, p_alpha=centers, p_beta=xi)


def sup_error_estimate(f: TargetFunction, approx, n_samples: int, seed: int):
    """(sup, mean) of ||f(x) - approx(x)||_2 over uniform samples.

    approx maps the (n, m+1) batch to an (n, m+1) batch of finite reals, else
    DomainError (DimensionMismatch for a shape).  The seed is an integer >= 0
    and the sample stream is nested: a larger n_samples extends the same
    sequence, so the sup estimate can only grow.  Both values are lower bounds
    on the true sup norm.  approx is called once, on the whole batch.
    """
    pts = uniform_sphere_sample(f.m, _size(n_samples, "n_samples"), seed)
    exact, approximated = f(pts), _reals(approx(pts), "approx values")
    if approximated.shape != pts.shape:
        raise DimensionMismatch("approx must return an (n, m+1) batch")
    errs = np.linalg.norm(exact - approximated, axis=1)
    return float(errs.max()), float(errs.mean())


def verify_denominator_constancy(cp: ControlPoints, n_samples: int, seed: int) -> float:
    """sup over samples of |1 - (c_{m+1}(lam)/N) sum_k exp(lam <x, p_k>)|.

    The inner sum is evaluated in log domain; with anchors from an
    equal-measure partition the statistic shrinks as N grows.
    """
    pts = uniform_sphere_sample(cp.m, _size(n_samples, "n_samples"), seed)
    log_stat = vmf_log_normalizer(cp.m, cp.lam) - math.log(cp.n_points) + log_prefix_mass(cp, pts)
    return float(np.max(np.abs(1.0 - np.exp(log_stat))))


def element_wise_extend(cp: ControlPoints, M: float | None = None):
    """(PrefixTokens, AttentionHeadParams) valid for inputs of any length.

    Uses the augmented universal head, whose input-input logits are a flat
    M, so per-position outputs match independent single-input evaluations
    up to the finite-M slack.
    """
    if M is None:
        M = default_suppression(cp.lam, cp.n_points, extra=40.0)
    params = build_universal_head(cp.m, M, augmented=True)
    prefix = assemble_prefix_tokens(cp, M, augmented=True)
    return prefix, params


def run_approximation(
    f: TargetFunction, n_points: int, lam: float, n_samples: int, seed: int
) -> tuple[ApproximationReport, ControlPoints]:
    """Synthesize, estimate errors, and wrap the result in a report."""
    t0 = time.perf_counter()
    cp = synthesize_prefix(f, n_points, lam)
    sup, mean = sup_error_estimate(f, lambda pts: split_head_batch(cp, pts), n_samples, seed)
    wall = (time.perf_counter() - t0) * 1000.0
    report = ApproximationReport(
        name=f.name,
        m=f.m,
        lam=cp.lam,
        n_points=cp.n_points,
        sup_error=sup,
        mean_error=mean,
        samples=n_samples,
        seed=seed,
        wall_time_ms=wall,
    )
    return report, cp


def reports_to_csv(reports, include_wall_time: bool = True) -> str:
    """CSV text, header first, of the reports' rows (without wall_time_ms
    unless include_wall_time)."""
    buf = io.StringIO()
    cols = REPORT_COLUMNS if include_wall_time else REPORT_COLUMNS[:-1]
    writer = csv.DictWriter(buf, cols, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(r.row() for r in reports)
    return buf.getvalue()
