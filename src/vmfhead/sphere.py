"""Geometry of the unit hypersphere S^m in R^(m+1).

Points, geodesics, cap areas, equal-measure zonal partitions, uniform
sampling, and the stereographic maps between the sphere and flat space.
The zonal partition follows the recursive cap/collar scheme: polar caps of
the target cell area, collars whose colatitude boundaries are refit so each
collar holds an integer number of exactly equal-measure cells, and a
recursive partition of S^(m-1) inside each collar.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, DomainError, PoleSingularity
from .specialfn import log_gamma, reg_inc_beta

__all__ = [
    "SpherePoint",
    "check_finite_unit",
    "Partition",
    "project_to_sphere",
    "geodesic_distance",
    "surface_area",
    "cap_area",
    "cap_colatitude",
    "equal_area_partition",
    "uniform_sphere_sample",
    "stereographic",
    "stereographic_inverse",
]

_UNIT_TOL = 1e-12


def check_finite_unit(points: np.ndarray) -> np.ndarray:
    """Refuse a point, or a batch with coordinates on the last axis, unless
    every point is finite with unit norm (a NaN or inf norm fails the
    tolerance comparison); returns the array unchanged."""
    if points.ndim == 1:
        dev = abs(np.linalg.norm(points) - 1.0)
    else:
        dev = np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0), initial=0.0)
    if not dev <= _UNIT_TOL:
        raise DegenerateInput("points must be finite unit vectors")
    return points


@dataclass(frozen=True)
class SpherePoint:
    """A unit vector in R^(m+1); the domain element of every target function."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 1 or c.size < 2:
            raise DimensionMismatch("a sphere point needs at least 2 coordinates")
        check_finite_unit(c)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def m(self) -> int:
        return self.coords.size - 1


def as_unit_vector(x) -> np.ndarray:
    """Coerce a SpherePoint or array-like to a validated unit vector."""
    if isinstance(x, SpherePoint):
        return x.coords
    c = np.asarray(x, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise DimensionMismatch("expected a single vector of length >= 2")
    return check_finite_unit(c)


def project_to_sphere(v) -> SpherePoint:
    """Normalize a nonzero vector onto S^m."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise DimensionMismatch("expected a vector of length >= 2")
    n = np.linalg.norm(v)
    if n == 0.0 or not np.isfinite(n):
        raise DegenerateInput("cannot project a zero or non-finite vector")
    return SpherePoint(v / n)


def geodesic_distance(x, y) -> float:
    """Great-circle distance arccos(<x, y>) in [0, pi].

    The inner product is clamped to [-1, 1] before arccos as a
    floating-point guard.
    """
    xv = as_unit_vector(x)
    yv = as_unit_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatch(f"dimension mismatch: {xv.size} vs {yv.size}")
    return float(math.acos(min(1.0, max(-1.0, float(np.dot(xv, yv))))))


@functools.cache
def surface_area(m: int) -> float:
    """Total surface measure of S^m: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 1:
        raise DomainError(f"surface_area requires m >= 1, got {m}")
    h = (m + 1) / 2.0
    return math.exp(math.log(2.0) + h * math.log(math.pi) - log_gamma(h))


def _cap_measure(m: int, s2: float, c: float) -> float:
    """Area of the cap of colatitude phi on S^m from s2 = sin^2 phi and
    c = cos phi: w_m/2 * I_{s2}(m/2, 1/2) near a pole, and the same value as
    w_m/2 * (1 - I_{c^2}(1/2, m/2)) near the equator, where sin^2 is flat."""
    w = surface_area(m)
    if s2 < 0.5:
        half = 0.5 * w * reg_inc_beta(s2, m / 2.0, 0.5)
    else:
        half = 0.5 * w * (1.0 - reg_inc_beta(c * c, 0.5, m / 2.0))
    return half if c >= 0.0 else w - half


def cap_area(m: int, delta: float) -> float:
    """Area of the cap {y : <y, pole> >= 1 - delta} for delta in (0, 1]:
    colatitude phi = arccos(1 - delta), so sin^2 phi = delta(2 - delta)."""
    if m < 1:
        raise DomainError(f"cap_area requires m >= 1, got {m}")
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"cap_area requires delta in (0, 1], got {delta}")
    return _cap_measure(m, delta * (2.0 - delta), 1.0 - delta)


def _colat_area(m: int, theta: float) -> float:
    """Area of the colatitude cap [0, theta] about the pole, theta in [0, pi]."""
    return _cap_measure(m, math.sin(theta) ** 2, math.cos(theta))


def cap_colatitude(m: int, area: float) -> float:
    """Inverse of the colatitude-cap area on [0, pi].

    Newton's method with the closed-form derivative w_(m-1) sin^(m-1) theta
    (2 on the circle), keeping a bracket [lo, hi] around the root and taking
    a bisection step whenever an iterate would leave it.  It stops after a
    Newton step below 1e-9 of theta: convergence is quadratic there, so the
    error left is of the order of that step squared.
    """
    w = surface_area(m)
    if not (0.0 <= area <= w * (1.0 + 1e-12)):
        raise DomainError(f"cap area {area} outside [0, {w}]")
    if area <= 0.0:
        return 0.0
    if area >= w:
        return math.pi
    slope = 2.0 if m == 1 else surface_area(m - 1)
    lo, hi, theta = 0.0, math.pi, 0.5 * math.pi
    for _ in range(100):
        err = _colat_area(m, theta) - area
        if err == 0.0:
            return theta
        if err < 0.0:
            lo = theta
        else:
            hi = theta
        d = slope * math.sin(theta) ** (m - 1)
        new = theta - err / d if d > 0.0 else lo
        if lo < new < hi:
            if abs(new - theta) <= 1e-9 * new:
                return new
        else:
            new = 0.5 * (lo + hi)
        if new == theta:
            return theta
        theta = new
    return theta


# ---------------------------------------------------------------------------
# Equal-area zonal partition
# ---------------------------------------------------------------------------


_RADIUS_CAP = math.pi * (1.0 - 1e-12)


@dataclass(frozen=True, eq=False)
class Partition:
    """Decomposition of S^m into N cells, held as three read-only arrays:
    centers (N, m+1), measures (N,) and geodesic radius bounds (N,), plus
    the zonal scheme's band locator.
    """

    m: int
    _centers: np.ndarray = field(repr=False)
    _measures: np.ndarray = field(repr=False)
    _radii: np.ndarray = field(repr=False)
    _locator: object = field(repr=False)

    def __post_init__(self):
        for a in (self._centers, self._measures, self._radii):
            a.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self._centers.shape[0]

    def centers(self) -> np.ndarray:
        return self._centers

    def measures(self) -> np.ndarray:
        return self._measures

    def radii(self) -> np.ndarray:
        return self._radii

    def locate(self, x) -> int:
        """Index of the cell containing a point: one row of locate_batch."""
        xv = as_unit_vector(x)
        if xv.size != self.m + 1:
            raise DimensionMismatch("point dimension does not match partition")
        return int(self.locate_batch(xv[None])[0])

    def locate_batch(self, points) -> np.ndarray:
        """Cell indices for an (n, m+1) array of unit vectors."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.m + 1:
            raise DimensionMismatch("points must have shape (n, m+1)")
        return self._locator.locate_batch(check_finite_unit(pts))

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "cells": [
                {
                    "center": [repr(float(v)) for v in c],
                    "measure": repr(float(w)),
                    "radius_bound": repr(float(r)),
                }
                for c, w, r in zip(self._centers, self._measures, self._radii)
            ],
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Partition":
        """Inverse of to_json.  The payload is rebuilt as
        equal_area_partition(m, N), so the copy keeps the zonal locator, and
        is refused unless its arrays equal the rebuilt ones bit for bit."""
        try:
            payload = json.loads(text)
            m = int(payload["m"])
            cells = payload["cells"]
            centers = np.array([[float(v) for v in c["center"]] for c in cells], dtype=np.float64)
            measures = np.array([float(c["measure"]) for c in cells])
            radii = np.array([float(c["radius_bound"]) for c in cells])
        except (KeyError, TypeError, ValueError):
            raise DomainError("partition payload has missing keys, ragged rows or non-numeric entries") from None
        part = equal_area_partition(m, len(cells))
        if not all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in ((centers, part.centers()), (measures, part.measures()), (radii, part.radii()))
        ):
            raise DomainError("zonal partition payload differs from equal_area_partition(m, N)")
        return part


class _ZonalLocator:
    """Band lookup by colatitude about the last axis, then a sub-locator
    on S^(m-1) inside each collar."""

    def __init__(self, boundaries, groups):
        self.boundaries = boundaries  # colatitude boundaries incl. 0 and pi
        self.groups = groups  # list of (first_index, count, sub-locator or None)

    def locate_batch(self, pts: np.ndarray) -> np.ndarray:
        theta = np.arccos(np.clip(pts[:, -1], -1.0, 1.0))
        band = np.clip(np.searchsorted(self.boundaries, theta, side="right") - 1, 0, len(self.groups) - 1)
        out = np.empty(pts.shape[0], dtype=np.int64)
        for b, (first, count, sub) in enumerate(self.groups):
            sel = band == b
            if not np.any(sel):
                continue
            if sub is None or count == 1:
                out[sel] = first
                continue
            horiz = pts[sel, :-1]
            norms = np.linalg.norm(horiz, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            out[sel] = first + sub.locate_batch(horiz / norms)
        return out


class _ArcLocator:
    def __init__(self, n):
        self.n = n

    def locate_batch(self, pts: np.ndarray) -> np.ndarray:
        phi = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
        return np.minimum((phi / (2.0 * math.pi / self.n)).astype(np.int64), self.n - 1)


def _partition_circle(n: int):
    """n equal arcs of the circle; returns (centers, radii, locator)."""
    width = 2.0 * math.pi / n
    mids = np.arange(n) * width + width / 2.0
    centers = np.column_stack([np.cos(mids), np.sin(mids)])
    return centers, np.full(n, min(width / 2.0, math.pi)), _ArcLocator(n)


def _partition_recursive(m: int, n: int, built: dict):
    """Equal-measure zonal partition of S^m into n cells.

    Returns (centers, radii, locator): unnormalized cell center directions
    (n, m+1), geodesic radius bounds (n,), and the band locator.  All cells
    have measure w_m / n exactly by construction (colatitude boundaries are
    refit from cumulative cell counts, and the within-collar split recurses
    on S^(m-1)).

    `built` maps (m', n') to the triple already returned for it within the
    current equal_area_partition call: collars with the same cell count
    share one sub-partition, built once.  Nothing writes to these arrays
    and the locators hold no state, so sharing them is safe.
    """
    if m == 1:
        return _partition_circle(n)
    w = surface_area(m)
    pole = np.zeros((1, m + 1))
    pole[0, -1] = 1.0
    if n == 1:
        return pole, np.array([math.pi]), _ZonalLocator(np.array([0.0, math.pi]), [(0, 1, None)])
    if n == 2:
        locator = _ZonalLocator(np.array([0.0, math.pi / 2.0, math.pi]), [(0, 1, None), (1, 1, None)])
        return np.vstack([pole, -pole]), np.full(2, math.pi / 2.0), locator

    v_r = w / n
    theta_c = cap_colatitude(m, v_r)
    delta_i = v_r ** (1.0 / m)
    n_collars = max(1, round((math.pi - 2.0 * theta_c) / delta_i))

    # Ideal cell counts per collar, rounded half up with a running remainder
    # so the total is exact; the 1e-9 allowance keeps exact ties (such as two
    # collars of 30.5 cells) from being split by rounding noise in the areas.
    ideal_areas = [_colat_area(m, theta_c + i * (math.pi - 2.0 * theta_c) / n_collars) for i in range(n_collars + 1)]
    counts = []
    remainder = 0.0
    budget = n - 2
    for i in range(n_collars):
        ideal = (ideal_areas[i + 1] - ideal_areas[i]) / v_r
        ni = math.floor(ideal + remainder + 0.5 + 1e-9)
        ni = min(max(ni, 0), budget - sum(counts))
        remainder += ideal - ni
        counts.append(ni)
    counts[-1] += budget - sum(counts)
    counts = [c for c in counts if c > 0]

    # Refit colatitude boundaries from cumulative counts: collar j then has
    # area counts[j] * v_r exactly.
    cum = [1]
    for c in counts:
        cum.append(cum[-1] + c)
    boundaries = [0.0, theta_c]
    for j in range(len(counts) - 1):
        boundaries.append(cap_colatitude(m, v_r * cum[j + 1]))
    south_colat = cap_colatitude(m, v_r * (n - 1))
    boundaries.append(south_colat)
    boundaries.append(math.pi)

    centers = [pole]
    radii = [np.array([theta_c])]
    groups = [(0, 1, None)]
    index = 1
    for j, cj in enumerate(counts):
        a, b = boundaries[1 + j], boundaries[2 + j]
        if (m - 1, cj) not in built:
            built[m - 1, cj] = _partition_recursive(m - 1, cj, built)
        sub_centers, sub_radii, sub_locator = built[m - 1, cj]
        theta_mid = 0.5 * (a + b)
        sin_max = 1.0 if a <= math.pi / 2.0 <= b else max(math.sin(a), math.sin(b))
        collar = np.empty((cj, m + 1))
        collar[:, :-1] = math.sin(theta_mid) * sub_centers
        collar[:, -1] = math.cos(theta_mid)
        centers.append(collar)
        radii.append(np.minimum(0.5 * (b - a) + sin_max * sub_radii, math.pi))
        groups.append((index, cj, sub_locator))
        index += cj
    centers.append(-pole)
    radii.append(np.array([math.pi - south_colat]))
    groups.append((index, 1, None))
    return np.vstack(centers), np.concatenate(radii), _ZonalLocator(np.array(boundaries), groups)


def _size(value, name: str, least: int = 1) -> int:
    """A size argument as a Python int via operator.index, at least `least`;
    bools, floats (integral ones too), NaN and smaller values are refused
    with DomainError."""
    try:
        if not isinstance(value, bool):
            size = operator.index(value)
            if size >= least:
                return size
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def equal_area_partition(m: int, n: int) -> Partition:
    """Partition S^m into n cells of exactly equal measure w_m / n, with
    per-cell geodesic radius bounds; the construction is deterministic.

    m and n must be integers >= 1 (Python or numpy, not bool); anything
    else is refused with DomainError.
    """
    m, n = _size(m, "m"), _size(n, "N")
    directions, radii, locator = _partition_recursive(m, n, {})
    # Row-wise sqrt(<c, c>) as a stacked matmul rounds like np.linalg.norm of
    # a single row; norm(axis=1) and einsum differ from it by an ulp.
    norms = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0])
    centers = directions / norms[:, None]
    return Partition(m, centers, np.full(n, surface_area(m) / n), np.minimum(radii, _RADIUS_CAP), locator)


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of g, rounded as np.linalg.norm(g, axis=1)
    rounds them.

    numpy sums a row of fewer than 8 squares left to right, which a fold
    over the columns repeats without an (n, k) temporary of squares; from 8
    columns on it sums pairwise, so those widths keep numpy's norm.
    """
    if g.shape[1] >= 8:
        return np.linalg.norm(g, axis=1)
    s = g[:, 0] * g[:, 0]
    for j in range(1, g.shape[1]):
        s += g[:, j] * g[:, j]
    return np.sqrt(s, out=s)


def uniform_sphere_sample(m: int, count: int, seed: int) -> np.ndarray:
    """(count, m+1) array of i.i.d. uniform points on S^m.

    Gaussian normalization: each row of ``default_rng(seed).standard_normal``
    is divided in place by its norm, and the points equal
    ``g / np.linalg.norm(g, axis=1, keepdims=True)`` bit for bit.
    Deterministic given the seed, and the first k rows of a count-n draw
    equal the full count-k draw, so sample sets nest.
    """
    if m < 1:
        raise DomainError(f"uniform_sphere_sample requires m >= 1, got {m}")
    if count < 1:
        raise DomainError(f"uniform_sphere_sample requires count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, m + 1))
    norms = _row_norms(g)
    # A row of exact zeros has probability zero; regenerate defensively.
    bad = norms == 0
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), m + 1))
        norms = _row_norms(g)
        bad = norms == 0
    g /= norms[:, None]
    return g


def stereographic_batch(x: np.ndarray) -> np.ndarray:
    """The projections x[:m] / (1 - x[m]) of the rows of an (n, m+1) array; a row at the pole gives inf or NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return x[:, :-1] / (1.0 - x[:, -1:])


def stereographic_inverse_batch(y: np.ndarray) -> np.ndarray:
    """The rows (2y, |y|^2 - 1) / (|y|^2 + 1) on S^m of an (n, m) array."""
    s = np.einsum("ij,ij->i", y, y)[:, None]
    return np.concatenate([2.0 * y / (s + 1.0), (s - 1.0) / (s + 1.0)], axis=1)


def stereographic(x) -> np.ndarray:
    """Stereographic projection (x_1..x_m) / (1 - x_{m+1}) from the pole."""
    xv = as_unit_vector(x)
    if xv[-1] >= 1.0 - 1e-15:
        raise PoleSingularity("stereographic projection undefined at the pole")
    return stereographic_batch(xv[None])[0]


def stereographic_inverse(y) -> SpherePoint:
    """Inverse stereographic map R^m -> S^m; 0 maps to the south pole (0, ..., 0, -1)."""
    return project_to_sphere(stereographic_inverse_batch(np.atleast_1d(np.asarray(y, dtype=np.float64))[None])[0])
