"""Geometry of the unit hypersphere S^m in R^(m+1).

Unit-vector checks, cap areas, equal-measure zonal partitions and uniform
sampling.
The zonal partition follows the recursive cap/collar scheme: polar caps of
the target cell area, collars whose colatitude boundaries are refit so each
collar holds an integer number of exactly equal-measure cells, and a
recursive partition of S^(m-1) inside each collar.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, _real, _reals, _size
from .specialfn import log_gamma, reg_inc_beta

__all__ = [
    "check_finite_unit",
    "Partition",
    "surface_area",
    "cap_area",
    "cap_colatitude",
    "equal_area_partition",
    "uniform_sphere_sample",
]

_UNIT_TOL = 1e-12


def check_finite_unit(points: np.ndarray) -> np.ndarray:
    """Refuse (DegenerateInput) a point, or a batch with coordinates on the
    last axis, unless it holds reals and every point is finite with unit norm
    (a NaN or inf norm fails the tolerance comparison); returns it as float64."""
    points = _reals(points, "points", None, error=DegenerateInput)
    dev = np.abs(_row_norms(points) - 1.0).max(initial=0.0)
    if not dev <= _UNIT_TOL:
        raise DegenerateInput("points must be finite unit vectors")
    return points


def as_unit_vector(x) -> np.ndarray:
    """Coerce an array-like to a validated unit vector."""
    c = _reals(x, "unit vector", None, error=DegenerateInput)
    if c.ndim != 1 or c.size < 2:
        raise DimensionMismatch("expected a single vector of length >= 2")
    return check_finite_unit(c)


def surface_area(m: int) -> float:
    """Total surface measure of S^m: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    # Checked outside the cache, where 2.0 and True would hit the entries
    # of 2 and 1.
    return _surface_area(_size(m, "m"))


@functools.cache
def _surface_area(m: int) -> float:
    """surface_area for an m already checked: the module's own calls."""
    h = (m + 1) / 2.0
    return math.exp(math.log(2.0) + h * math.log(math.pi) - log_gamma(h))


def _cap_measure(m: int, s2: float, c: float) -> float:
    """Area of the cap of colatitude phi on S^m from s2 = sin^2 phi and
    c = cos phi: w_m/2 * I_{s2}(m/2, 1/2) near a pole, and the same value as
    w_m/2 * (1 - I_{c^2}(1/2, m/2)) near the equator, where sin^2 is flat."""
    w = _surface_area(m)
    if s2 < 0.5:
        half = 0.5 * w * reg_inc_beta(s2, m / 2.0, 0.5)
    else:
        half = 0.5 * w * (1.0 - reg_inc_beta(c * c, 0.5, m / 2.0))
    return half if c >= 0.0 else w - half


def cap_area(m: int, delta: float) -> float:
    """Area of the cap {y : <y, pole> >= 1 - delta} for delta in (0, 1]:
    colatitude phi = arccos(1 - delta), so sin^2 phi = delta(2 - delta)."""
    m, delta = _size(m, "m"), _real(delta, "delta", 0.0, 1.0, "(]")
    return _cap_measure(m, delta * (2.0 - delta), 1.0 - delta)


def _colat_area(m: int, theta: float) -> float:
    """Area of the colatitude cap [0, theta] about the pole, theta in [0, pi]."""
    return _cap_measure(m, math.sin(theta) ** 2, math.cos(theta))


def cap_colatitude(m: int, area: float) -> float:
    """Inverse of the colatitude-cap area on [0, pi], by _invert_colat_area
    from the equator over the bracket [0, pi]."""
    m = _size(m, "m")
    w = _surface_area(m)
    area = _real(area, "cap area", 0.0, w * (1.0 + 1e-12), "[]")
    if area <= 0.0:
        return 0.0
    if area >= w:
        return math.pi
    return _invert_colat_area(m, area, 0.0, math.pi, 0.5 * math.pi)


def _invert_colat_area(m: int, area: float, lo: float, hi: float, theta: float) -> float:
    """The colatitude in the bracket [lo, hi] whose cap has the given area,
    for an area strictly between 0 and w_m, starting from theta inside it.

    Newton's method with the closed-form derivative w_(m-1) sin^(m-1) theta
    (2 on the circle), narrowing the bracket around the root and taking a
    bisection step whenever an iterate would leave it.  It stops after a
    Newton step below 1e-9 of theta: convergence is quadratic there, so the
    error left is of the order of that step squared.
    """
    slope = 2.0 if m == 1 else _surface_area(m - 1)
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

    def locate_batch(self, points) -> np.ndarray:
        """Cell indices for an (n, m+1) array of unit vectors."""
        pts = _reals(points, "points", None, error=DegenerateInput)
        if pts.ndim != 2 or pts.shape[1] != self.m + 1:
            raise DimensionMismatch("points must have shape (n, m+1)")
        return self._locator.locate_batch(check_finite_unit(pts))


class _ZonalLocator:
    """Band lookup by colatitude about the last axis, then a sub-locator
    on S^(m-1) inside each collar.

    locate_batch sorts the points by band once, normalizes all their
    horizontal parts in one pass, and hands each collar its contiguous
    slice of the sorted points.
    """

    def __init__(self, boundaries, groups):
        self.boundaries = boundaries  # colatitude boundaries incl. 0 and pi
        self.groups = groups  # list of (first_index, count, sub-locator or None)

    def locate_batch(self, pts: np.ndarray) -> np.ndarray:
        theta = np.arccos(np.clip(pts[:, -1], -1.0, 1.0))
        band = np.clip(np.searchsorted(self.boundaries, theta, side="right") - 1, 0, len(self.groups) - 1)
        # the narrowest unsigned type, whose stable sort numpy does by radix
        band = band.astype(np.min_scalar_type(len(self.groups)))
        order = np.argsort(band, kind="stable")
        ends = np.cumsum(np.bincount(band, minlength=len(self.groups))).tolist()
        horiz = pts[order, :-1]
        norms = _row_norms(horiz)
        norms[norms == 0.0] = 1.0
        horiz /= norms[:, None]
        cells = np.empty(pts.shape[0], dtype=np.int64)
        for (first, count, sub), lo, hi in zip(self.groups, [0, *ends], ends):
            if sub is None or count == 1:
                cells[lo:hi] = first
            elif lo < hi:
                cells[lo:hi] = first + sub.locate_batch(horiz[lo:hi])
        out = np.empty_like(cells)
        out[order] = cells
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
    centers = np.empty((n, 2))
    np.cos(mids, out=centers[:, 0])
    np.sin(mids, out=centers[:, 1])
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
    w = _surface_area(m)
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

    # The ideal collar boundaries and their cap areas, with both poles.
    grid = [0.0, *(theta_c + i * (math.pi - 2.0 * theta_c) / n_collars for i in range(n_collars + 1)), math.pi]
    areas = [0.0, *(_colat_area(m, theta) for theta in grid[1:-1]), w]

    # Ideal cell counts per collar, rounded half up with a running remainder
    # so the total is exact; the 1e-9 allowance keeps exact ties (such as two
    # collars of 30.5 cells) from being split by rounding noise in the areas.
    counts = []
    remainder = 0.0
    left = n - 2
    for i in range(1, n_collars + 1):
        ideal = (areas[i + 1] - areas[i]) / v_r
        ni = min(max(math.floor(ideal + remainder + 0.5 + 1e-9), 0), left)
        remainder += ideal - ni
        left -= ni
        counts.append(ni)
    counts[-1] += left
    counts = [c for c in counts if c > 0]

    # Refit colatitude boundaries from cumulative counts: the cap above
    # collar j holds cum[j] cells, so collar j has area counts[j] * v_r
    # exactly, and the last boundary caps all but the south pole's cell.
    # Each boundary's Newton iteration starts at the linear interpolation
    # between the two ideal grid points whose areas straddle its target.
    cum = list(itertools.accumulate(counts, initial=1))
    boundaries = [0.0, theta_c]
    for cells in cum[1:]:
        target = v_r * cells
        k = bisect.bisect_right(areas, target)
        lo, hi = grid[k - 1], grid[k]
        start = lo + (target - areas[k - 1]) / (areas[k] - areas[k - 1]) * (hi - lo)
        boundaries.append(_invert_colat_area(m, target, lo, hi, start))
    boundaries.append(math.pi)

    # Each collar's mid colatitude, half-width and largest sine, repeated
    # over its cells and multiplied into its sub-partition's centers and
    # radii where they land in the result.  The sines and cosines are
    # math's, not numpy's, whose SIMD kernels may round differently by CPU.
    for cj in counts:
        if (m - 1, cj) not in built:
            built[m - 1, cj] = _partition_recursive(m - 1, cj, built)
    per_collar = []
    for a, b in zip(boundaries[1:-2], boundaries[2:-1]):
        theta_mid = 0.5 * (a + b)
        sin_max = 1.0 if a <= math.pi / 2.0 <= b else max(math.sin(a), math.sin(b))
        per_collar.append((math.sin(theta_mid), math.cos(theta_mid), 0.5 * (b - a), sin_max))
    sin_mid, cos_mid, half, sin_max = np.array(per_collar).T
    centers = np.empty((n, m + 1))
    centers[0], centers[-1] = pole[0], -pole[0]
    collars = centers[1:-1]
    np.concatenate([built[m - 1, cj][0] for cj in counts], out=collars[:, :-1])
    scale = np.repeat(sin_mid, counts)
    for k in range(m):  # a column at a time: the broadcast (n, m) product is slower
        collars[:, k] *= scale
    collars[:, -1] = np.repeat(cos_mid, counts)
    radii = np.empty(n)
    radii[0], radii[-1] = theta_c, math.pi - boundaries[-2]
    reach = radii[1:-1]
    np.concatenate([built[m - 1, cj][1] for cj in counts], out=reach)
    reach *= np.repeat(sin_max, counts)
    reach += np.repeat(half, counts)
    np.minimum(reach, math.pi, out=reach)
    groups = [(0, 1, None), *((first, cj, built[m - 1, cj][2]) for first, cj in zip(cum, counts)), (n - 1, 1, None)]
    return centers, radii, _ZonalLocator(np.array(boundaries), groups)


def equal_area_partition(m: int, n: int) -> Partition:
    """Partition S^m into n cells of exactly equal measure w_m / n, with
    per-cell geodesic radius bounds; the construction is deterministic.

    m and n must be integers >= 1 (Python or numpy, not bool); anything
    else is refused with DomainError.
    """
    m, n = _size(m, "m"), _size(n, "N")
    centers, radii, locator = _partition_recursive(m, n, {})
    # the top-level directions are always freshly built, never a shared
    # sub-partition, so they are normalized in place
    centers /= _row_norms(centers)[:, None]
    return Partition(m, centers, np.full(n, _surface_area(m) / n), np.minimum(radii, _RADIUS_CAP), locator)


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Euclidean norms of g along its last axis, whatever its leading shape,
    rounded as np.linalg.norm(g, axis=-1) rounds them.

    numpy sums a row of fewer than 8 squares left to right, which a fold
    over the columns repeats without a temporary of squares the size of g;
    from 8 columns on it sums pairwise, so those widths keep numpy's norm.
    Neither path calls BLAS, so the bits are the same under every BLAS
    kernel, which the partition centers rely on (equal_area_partition).
    """
    if g.shape[-1] >= 8:
        return np.linalg.norm(g, axis=-1)
    s = np.multiply(g[..., 0], g[..., 0], out=np.empty(g.shape[:-1]))
    for j in range(1, g.shape[-1]):
        s += g[..., j] * g[..., j]
    return np.sqrt(s, out=s)


def uniform_sphere_sample(m: int, count: int, seed: int) -> np.ndarray:
    """(count, m+1) array of i.i.d. uniform points on S^m.

    Gaussian normalization: each row of ``default_rng(seed).standard_normal``
    is divided in place by its norm, and the points equal
    ``g / np.linalg.norm(g, axis=1, keepdims=True)`` bit for bit.
    Deterministic given the seed, an integer >= 0 (not None, a bool or a
    float), and sample sets nest: a count-n draw starts with the count-k draw.
    """
    m, count = _size(m, "m"), _size(count, "count")
    rng = np.random.default_rng(_size(seed, "seed", 0))
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
