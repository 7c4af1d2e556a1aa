"""Sphere geometry: caps, partitions, sampling."""

import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmfhead.specialfn as spf
import vmfhead.sphere as sph
from vmfhead.errors import DomainError
from vmfhead.sphere import (
    Partition,
    cap_area,
    cap_colatitude,
    equal_area_partition,
    surface_area,
    uniform_sphere_sample,
)


class TestAreas:
    def test_surface_area(self):
        np.testing.assert_allclose(surface_area(1), 2 * math.pi, rtol=1e-14)
        np.testing.assert_allclose(surface_area(2), 4 * math.pi, rtol=1e-14)
        np.testing.assert_allclose(surface_area(3), 2 * math.pi**2, rtol=1e-14)
        with pytest.raises(DomainError):
            surface_area(0)

    def test_cap_area(self):
        for m in (1, 2, 5, 9):
            np.testing.assert_allclose(cap_area(m, 1.0), surface_area(m) / 2, rtol=1e-12)
        np.testing.assert_allclose(cap_area(2, 0.5), math.pi, rtol=1e-12)
        assert cap_area(2, 1e-9) <= 1e-7
        with pytest.raises(DomainError):
            cap_area(2, 0.0)
        with pytest.raises(DomainError):
            cap_area(2, 1.5)

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_cap_area_against_mpmath(self, m):
        with mp.workdps(40):
            half = mp.pi ** (mp.mpf(m + 1) / 2) / mp.gamma(mp.mpf(m + 1) / 2)
            for delta in (1e-12, 1e-6, 0.3, 1.0 - 1e-12, 1.0):
                d = mp.mpf(delta)
                ref = half * mp.betainc(mp.mpf(m) / 2, 0.5, 0, d * (2 - d), regularized=True)
                assert abs(cap_area(m, delta) / ref - 1) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_cap_colatitude_inverts_the_area(self, m):
        """The cap at cap_colatitude(m, k w_m/N) has area k w_m/N, measured as
        w_(m-1) times the integral of sin^(m-1) by mpmath quadrature."""
        n = 4096
        w = surface_area(m)
        with mp.workdps(40):
            w_m = 2 * mp.pi ** (mp.mpf(m + 1) / 2) / mp.gamma(mp.mpf(m + 1) / 2)
            w_rim = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
            for k in (1, n // 4, n // 2, 3 * n // 4, n - 1):
                theta = mp.mpf(cap_colatitude(m, k * w / n))
                area = w_rim * mp.quad(lambda t: mp.sin(t) ** (m - 1), [0, theta])
                assert abs(area / (k * w_m / n) - 1) <= 1e-13
        assert abs(cap_colatitude(m, w / 2) - math.pi / 2) <= 1e-15


class TestEqualAreaPartition:
    def test_single_cell(self):
        p = equal_area_partition(2, 1)
        assert p.n_cells == 1
        np.testing.assert_allclose(p.measures()[0], surface_area(2), rtol=1e-14)

    def test_two_hemispheres(self):
        p = equal_area_partition(2, 2)
        assert p.n_cells == 2
        for w in p.measures():
            np.testing.assert_allclose(w, 2 * math.pi, rtol=1e-14)

    def test_measures_and_radii(self):
        for m, n in ((1, 17), (2, 100), (3, 64), (4, 128), (8, 512)):
            p = equal_area_partition(m, n)
            assert p.n_cells == n
            measures = p.measures()
            np.testing.assert_allclose(measures.sum(), surface_area(m), rtol=1e-6)
            np.testing.assert_allclose(measures, surface_area(m) / n, rtol=1e-9)
            assert all(r < math.pi for r in p.radii())

    def test_centers_inside_cells(self):
        for m, n in ((2, 100), (3, 50), (4, 128)):
            p = equal_area_partition(m, n)
            for i, c in enumerate(p.centers()):
                assert p.locate_batch(c[None])[0] == i

    def test_monte_carlo_measures(self):
        """Cell membership counts over 1e6 uniform points match the equal
        measures within 3 sigma of the binomial deviation."""
        n = 100
        p = equal_area_partition(2, n)
        pts = uniform_sphere_sample(2, 10**6, seed=20240811)
        counts = np.bincount(p.locate_batch(pts), minlength=n)
        expected = 10**6 / n
        sigma = math.sqrt(10**6 * (1 / n) * (1 - 1 / n))
        assert np.max(np.abs(counts - expected)) <= 3.0 * sigma

    @pytest.mark.parametrize("n", [1, 2, 3, 4096, 65536])
    def test_circle_centers_match_scalar_trigonometry(self, n):
        """The arc midpoints come out of np.cos / np.sin exactly as out of
        math.cos / math.sin, each row divided by its norm sqrt(c*c + s*s)
        in scalar IEEE arithmetic, which no BLAS kernel rounds."""
        width = 2.0 * math.pi / n
        rows = [np.array([math.cos(k * width + width / 2.0), math.sin(k * width + width / 2.0)]) for k in range(n)]
        expected = np.array([row / math.sqrt(row[0] * row[0] + row[1] * row[1]) for row in rows])
        assert np.array_equal(equal_area_partition(1, n).centers(), expected)

    def test_circle_partition_peak_memory(self):
        """equal_area_partition(1, 2^20) keeps 32 MiB (centers, cell areas,
        radii) and peaks below 48 MiB: cos and sin are written into the
        centers and the directions are normalized in place, so no stacked
        or divided copy of the centers is ever alive beside them."""
        tracemalloc.start()
        try:
            part = equal_area_partition(1, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.n_cells == 2**20
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("m, n", [(2, 1024), (3, 500), (4, 2048)])
    def test_collars_match_a_per_collar_assembly(self, m, n):
        """The centers and radii equal, bit for bit, those assembled one
        collar at a time from the outer locator's boundaries and a fresh
        sub-partition per collar, then stacked and normalized."""
        p = equal_area_partition(m, n)
        bounds, groups = p._locator.boundaries, p._locator.groups
        pole = np.eye(m + 1)[-1:]
        centers, radii = [pole], [np.array([bounds[1]])]
        for (_, count, _), lo, hi in zip(groups[1:-1], bounds[1:-2], bounds[2:-1]):
            sub_centers, sub_radii, _ = sph._partition_recursive(m - 1, count, {})
            mid = 0.5 * (lo + hi)
            sin_max = 1.0 if lo <= math.pi / 2.0 <= hi else max(math.sin(lo), math.sin(hi))
            collar = np.empty((count, m + 1))
            collar[:, :-1] = math.sin(mid) * sub_centers
            collar[:, -1] = math.cos(mid)
            centers.append(collar)
            radii.append(np.minimum(0.5 * (hi - lo) + sin_max * sub_radii, math.pi))
        centers = np.vstack([*centers, -pole])
        radii = np.concatenate([*radii, [math.pi - bounds[-2]]])
        assert np.array_equal(p.centers(), centers / sph._row_norms(centers)[:, None])
        assert np.array_equal(p.radii(), np.minimum(radii, sph._RADIUS_CAP))

    def test_domain(self):
        with pytest.raises(DomainError):
            equal_area_partition(2, 0)
        with pytest.raises(DomainError):
            equal_area_partition(0, 4)

    def test_arrays_read_only_and_identity_equality(self):
        p = equal_area_partition(2, 8)
        assert p.centers() is p.centers()
        for a in (p.centers(), p.measures(), p.radii()):
            assert not a.flags.writeable
        assert p == p
        assert p != equal_area_partition(2, 8)


@pytest.fixture
def builds(monkeypatch):
    """(m', n') of every _partition_recursive call, in call order."""
    calls = []
    build = sph._partition_recursive
    monkeypatch.setattr(sph, "_partition_recursive", lambda m, n, built: calls.append((m, n)) or build(m, n, built))
    return calls


class TestPartitionBuildsOnce:
    @pytest.mark.parametrize("m, n", [(8, 2048), (4, 2048), (3, 500), (2, 1024)])
    def test_each_sub_partition_built_once_per_call(self, builds, m, n):
        """Within one equal_area_partition call no (m', n') is built twice;
        a second identical call builds them all again (no cache outlives a
        call) and gives the same arrays."""
        first = equal_area_partition(m, n)
        first_builds = list(builds)
        assert first_builds[0] == (m, n)
        assert len(set(first_builds)) == len(first_builds)
        second = equal_area_partition(m, n)
        assert builds[len(first_builds):] == first_builds
        for a, b in zip((first.centers(), first.radii()), (second.centers(), second.radii())):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, most", [(65536, 750), (16384, 400)])
    def test_cap_area_evaluations_bounded(self, monkeypatch, n, most):
        """Each refit boundary starts its Newton iteration inside the ideal
        grid interval that brackets it, so an S^2 build evaluates the cap
        area about twice per boundary: at most 750 reg_inc_beta calls at
        N = 65536 (227 boundaries) and 400 at N = 16384.  Starting every
        boundary at the equator took 1,467 and 761."""
        calls = []
        inner = sph.reg_inc_beta
        monkeypatch.setattr(sph, "reg_inc_beta", lambda *args: calls.append(args) or inner(*args))
        equal_area_partition(2, n)
        assert len(calls) <= most

    def test_repeated_collar_counts_share_one_build(self, builds):
        """S^8 with 2048 cells makes 53 builds, one per distinct (m', n');
        building every collar's sub-partition anew made 641."""
        equal_area_partition(8, 2048)
        assert len(builds) == 53


def test_s2_build_runs_no_continued_fraction(monkeypatch):
    """Every cap area on S^2 is elementary: the pole form I_x(1, 1/2) and the
    equator form I_x(1/2, 1) both take reg_inc_beta's closed forms, so an
    S^2 build never enters the continued fraction.  An S^3 build, whose cap
    areas have half-integer shape parameters, does: the spy sees its calls."""
    calls = []
    inner = spf._betacf
    monkeypatch.setattr(spf, "_betacf", lambda *args: calls.append(args) or inner(*args))
    equal_area_partition(2, 65536)
    assert calls == []
    equal_area_partition(3, 500)
    assert calls


# Regression pins, not oracles: SHA-256 of (centers, radii, measures), each
# array's shape and float64 bytes, re-recorded when the centers were first
# normalised by _row_norms, an elementwise fold that rounds alike under every
# BLAS kernel, again when each refit boundary's Newton iteration began
# inside its bracketing ideal-grid interval, and again when reg_inc_beta took
# its closed forms for a = 1 and integer b (centers and radii moved by at
# most 2.3e-15), with the boundary oracle below passing before and after
# each time.  They hold the construction bit for bit on any machine.
_PARTITION_PINS = {
    (8, 2048): "54957a07d2a3801a22d5fbd5286a1feba33e38a3ada3f9e9eddf609b34712ce8",
    (4, 2048): "461116f55447ae22d6d9169023478070c98eac5a8342ff079ceb3a9af10934ca",
    (3, 500): "24d93d0ff1358bb8949bf4c62b18bc3d5463b97bf26c21532a754504e26b0fe0",
    (8, 32): "edbb3c24c4162fff71a702bf7274d7252e507411924d6b4838d0d0375281758a",
    (2, 16384): "d2974e2bdc8a7a16379b0b0e92ced5bcaa5b9f358edf875ce8aea447ee283611",
    (2, 65536): "3301c72e8c4bcde1dc95f2abd279461340077553c2317c3f6e37ff0651cd2660",
    (2, 1024): "138dc5f022daa1a34d560bc97dfc1ae1232f85c93aa8ba31dc72b0f38ea4815c",
}
_PIN_SIZES = pytest.mark.parametrize("size", sorted(_PARTITION_PINS), ids=lambda size: "S{}-N{}".format(*size))


@_PIN_SIZES
def test_partition_pin(size, digest):
    p = equal_area_partition(*size)
    assert digest([p.centers(), p.radii(), p.measures()]) == _PARTITION_PINS[size]


def _exact_cap_area(m: int, theta: float):
    """Exact area of the colatitude cap [0, theta] on S^m at 40 digits:
    2 pi (1 - cos theta) on S^2, and w_(m-1) times the mpmath quadrature
    of sin^(m-1) above it."""
    t = mp.mpf(theta)
    if m == 2:
        return 2 * mp.pi * (1 - mp.cos(t))
    w_rim = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2)
    return w_rim * mp.quad(lambda s: mp.sin(s) ** (m - 1), [0, t])


@_PIN_SIZES
def test_outer_boundaries_hold_their_cell_counts(size):
    """Every outer colatitude boundary caps exactly the cells before it: the
    boundary above group k of the outer locator, whose first cell index is
    cum_k, has area v_r cum_k to 1e-13 relative (v_r = w_m / n), the polar
    cap's one cell and the south cap's n - 1 included."""
    m, n = size
    loc = equal_area_partition(m, n)._locator
    cum = [first for first, _, _ in loc.groups[1:]]
    assert cum[0] == 1 and cum[-1] == n - 1
    assert len(loc.boundaries) == len(cum) + 2
    with mp.workdps(40):
        v_r = 2 * mp.pi ** (mp.mpf(m + 1) / 2) / mp.gamma(mp.mpf(m + 1) / 2) / n
        for theta, cells in zip(loc.boundaries[1:-1], cum):
            assert abs(_exact_cap_area(m, theta) / (v_r * cells) - 1) <= 1e-13


@functools.lru_cache(maxsize=None)
def _partition(m, n):
    return equal_area_partition(m, n)


_SIZES = st.tuples(st.integers(1, 8), st.integers(1, 300))
_PROPERTY = settings(max_examples=40)


class TestPartitionProperties:
    @_PROPERTY
    @given(_SIZES)
    def test_centers_locate_to_their_own_cell(self, size):
        p = _partition(*size)
        assert np.array_equal(p.locate_batch(p.centers()), np.arange(p.n_cells))

    @_PROPERTY
    @given(_SIZES)
    def test_measures_sum_to_surface_area(self, size):
        m, n = size
        p = _partition(m, n)
        assert p.n_cells == n
        np.testing.assert_allclose(p.measures().sum(), surface_area(m), rtol=1e-12)

    @_PROPERTY
    @given(_SIZES)
    def test_radii_below_pi(self, size):
        assert np.all(_partition(*size).radii() < math.pi)


# Regression pins, not oracles: SHA-256 (the digest fixture) of the cells
# locate_batch gives 2^16 points of uniform_sphere_sample(m, 2^16, 186),
# recorded before the zonal locator sorted its points by band.
_LOCATE_PINS = {
    (2, 1024): "e9714bd809e946af0c0551357c657fd6e63dcded8c5cbf74416b5f36e43c05cb",
    (3, 512): "063c9b25a66224ba105a781124171f66cb835c24682c6db10e13bd804af7d571",
    (8, 2048): "378c0ca59c52e9fd6cc7b1d7e218039eba25458588d158e0ca44d198a4981508",
}
_LOCATE_SIZES = pytest.mark.parametrize("size", sorted(_LOCATE_PINS), ids=lambda size: "S{}-N{}".format(*size))


def _on_band_boundaries(p: Partition, per_boundary: int, seed: int) -> np.ndarray:
    """Points at every colatitude band boundary of p's outer zonal locator
    (last coordinate z with arccos(z) equal to the boundary where a float
    within 8 ulps of its cosine gives that), at seeded azimuths, plus both
    poles."""
    m = p.m
    rows = [np.eye(m + 1)[-1], -np.eye(m + 1)[-1]]
    horiz = uniform_sphere_sample(m - 1, per_boundary * p._locator.boundaries.size, seed)
    for i, theta in enumerate(p._locator.boundaries):
        near = np.clip(np.cos(theta) + np.arange(-8, 9) * np.spacing(np.cos(theta)), -1.0, 1.0)
        exact = near[np.arccos(near) == theta]
        z = exact[0] if exact.size else np.cos(theta)
        for h in horiz[i * per_boundary : (i + 1) * per_boundary]:
            rows.append(np.append(math.sqrt(max(0.0, 1.0 - z * z)) * h, z))
    return np.array(rows)


class TestBandedLocate:
    @_LOCATE_SIZES
    def test_locate_pin(self, size, digest):
        m, n = size
        cells = _partition(m, n).locate_batch(uniform_sphere_sample(m, 1 << 16, 186))
        assert digest([cells]) == _LOCATE_PINS[size]

    @_LOCATE_SIZES
    def test_band_boundaries_and_poles_match_locate(self, size):
        """A point on a band boundary or at a pole gets, in a batch, the
        cell locate_batch gives it alone."""
        p = _partition(*size)
        pts = _on_band_boundaries(p, 3, seed=187)
        assert pts.shape[0] == 2 + 3 * p._locator.boundaries.size
        assert np.array_equal(p.locate_batch(pts), [p.locate_batch(x[None])[0] for x in pts])

    @_LOCATE_SIZES
    def test_permuted_points_permute_cells(self, size):
        p = _partition(*size)
        pts = np.vstack([uniform_sphere_sample(p.m, 4096, 188), _on_band_boundaries(p, 2, seed=189)])
        perm = np.random.default_rng(190).permutation(pts.shape[0])
        assert np.array_equal(p.locate_batch(pts[perm]), p.locate_batch(pts)[perm])


@pytest.mark.parametrize("shape", [(3,), (2,), (5, 4, 3), (0, 3), (6, 7), (2, 3, 8), (9,)])
def test_row_norms_round_as_numpy_at_any_leading_shape(shape):
    """_row_norms, behind check_finite_unit for one point and for batches,
    gives np.linalg.norm(g, axis=-1) bit for bit along the last axis of any
    shape, on both sides of numpy's pairwise-sum block of 8."""
    g = np.random.default_rng(200).standard_normal(shape)
    assert np.array_equal(sph._row_norms(g), np.linalg.norm(g, axis=-1))
    assert sph._row_norms(g).shape == shape[:-1]


class TestUniformSampling:
    def test_unit_norms(self):
        pts = uniform_sphere_sample(4, 2000, seed=0)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_mean_concentration(self):
        pts = uniform_sphere_sample(2, 10**6, seed=1)
        assert np.linalg.norm(pts.mean(axis=0)) <= 0.004

    def test_deterministic_and_nested(self):
        a = uniform_sphere_sample(3, 500, seed=9)
        b = uniform_sphere_sample(3, 500, seed=9)
        assert np.array_equal(a, b)
        c = uniform_sphere_sample(3, 1000, seed=9)
        assert np.array_equal(c[:500], a)

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 8, 16, 33])
    def test_gaussian_normalization_bit_for_bit(self, m):
        """Every point is the seeded Gaussian row over its numpy norm, to the
        last bit, at widths below and past numpy's pairwise-sum block of 8,
        and sample sets nest."""
        for count in (1, 7, 4096):
            g = np.random.default_rng(31 + m).standard_normal((count, m + 1))
            pts = uniform_sphere_sample(m, count, seed=31 + m)
            assert np.array_equal(pts, g / np.linalg.norm(g, axis=1, keepdims=True))
            assert np.array_equal(uniform_sphere_sample(m, 2 * count, seed=31 + m)[:count], pts)

    def test_domain(self):
        with pytest.raises(DomainError):
            uniform_sphere_sample(2, 0, seed=0)
