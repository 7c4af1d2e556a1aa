"""Sphere geometry: caps, partitions, sampling."""

import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_repeated_collar_counts_share_one_build(self, builds):
        """S^8 with 2048 cells makes 53 builds, one per distinct (m', n');
        building every collar's sub-partition anew made 641."""
        equal_area_partition(8, 2048)
        assert len(builds) == 53


# Regression pins, not oracles: SHA-256 of (centers, radii, measures), each
# array's shape and float64 bytes, re-recorded when the centers were first
# normalised by _row_norms, an elementwise fold that rounds alike under every
# BLAS kernel.  They hold the construction bit for bit on any machine.
_PARTITION_PINS = {
    (8, 2048): "73d48ac970cf424ddc99bf0d15dfb9fcf3628119cb0ea2e72d7dfb34e8e859b5",
    (4, 2048): "b4c2e5eaf6a47c5048af8ac84c81e8c84c809c23c4535ec5926dfda837a5fddd",
    (3, 500): "dd128ea4b2e4bfa9552c3bed8cc47951b83e8b2e1f63b63f724c3dd3f59cf318",
    (8, 32): "227f618cd35a1f7753747554eda78fe8b82db38dbf9726bdcbb21bc55fb61847",
    (2, 16384): "2010a7d24901acccb868e3c2f90c87e0fd8546f6003dffd10147ec597babba70",
    (2, 65536): "00c7d775b0a7756754b60c27f64de21db2e3a87d6099f86aad898d3810af541b",
    (2, 1024): "5286b9af2fe3dad34778558e1f5509d871832969249290a19b8d795cc7490760",
}


@pytest.mark.parametrize("size", sorted(_PARTITION_PINS), ids=lambda size: "S{}-N{}".format(*size))
def test_partition_pin(size, digest):
    p = equal_area_partition(*size)
    assert digest([p.centers(), p.radii(), p.measures()]) == _PARTITION_PINS[size]


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
