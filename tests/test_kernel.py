"""Kernel layer: normalizer closed forms, unit norm, eigenvalues, convolution."""

import math

import mpmath as mp
import numpy as np
import pytest
from oracles import langevin
from scipy.stats import kstest

from vmfhead import kernel
from vmfhead.errors import DomainError, NumericalFailure
from vmfhead.kernel import (
    VmfKernel,
    convolve_vmf,
    kernel_eigenvalue,
    kernel_log_eval,
    kernel_norm,
    vmf_log_normalizer,
)
from vmfhead.specialfn import bessel_ratio
from vmfhead.sphere import uniform_sphere_sample


class TestLogNormalizer:
    def test_m2_closed_form(self):
        # In three ambient dimensions the normalizer is lam / sinh(lam).
        np.testing.assert_allclose(vmf_log_normalizer(2, 1.0), math.log(1.0 / math.sinh(1.0)), atol=1e-12)
        np.testing.assert_allclose(math.exp(vmf_log_normalizer(2, 20.0)), 20.0 / math.sinh(20.0), rtol=1e-12)
        assert abs(vmf_log_normalizer(2, 1e-7)) <= 1e-9

    def test_consistency_invariant(self):
        assert VmfKernel(5, 37.0).log_normalizer == vmf_log_normalizer(5, 37.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            vmf_log_normalizer(0, 1.0)
        with pytest.raises(DomainError):
            vmf_log_normalizer(2, 0.0)


class TestKernelNorm:
    @pytest.mark.parametrize("m", [2, 8, 16])
    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_unit_norm(self, m, lam):
        np.testing.assert_allclose(kernel_norm(m, lam), 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "m, lam", [(3, 1.0), (3, 7.0), (3, 100.0), (5, 10.0), (5, 1e4), (9, 100.0), (17, 1e6), (33, 0.5)]
    )
    def test_unit_norm_odd_m(self, m, lam):
        """Odd m, where the weight (1 - t^2)^((m-2)/2) has a half-integer
        power: the quadrature runs in the angle, so it converges within
        the node cap."""
        np.testing.assert_allclose(kernel_norm(m, lam), 1.0, atol=1e-6)

    def test_node_cap_raises(self, monkeypatch):
        """Past the largest rule it may build, kernel_norm refuses."""
        monkeypatch.setattr(kernel, "_MAX_NODES", 200)
        with pytest.raises(NumericalFailure):
            kernel_norm(3, 100.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_norm(1, 1.0)

    def test_gauss_legendre_rules_built_once(self):
        """The quadrature rules are cached read-only arrays, bitwise equal
        to numpy's, and kernel_norm builds none twice."""
        for n in (200, 400):
            rule = kernel._gauss_legendre(n)
            assert kernel._gauss_legendre(n) is rule
            assert all(np.array_equal(a, b) for a, b in zip(rule, np.polynomial.legendre.leggauss(n)))
            assert not rule[0].flags.writeable and not rule[1].flags.writeable
        first = kernel_norm(2, 7.0)
        misses = kernel._gauss_legendre.cache_info().misses
        assert kernel_norm(2, 7.0) == first
        assert kernel._gauss_legendre.cache_info().misses == misses


class TestEigenvalues:
    def test_k0_exact(self):
        for m in (2, 9):
            for lam in (0.5, 80.0):
                assert kernel_eigenvalue(m, 0, lam) == 1.0

    def test_m2_closed_form(self):
        for lam in (0.5, 1.0, 5.0, 20.0):
            np.testing.assert_allclose(kernel_eigenvalue(2, 1, lam), langevin(lam), atol=1e-12)

    def test_sandwich_and_monotonicity(self):
        for m in (8, 12):
            for lam in (1.0, 10.0, 100.0):
                prev = 1.0 + 1e-15
                for k in range(11):
                    a = kernel_eigenvalue(m, k, lam)
                    v = (m - 1) / 2.0 + k
                    lower = (lam / (v + math.hypot(lam, v))) ** k
                    assert lower * (1 - 1e-12) <= a <= 1.0 + 1e-15
                    assert a <= prev
                    prev = a

    @pytest.mark.parametrize("m, k, lam", [(2, 5, 32.0), (3, 10, 300.0), (8, 20, 1e3), (17, 7, 2e4)])
    def test_one_recurrence_matches_ratio_loop(self, m, k, lam):
        """The product read off one recurrence, which replaced a product of k
        separate ratio recurrences, against mpmath's ratio at 50 digits."""
        nu = (m - 1) / 2.0
        with mp.workdps(50):
            ref = mp.besseli(nu + k, lam) / mp.besseli(nu, lam)
            assert abs(kernel_eigenvalue(m, k, lam) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("m", [2, 3, 8, 16, 25, 41, 61])
    def test_across_the_large_argument_switch(self, m):
        """Against mpmath at 50 digits, for nu = (m-1)/2, from just below the
        switch (lam >= 4000 and lam >= 4 (nu+k)^2), where the recurrence
        gives the ratio, to lam = 1e10, where the Hankel sums give it."""
        nu = (m - 1) / 2.0
        with mp.workdps(50):
            for k in (1, 3, 10):
                switch = max(4000.0, 4.0 * (nu + k) ** 2)
                for lam in (0.999 * switch, switch, 1.001 * switch, 1e5, 1e8, 1e10):
                    ref = mp.besseli(nu + k, lam) / mp.besseli(nu, lam)
                    assert abs(kernel_eigenvalue(m, k, lam) - ref) <= 1e-14 * ref, (k, lam)

    def test_m2_closed_form_at_large_lam(self):
        """On S^2, a_1 is coth lam - 1/lam to 1e-15 from the switch to
        lam = 1e15, each value in O(1) work."""
        for lam in np.geomspace(4e3, 1e15, 60):
            assert abs(kernel_eigenvalue(2, 1, lam) - langevin(lam)) <= 1e-15 * langevin(lam), lam

    def test_strictly_below_one_at_any_lam(self):
        """Past lam of about 1e16 a_1 rounds to 1; it is returned as the
        largest double below 1 (bessel_ratio's docstring)."""
        below_one = math.nextafter(1.0, 0.0)
        for lam in (1e16, 1e17, 1e300):
            assert kernel_eigenvalue(2, 1, lam) == bessel_ratio(0.5, lam) == below_one
        assert 0.0 < kernel_eigenvalue(8, 10, 1e15) < 1.0

    def test_specific_sandwich_example(self):
        a = kernel_eigenvalue(8, 3, 10.0)
        v = 3.5 + 3
        lower = (10.0 / (v + math.hypot(10.0, v))) ** 3
        assert lower <= a <= 1.0


class TestKernelEval:
    """K(t) in linear scale is exp of kernel_log_eval."""

    def test_examples(self):
        kern = VmfKernel(2, 1.0)
        np.testing.assert_allclose(math.exp(kernel_log_eval(kern, 0.0)), 1.0 / math.sinh(1.0), rtol=1e-12)
        np.testing.assert_allclose(math.exp(kernel_log_eval(kern, 1.0)), math.e / math.sinh(1.0), rtol=1e-12)

    def test_monotone_and_log_variant(self):
        kern = VmfKernel(3, 7.0)
        ts = np.linspace(-1, 1, 101)
        logs = kernel_log_eval(kern, ts)
        assert np.all(np.diff(np.exp(logs)) > 0)
        np.testing.assert_allclose(logs - kern.log_normalizer, 7.0 * ts, atol=1e-12)

    def test_log_domain_at_extreme_concentration(self):
        # The normalizer cancels e^lam at t = 1: K(1) ~ 2 lam for m = 2, so
        # even huge concentrations stay finite through the log path.
        kern = VmfKernel(2, 3000.0)
        assert math.isfinite(kernel_log_eval(kern, 1.0))
        np.testing.assert_allclose(math.exp(kernel_log_eval(kern, 1.0)), 6000.0, rtol=1e-9)

    def test_domain(self):
        kern = VmfKernel(2, 1.0)
        with pytest.raises(DomainError):
            kernel_log_eval(kern, 1.5)


class TestEigenvalueQuadrature:
    def test_gegenbauer_quadrature_matches_closed_form(self):
        """The eigenvalue integral (w_{m-1}/w_m) int K(t) Q_k(t)/Q_k(1)
        (1-t^2)^((m-2)/2) dt, evaluated with the polynomial recurrence and
        Gauss-Legendre nodes, lands on the Bessel-ratio product."""
        from oracles import gegenbauer
        from vmfhead.sphere import surface_area

        m = 2
        nodes, weights = np.polynomial.legendre.leggauss(600)
        ratio = surface_area(m - 1) / surface_area(m)
        for lam in (1.0, 5.0, 20.0):
            kern = VmfKernel(m, lam)
            kvals = np.exp(kernel_log_eval(kern, nodes))
            for k in range(5):
                qk = np.array([gegenbauer(k, (m - 1) / 2.0, float(t)) for t in nodes])
                qk1 = gegenbauer(k, (m - 1) / 2.0, 1.0)
                quad = ratio * float(np.sum(weights * kvals * qk / qk1))
                assert abs(quad - kernel_eigenvalue(m, k, lam)) <= 1e-6, (k, lam)


class TestConvolution:
    def test_constant_preserved(self):
        """The kernel has unit mass, and a constant f has no variance under
        draws from it: the estimate is the constant to rounding."""
        kern = VmfKernel(2, 5.0)
        x = uniform_sphere_sample(2, 1, seed=1)[0]
        est, sem = convolve_vmf(lambda ys: np.full((len(ys), 1), 0.7), kern, x, 50_000, seed=2)
        assert abs(est[0] - 0.7) <= 1e-15 * 0.7
        assert sem[0] <= 1e-15

    def test_degree_one_eigenfunction(self):
        lam = 10.0
        kern = VmfKernel(2, lam)
        a1 = kernel_eigenvalue(2, 1, lam)
        x = np.array([1.0, 0.0, 0.0])
        est, sem = convolve_vmf(lambda ys: ys[:, :1], kern, x, 400_000, seed=3)
        assert abs(est[0] - a1 * 1.0) <= 3 * sem[0]
        assert abs(est[0] - 0.9000000041223073) <= 4 * sem[0]

    def test_degree_two_eigenfunction(self):
        lam = 6.0
        kern = VmfKernel(2, lam)
        a2 = kernel_eigenvalue(2, 2, lam)
        x = np.array([0.6, 0.8, 0.0])

        def harm(ys):
            return (ys[:, 0] * ys[:, 1])[:, None]

        est, sem = convolve_vmf(harm, kern, x, 400_000, seed=4)
        assert abs(est[0] - a2 * 0.48) <= 3 * sem[0]

    def test_approximate_identity_regime(self):
        lam = 200.0
        kern = VmfKernel(2, lam)
        x = uniform_sphere_sample(2, 1, seed=5)[0]

        def bump(ys):
            return np.exp(3.0 * (ys @ x - 1.0))[:, None]

        est, sem = convolve_vmf(bump, kern, x, 400_000, seed=6)
        assert abs(est[0] - 1.0) <= 0.05

    @pytest.mark.parametrize(
        "f",
        [lambda ys: 1.5 + ys[:, 0], lambda ys: ys[:, 2:], lambda ys: ys],
        ids=["(n,)", "(n, 1)", "(n, 3)"],
    )
    def test_matches_column_mean_and_std(self, f):
        """Row-major reductions agree with the per-column mean and ddof=1
        std of the (n, k) values of f at the same vMF draws, summed in
        another order."""
        n, kern, x = 20_000, VmfKernel(2, 10.0), np.array([0.6, 0.0, 0.8])
        fy = np.asarray(f(kernel._vmf_sample(kern, x, n, seed=7)), dtype=np.float64).reshape(n, -1)
        est, sem = convolve_vmf(f, kern, x, n, seed=7)
        assert est.shape == sem.shape == (fy.shape[1],)
        np.testing.assert_allclose(est, fy.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(sem, fy.std(axis=0, ddof=1) / math.sqrt(n), rtol=1e-12)

    def test_requires_samples(self):
        kern = VmfKernel(2, 1.0)
        with pytest.raises(DomainError):
            convolve_vmf(lambda ys: ys, kern, np.array([1.0, 0, 0]), 10, seed=0)


def _vmf_cosine_cdf_s2(lam):
    """Exact CDF of t = <x, y> for y ~ vMF(x, lam) on S^2:
    (e^(lam t) - e^-lam) / (e^lam - e^-lam), scaled by e^-lam so that it
    does not overflow."""
    return lambda t: (np.exp(lam * (t - 1.0)) - math.exp(-2.0 * lam)) / -math.expm1(-2.0 * lam)


class TestVmfSample:
    """convolve_vmf's sampler, against the exact law of <x, y>."""

    @pytest.mark.parametrize("m, lam", [(1, 3.0), (2, 0.5), (3, 1e4), (8, 10.0)])
    def test_unit_and_deterministic(self, m, lam):
        kern, x = VmfKernel(m, lam), uniform_sphere_sample(m, 1, seed=20)[0]
        ys = kernel._vmf_sample(kern, x, 5_000, seed=21)
        assert ys.shape == (5_000, m + 1)
        np.testing.assert_allclose(np.linalg.norm(ys, axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(kernel._vmf_sample(kern, x, 5_000, seed=21), ys)

    @pytest.mark.parametrize("lam", [0.5, 10.0, 1000.0])
    def test_cosine_law_on_s2(self, lam):
        """Kolmogorov-Smirnov statistic of 100,000 cosines against the exact
        CDF, below the 0.1% critical value 1.95 / sqrt(n); the sampler run at
        1.1 lam exceeds it at every lam here."""
        n, x = 100_000, uniform_sphere_sample(2, 1, seed=22)[0]
        t = kernel._vmf_sample(VmfKernel(2, lam), x, n, seed=23) @ x
        assert kstest(t, _vmf_cosine_cdf_s2(lam)).statistic <= 1.95 / math.sqrt(n)

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_mean_cosine_is_first_eigenvalue(self, m):
        """E<x, y> = I_{(m+1)/2}(lam) / I_{(m-1)/2}(lam), the kernel's first
        convolution eigenvalue."""
        n, lam, x = 100_000, 10.0, uniform_sphere_sample(m, 1, seed=24)[0]
        t = kernel._vmf_sample(VmfKernel(m, lam), x, n, seed=25) @ x
        sem = t.std(ddof=1) / math.sqrt(n)
        assert abs(t.mean() - kernel_eigenvalue(m, 1, lam)) <= 4 * sem
