"""Special-function layer: closed forms first, then library cross-checks."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from oracles import gegenbauer, langevin
import vmfhead.specialfn as spf
from vmfhead.errors import DomainError, NumericalFailure
from vmfhead.specialfn import bessel_ratio, log_bessel_i, log_gamma, reg_inc_beta

mp.mp.dps = 40


class TestLogGamma:
    def test_anchor_values(self):
        assert log_gamma(1.0) == 0.0
        np.testing.assert_allclose(log_gamma(0.5), math.log(math.sqrt(math.pi)), atol=1e-14)
        np.testing.assert_allclose(log_gamma(6.0), math.log(120.0), atol=1e-12)

    def test_accuracy_sweep(self):
        xs = np.linspace(0.5, 200.0, 400)
        for x in xs:
            ref = float(mp.log(mp.gamma(x)))
            assert abs(log_gamma(float(x)) - ref) <= 1e-12

    def test_domain(self):
        for bad in (0.0, -1.5):
            with pytest.raises(DomainError):
                log_gamma(bad)


class TestRegIncBeta:
    def test_trivial_cases(self):
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0
        np.testing.assert_allclose(reg_inc_beta(0.3, 1.0, 1.0), 0.3, atol=1e-14)
        np.testing.assert_allclose(reg_inc_beta(0.5, 4.0, 4.0), 0.5, atol=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = float(rng.uniform(0.2, 30.0))
            b = float(rng.uniform(0.2, 30.0))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(reg_inc_beta(x, a, b) - sp.betainc(a, b, x)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, -1.0, 1.0)

    @pytest.mark.parametrize("a, b", [("1", 1.0), (None, 1.0), (True, 1.0), (1.0, np.True_), (1.0, False)])
    def test_shape_parameters_refused_by_name(self, a, b):
        """A shape parameter that is not a real, or is a bool, is refused
        with a DomainError naming a and b, not a TypeError or x."""
        with pytest.raises(DomainError, match="a, b"):
            reg_inc_beta(0.5, a, b)

    def test_non_convergence_is_a_numeric_failure(self, monkeypatch):
        """A continued fraction cut off before it converges raises
        NumericalFailure (CLI exit 3), not a domain error."""
        monkeypatch.setattr(spf, "_BETACF_MAX_ITER", 1)
        with pytest.raises(NumericalFailure) as info:
            reg_inc_beta(0.3, 2.0, 2.5)
        assert info.value.exit_code == 3


# x from 1e-12 to 1 - 1e-6: logarithmic towards both ends, linear between.
_BETA_GRID = [*np.logspace(-12, -1, 23), *np.linspace(0.1, 0.9, 17), *(1.0 - np.logspace(-1, -6, 11))]

# Regression pins, not oracles: I_x(4, 1/2) as the continued fraction gave it
# before the closed forms were added, on both sides of its symmetry switch
# at x = (a+1)/(a+b+2) = 10/13.
_BETACF_PINS = {
    1e-9: "0x1.742f101216196p-122",
    0.1: "0x1.de567370b50cbp-16",
    0.5: "0x1.6bc9ec881e9dep-6",
    0.9: "0x1.7e55fe8d8ec10p-2",
    0.99: "0x1.911d00f776c47p-1",
}


class TestRegIncBetaClosedForms:
    @pytest.mark.parametrize(
        "a, b", [(1.0, 0.5), (0.5, 1.0), *((0.5, float(n)) for n in range(2, 33)), (2.5, 3.0), (1.0, 4.0)]
    )
    def test_against_mpmath(self, a, b):
        """a = 1 and integer b take the closed forms, within 1.5e-15 relative
        of 40-digit values on the grid; the continued fraction read 1.9e-15
        to 1.4e-14 on these pairs."""
        for x in _BETA_GRID:
            ref = mp.betainc(a, b, 0, float(x), regularized=True)
            assert abs(reg_inc_beta(float(x), a, b) / ref - 1) <= 1.5e-15

    @pytest.mark.parametrize("x", sorted(_BETACF_PINS))
    def test_continued_fraction_unchanged(self, x):
        """A pair with neither a = 1 nor an integer b, the S^8 polar cap's
        (4, 1/2), still goes through the continued fraction, bit for bit."""
        assert reg_inc_beta(x, 4.0, 0.5) == float.fromhex(_BETACF_PINS[x])


class TestGegenbauer:
    def test_recurrence_base(self):
        assert gegenbauer(0, 2.5, -0.3) == 1.0
        np.testing.assert_allclose(gegenbauer(1, 0.5, 0.7), 0.7, atol=1e-15)
        np.testing.assert_allclose(gegenbauer(2, 1.0, 0.0), -1.0, atol=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(0, 15))
            alpha = float(rng.uniform(0.3, 6.0))
            t = float(rng.uniform(-1.0, 1.0))
            ref = float(sp.eval_gegenbauer(k, alpha, t))
            assert abs(gegenbauer(k, alpha, t) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(DomainError):
            gegenbauer(-1, 1.0, 0.0)
        with pytest.raises(DomainError):
            gegenbauer(2, 1.0, 1.5)


class TestLogBesselI:
    def test_half_integer_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        for lam in (0.1, 1.0, 5.0, 50.0):
            ref = 0.5 * math.log(2.0 / (math.pi * lam)) + lam + math.log1p(-math.exp(-2 * lam)) - math.log(2.0)
            np.testing.assert_allclose(log_bessel_i(0.5, lam), ref, rtol=1e-12)

    def test_small_argument_limit(self):
        assert abs(log_bessel_i(0.0, 1e-8)) <= 1e-15

    def test_leading_asymptotic(self):
        # e^lam / sqrt(2 pi lam) leading behavior at lam = 100; the first
        # neglected correction is ln(1 + 1/(8 lam)) ~ 1.25e-3, which sets
        # the achievable tolerance of the leading form.
        approx = 100.0 - 0.5 * math.log(200.0 * math.pi)
        assert abs(log_bessel_i(0.0, 100.0) - approx) <= 2e-3
        assert abs(log_bessel_i(0.0, 100.0) - approx - math.log1p(1.0 / 800.0)) <= 1e-5

    def test_accuracy_grid(self):
        for nu in (0.0, 0.5, 1.0, 3.5, 7.5, 12.0, 31.5):
            for lam in (1e-3, 0.07, 1.0, 9.0, 110.0, 2500.0, 1e5):
                mine = log_bessel_i(nu, lam)
                ref = float(mp.log(mp.besseli(nu, lam)))
                assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref)), (nu, lam)

    def test_never_overflows(self):
        assert math.isfinite(log_bessel_i(4.0, 1e5))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_bessel_i(1.0, 0.0)
        with pytest.raises(DomainError):
            log_bessel_i(-1.0, 1.0)


class TestBesselRatio:
    def test_half_integer_closed_form(self):
        for lam in (0.5, 1.0, 10.0):
            np.testing.assert_allclose(bessel_ratio(0.5, lam), langevin(lam), rtol=1e-13)

    def test_range_and_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            nu = float(rng.uniform(0.0, 40.0))
            lam = float(rng.uniform(1e-3, 1e4))
            r = bessel_ratio(nu, lam)
            bound = lam / ((nu + 1.0) + math.hypot(lam, nu + 1.0))
            assert 0.0 < r < 1.0
            assert r >= bound * (1.0 - 1e-12)

    def test_large_argument_example(self):
        r = bessel_ratio(0.0, 100.0)
        assert 0.0 < r < 1.0
        assert r >= 100.0 / (1.0 + math.sqrt(10001.0))

    def test_against_mpmath(self):
        for nu in (0.0, 0.5, 2.0, 9.5, 25.0):
            for lam in (1e-3, 0.5, 4.0, 77.0, 1500.0):
                ref = float(mp.besseli(nu + 1, lam) / mp.besseli(nu, lam))
                assert abs(bessel_ratio(nu, lam) - ref) <= 1e-12 * ref, (nu, lam)

    def test_order_zero_across_the_large_argument_switch(self):
        """nu = 0, which no kernel_eigenvalue reaches, against mpmath at 50
        digits on both sides of the switch at lam = 4000."""
        with mp.workdps(50):
            for lam in (3996.0, 4000.0, 4004.0, 1e5, 1e10):
                ref = float(mp.besseli(1, lam) / mp.besseli(0, lam))
                assert abs(bessel_ratio(0.0, lam) - ref) <= 1e-14 * ref, lam

    def test_decreasing_in_order(self):
        for lam in (0.3, 2.0, 40.0):
            vals = [bessel_ratio(nu, lam) for nu in np.arange(0.0, 12.0, 0.5)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_consistent_with_log_values(self):
        for nu in (0.0, 1.5, 6.0):
            for lam in (0.8, 12.0, 300.0):
                via_logs = math.exp(log_bessel_i(nu + 1.0, lam) - log_bessel_i(nu, lam))
                assert abs(via_logs - bessel_ratio(nu, lam)) <= 1e-8 * via_logs

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_ratio(1.0, -2.0)
