"""Accuracy-to-complexity bounds: Taylor limits, pinned oracles, sandwiches."""

import math
import warnings

import numpy as np
import pytest

from vmfhead.bounds import (
    PrefixLengthBound,
    SmoothnessSpec,
    covering_bounds,
    lambda_for_accuracy,
    phi,
    prefix_length_bound,
    normalized_head_parameters,
)
from vmfhead.errors import DomainError, OverflowWarning, PermissiveModeWarning
from vmfhead.prefix import make_target
from vmfhead.sphere import equal_area_partition

UNIT = SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1.0)


class TestSmoothnessSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SmoothnessSpec(L=0.0, C_H=1.0, C_R=1.0, f_sup=1.0)
        with pytest.raises(DomainError):
            SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=-0.1)


class TestConcentrationBound:
    def test_small_accuracy_taylor(self):
        ratio = lambda_for_accuracy(1e-4, UNIT, 8) * (1e-4) ** 4 / 128.0
        assert 0.99 <= ratio <= 1.01

    def test_strictly_decreasing(self):
        vals = [lambda_for_accuracy(float(s), UNIT, 8) for s in np.logspace(-4, 0, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_pinned_high_precision_value(self, fixtures):
        ref = float(fixtures["bounds"]["lambda_sigma_0.1_m8_unit"])
        np.testing.assert_allclose(lambda_for_accuracy(0.1, UNIT, 8), ref, rtol=1e-12)

    def test_strict_and_permissive_modes(self):
        with pytest.raises(DomainError):
            lambda_for_accuracy(0.1, UNIT, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = lambda_for_accuracy(0.1, UNIT, 4, strict=False)
        assert math.isfinite(val) and val > 0
        assert any(issubclass(w.category, PermissiveModeWarning) for w in caught)

    def test_overflow_flag(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = lambda_for_accuracy(1e-200, UNIT, 8)
        assert val == math.inf
        assert any(issubclass(w.category, OverflowWarning) for w in caught)

    def test_overflow_past_the_float_range(self):
        """At sigma = 1e-80 the denominator is still positive, but ln lambda
        is about 742, past the double range."""
        with pytest.warns(OverflowWarning):
            assert lambda_for_accuracy(1e-80, UNIT, 8) == math.inf

    def test_coarse_accuracy_is_trivial(self):
        """At sigma = 100, beta = sigma^2 / (8 + 2 sigma) is past 1 and any
        concentration will do: the bound reports 1."""
        assert lambda_for_accuracy(100.0, UNIT, 8) == 1.0


class TestPrefixLengthBound:
    def test_monotone_in_lambda_and_accuracy(self):
        logs_lam = [prefix_length_bound(lam, 0.1, UNIT, 8).log10_n for lam in (5.0, 10.0, 20.0, 40.0)]
        assert all(a < b for a, b in zip(logs_lam, logs_lam[1:]))
        logs_eps = [prefix_length_bound(10.0, eps, UNIT, 8).log10_n for eps in (0.4, 0.2, 0.1, 0.05)]
        assert all(a < b for a, b in zip(logs_eps, logs_eps[1:]))

    def test_power_law_in_accuracy(self):
        m = 8
        a = prefix_length_bound(10.0, 0.1, UNIT, m).log10_n
        b = prefix_length_bound(10.0, 0.05, UNIT, m).log10_n
        np.testing.assert_allclose(b - a, 2 * (m + 1) * math.log10(2.0), atol=1e-9)

    def test_pinned_value(self, fixtures):
        ref = float(fixtures["bounds"]["log10_n_lam10_eps0.1_m8_unit"])
        nb = prefix_length_bound(10.0, 0.1, UNIT, 8)
        assert isinstance(nb, PrefixLengthBound)
        np.testing.assert_allclose(nb.log10_n, ref, rtol=1e-12)

    def test_linear_value_saturates(self):
        nb = prefix_length_bound(10.0, 0.1, UNIT, 8)
        assert nb.n == math.inf or nb.n > 0


class TestPhi:
    def test_values(self):
        np.testing.assert_allclose(phi(8), 195.335, rtol=1e-4)
        np.testing.assert_allclose(phi(9), 221.176, rtol=1e-4)

    def test_growth(self):
        ratios = [phi(m) / (m * math.log(m)) for m in range(8, 65)]
        assert max(ratios) <= 12.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(7)


class TestCoveringBounds:
    def test_sandwich_grid(self):
        for m in range(8, 17):
            for delta in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
                lo, up = covering_bounds(m, delta)
                assert lo <= up
                assert up < phi(m) / delta ** (m + 1)

    def test_hemisphere_limit(self):
        lo, _ = covering_bounds(8, 1.0 - 1e-12)
        np.testing.assert_allclose(lo, 2.0, atol=1e-6)

    def test_pinned_values(self, fixtures):
        lo, up = covering_bounds(8, 0.1)
        np.testing.assert_allclose(lo, float(fixtures["bounds"]["covering_m8_delta0.1_lower"]), rtol=1e-10)
        np.testing.assert_allclose(up, float(fixtures["bounds"]["covering_m8_delta0.1_upper"]), rtol=1e-10)

    def test_partition_respects_lower_bound(self):
        """N caps at the partition's radius bound cover the sphere, so N
        must dominate the covering lower bound at that radius."""
        part = equal_area_partition(8, 512)
        r_max = float(np.max(part.radii()))
        delta = min(1.0 - 1e-9, 1.0 - math.cos(r_max))
        lo, _ = covering_bounds(8, delta) if delta < 1 else (2.0, None)
        assert lo <= part.n_cells

    def test_domain(self):
        with pytest.raises(DomainError):
            covering_bounds(7, 0.1)
        with pytest.raises(DomainError):
            covering_bounds(8, 0.0)


class TestNormalizedHeadParameters:
    def test_compositional_identity(self):
        eps = 0.5
        lam, _ = normalized_head_parameters(eps, UNIT, 8)
        direct = lambda_for_accuracy(2 * eps * UNIT.L / (2 * UNIT.L + UNIT.f_sup), UNIT, 8)
        np.testing.assert_allclose(lam, direct, rtol=1e-14)

    def test_small_sup_limit(self):
        # As the sup norm vanishes, 2 eps L / (2L + f_sup) -> eps, so the
        # concentration approaches the unnormalized-head value.
        spec = SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1e-8)
        eps = 1e-8
        lam, _ = normalized_head_parameters(eps, spec, 8)
        direct = lambda_for_accuracy(eps, spec, 8)
        np.testing.assert_allclose(lam, direct, rtol=1e-7)

    def test_pinned_values(self, fixtures):
        lam, nb = normalized_head_parameters(0.5, UNIT, 8)
        np.testing.assert_allclose(lam, float(fixtures["bounds"]["normalized_head_eps0.5_m8_unit_lambda"]), rtol=1e-12)
        np.testing.assert_allclose(
            nb.log10_n, float(fixtures["bounds"]["normalized_head_eps0.5_m8_unit_log10_n"]), rtol=1e-12
        )

    def test_infinite_concentration(self):
        with pytest.warns(OverflowWarning):
            lam, nb = normalized_head_parameters(1e-80, UNIT, 8)
        assert lam == nb.n == nb.log10_n == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            normalized_head_parameters(2.5, UNIT, 8)

    def test_reports_log_scale_count(self):
        lam, nb = normalized_head_parameters(0.5, make_target("identity", 8).smoothness, 8)
        assert lam > 0
        assert nb.log10_n > 20  # far beyond any runnable budget
        assert nb.n == math.inf or nb.n > 1e20

    def test_strict_mode_dimension_guard(self):
        with pytest.raises(DomainError):
            normalized_head_parameters(0.5, make_target("identity", 2).smoothness, 2)
