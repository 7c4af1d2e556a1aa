"""Prefix synthesis, error estimation, and the element-wise extension."""

import math

import numpy as np
import pytest
from oracles import langevin

from vmfhead import attention as att
from vmfhead import prefix as pfx
from vmfhead.errors import DomainError
from vmfhead.kernel import kernel_eigenvalue, vmf_log_normalizer
from vmfhead.sphere import equal_area_partition, uniform_sphere_sample


def declared_sup_holds(target, n_samples: int, seed: int, slack: float = 0.05) -> bool:
    """Whether the target's declared f_sup dominates its sampled max to within slack."""
    sampled = float(np.max(np.abs(target(uniform_sphere_sample(target.m, n_samples, seed)))))
    return target.smoothness.f_sup >= sampled * (1.0 - slack)


class TestTargets:
    def test_registry(self):
        assert set(pfx.target_names()) == {"constant", "identity", "linear", "bump", "coordinate-max"}
        with pytest.raises(DomainError):
            pfx.make_target("nope", 2)

    def test_declared_sup_holds(self):
        for name in pfx.target_names():
            t = pfx.make_target(name, 2)
            assert declared_sup_holds(t, n_samples=2048, seed=0), name

    def test_batch_shape_guard(self):
        t = pfx.make_target("identity", 2)
        out = t(uniform_sphere_sample(2, 7, seed=1))
        assert out.shape == (7, 3)


class TestSynthesis:
    def test_constant_exact(self):
        f = pfx.make_target("constant", 2)
        for n, lam in ((5, 1.0), (64, 24.0)):
            cp = pfx.synthesize_prefix(f, n, lam)
            sup, mean = pfx.sup_error_estimate(f, lambda p: att.split_head_batch(cp, p), 200, seed=2)
            assert sup <= 1e-13 and mean <= 1e-13

    def test_identity_convergence_sweep(self):
        f = pfx.make_target("identity", 2)
        for lam in (8.0, 32.0):
            sups = []
            for n in (64, 256, 1024, 4096):
                cp = pfx.synthesize_prefix(f, n, lam)
                sup, _ = pfx.sup_error_estimate(f, lambda p: att.split_head_batch(cp, p), 2048, seed=20240811)
                sups.append(sup)
            assert all(a > b for a, b in zip(sups, sups[1:])), (lam, sups)

    def test_identity_matches_brute_force_fixture(self, fixtures):
        fx = fixtures["split_head_identity_m2"]
        f = pfx.make_target("identity", 2)
        for lam in (8.0, 32.0):
            cp = pfx.synthesize_prefix(f, 4096, lam)
            sup, _ = pfx.sup_error_estimate(
                f, lambda p: att.split_head_batch(cp, p), fx["samples"], seed=fx["seed"]
            )
            ref = fx["sup_errors"][f"lam{lam:g}_n4096"]
            assert abs(sup - ref) <= 0.10 * ref

    def test_anchor_values_are_targets(self):
        f = pfx.make_target("bump", 2)
        cp = pfx.synthesize_prefix(f, 32, 4.0)
        np.testing.assert_array_equal(cp.p_beta, f(cp.p_alpha))

    def test_domain(self):
        f = pfx.make_target("identity", 2)
        with pytest.raises(DomainError):
            pfx.synthesize_prefix(f, 0, 1.0)
        with pytest.raises(DomainError):
            pfx.synthesize_prefix(f, 4, -1.0)


class TestCoreWeights:
    def test_constant_gives_denominator_statistic(self):
        m, lam, n = 2, 6.0, 128
        ones = pfx.TargetFunction(
            m=m,
            name="ones",
            eval_batch=lambda pts: np.ones((pts.shape[0], m + 1)),
            smoothness=pfx.SmoothnessSpec(L=1e-9, C_H=1.0, C_R=1.0, f_sup=1.0),
        )
        part = equal_area_partition(m, n)
        cp = pfx.synthesize_core_weights(ones, part, lam)
        c = math.exp(vmf_log_normalizer(m, lam))
        x = uniform_sphere_sample(m, 1, seed=3)[0]
        stat = c / n * np.exp(lam * (part.centers() @ x)).sum()
        np.testing.assert_allclose(att.core_head(cp, x), stat, rtol=1e-12)

    def test_core_over_denominator_equals_split(self):
        m, lam, n = 2, 10.0, 256
        f = pfx.make_target("identity", m)
        part = equal_area_partition(m, n)
        core_cp = pfx.synthesize_core_weights(f, part, lam)
        split_cp = pfx.synthesize_prefix(f, n, lam)
        c = math.exp(vmf_log_normalizer(m, lam))
        for x in uniform_sphere_sample(m, 100, seed=4):
            stat = c / n * np.exp(lam * (part.centers() @ x)).sum()
            np.testing.assert_allclose(
                att.core_head(core_cp, x) / stat, att.split_head(split_cp, x), atol=1e-12
            )

    def test_core_head_tracks_convolution(self):
        """With the measure-weighted values, the bare kernel sum is a
        Riemann sum of the spherical convolution: for the first-coordinate
        target it lands within 0.02 of the eigenvalue prediction."""
        m, lam, n = 2, 10.0, 8192
        f = pfx.make_target("identity", m)
        part = equal_area_partition(m, n)
        cp = pfx.synthesize_core_weights(f, part, lam)
        a1 = kernel_eigenvalue(m, 1, lam)
        for x in uniform_sphere_sample(m, 10, seed=5):
            out = att.core_head(cp, x)
            np.testing.assert_allclose(out, a1 * x, atol=0.02)


class TestErrorEstimation:
    def test_zero_for_exact_approx(self):
        f = pfx.make_target("identity", 2)
        sup, mean = pfx.sup_error_estimate(f, lambda p: f(p), 500, seed=6)
        assert sup == 0.0 and mean == 0.0

    def test_constant_offset(self):
        f = pfx.make_target("identity", 2)
        shift = np.array([0.1, 0.0, 0.0])
        sup, mean = pfx.sup_error_estimate(f, lambda p: f(p) + shift, 500, seed=7)
        np.testing.assert_allclose([sup, mean], [0.1, 0.1], atol=1e-12)

    def test_nested_samples_grow_sup(self):
        f = pfx.make_target("identity", 2)
        cp = pfx.synthesize_prefix(f, 64, 8.0)
        approx = lambda p: att.split_head_batch(cp, p)
        sups = [pfx.sup_error_estimate(f, approx, n, seed=8)[0] for n in (128, 256, 512, 1024)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))


class TestDenominatorConstancy:
    def test_decreasing_in_n(self):
        f = pfx.make_target("identity", 2)
        devs = [
            pfx.verify_denominator_constancy(pfx.synthesize_prefix(f, n, 8.0), 512, seed=9)
            for n in (256, 1024, 4096)
        ]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_single_cell_is_far_from_constant(self):
        f = pfx.make_target("identity", 2)
        cp = pfx.synthesize_prefix(f, 1, 8.0)
        assert pfx.verify_denominator_constancy(cp, 256, seed=10) > 1.0


class TestConvolutionConsistency:
    def test_split_head_tracks_normalized_convolution(self):
        """The split head for the identity on S^2 against the exact
        convolution (K*id)(x) = (coth lam - 1/lam) x, at verify's tolerance
        of 1e-3; a head at 0.95 lam misses it by about 5e-3."""
        m, lam, n = 2, 10.0, 8192
        cp = pfx.synthesize_prefix(pfx.make_target("identity", m), n, lam)
        xs = uniform_sphere_sample(m, 20, seed=11)
        worst = float(np.max(np.abs(att.split_head_batch(cp, xs) - langevin(lam) * xs)))
        assert worst <= 1e-3


class TestIdentityAccuracyOracle:
    """On S^2 the split head for the identity tracks (K*id)(x) = A(lam) x,
    A = coth lam - 1/lam, so its error is the smoothing bias 1 - A(lam) plus
    a discretisation error that N makes small.  The seeded mean and sup
    error over 1024 samples must lie within the stated relative tolerances
    of that limit; measured: mean 3.7e-6, 6.7e-7, 3.2e-5 and sup 1.4e-4,
    1.4e-4, 3.0e-2 for the three cases."""

    @pytest.mark.parametrize(
        "lam, n, mean_rtol, sup_rtol",
        [(8.0, 4096, 1e-5, 3e-4), (32.0, 16384, 1e-5, 3e-4), (2000.0, 65536, 1e-4, 0.05)],
    )
    def test_error_matches_smoothing_bias(self, lam, n, mean_rtol, sup_rtol):
        f = pfx.make_target("identity", 2)
        cp = pfx.synthesize_prefix(f, n, lam)
        sup, mean = pfx.sup_error_estimate(f, lambda p: att.split_head_batch(cp, p), 1024, seed=7)
        limit = 1.0 - langevin(lam)
        assert abs(mean - limit) <= mean_rtol * limit
        assert abs(sup - limit) <= sup_rtol * limit


class TestElementWiseExtension:
    def test_multi_position_matches_single(self):
        m, n, lam = 2, 100, 12.0
        f = pfx.make_target("identity", m)
        cp = pfx.synthesize_prefix(f, n, lam)
        M = -(lam + 40.0 + math.log(n + 8))
        prefix, params = pfx.element_wise_extend(cp, M)
        xs = uniform_sphere_sample(m, 8, seed=12)
        lifted = [att.lift(x, True) for x in xs]
        outs = att.classical_head(lifted, prefix, params)
        for i in range(8):
            single = att.classical_head([lifted[i]], prefix, params)[0]
            assert np.max(np.abs(outs[i] - single)) <= 1e-10

    def test_single_position_matches_plain_path(self):
        m, n, lam = 2, 64, 9.0
        f = pfx.make_target("identity", m)
        cp = pfx.synthesize_prefix(f, n, lam)
        M = -20.0
        prefix, params = pfx.element_wise_extend(cp, M)
        plain_params = att.build_universal_head(m, M, augmented=False)
        plain_prefix = att.assemble_prefix_tokens(cp, M, augmented=False)
        x = uniform_sphere_sample(m, 1, seed=13)[0]
        a = att.project(att.classical_head([att.lift(x, True)], prefix, params)[0], m + 1)
        b = att.project(att.classical_head([att.lift(x)], plain_prefix, plain_params)[0], m + 1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_input_permutation_permutes_outputs(self):
        m, n, lam = 2, 64, 9.0
        cp = pfx.synthesize_prefix(pfx.make_target("identity", m), n, lam)
        prefix, params = pfx.element_wise_extend(cp)
        xs = uniform_sphere_sample(m, 5, seed=14)
        lifted = [att.lift(x, True) for x in xs]
        outs = att.classical_head(lifted, prefix, params)
        perm = [3, 0, 4, 1, 2]
        outs_perm = att.classical_head([lifted[i] for i in perm], prefix, params)
        for j, i in enumerate(perm):
            np.testing.assert_allclose(outs_perm[j], outs[i], atol=1e-12)


class TestReports:
    def test_report_validation(self):
        with pytest.raises(DomainError):
            pfx.ApproximationReport("x", 2, 1.0, 4, -0.1, 0.0, 10, 0, 1.0)

    def test_csv_round(self):
        f = pfx.make_target("identity", 2)
        report, _ = pfx.run_approximation(f, 64, 8.0, 128, seed=15)
        text = pfx.reports_to_csv([report])
        lines = text.strip().split("\n")
        assert lines[0].split(",") == pfx.REPORT_COLUMNS
        assert lines[1].startswith("identity,2,8.0,64,")

    def test_deterministic_given_seed(self):
        f = pfx.make_target("identity", 2)
        r1, _ = pfx.run_approximation(f, 64, 8.0, 128, seed=16)
        r2, _ = pfx.run_approximation(f, 64, 8.0, 128, seed=16)
        assert (r1.sup_error, r1.mean_error) == (r2.sup_error, r2.mean_error)
