"""Acceptance gate: every release criterion at its stated tolerance.

The construction's headline complexity bounds are astronomically large for
any accuracy in the guaranteed dimension range, so acceptance is formula-
level reproduction plus property checks at desk scale.  Each test prints
one PASS line (visible with pytest -s); a failure surfaces as a normal
pytest failure.
"""

import math
import time

import numpy as np
from oracles import langevin, suppression_gap

from vmfhead import attention as att
from vmfhead import bounds as bnd
from vmfhead import kernel as ker
from vmfhead import prefix as pfx
from vmfhead import verify as vfy
from vmfhead.sphere import uniform_sphere_sample
from vmfhead.seq2seq import (
    DigitConfig,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    decode_sequence,
    reference_seq2seq,
)

UNIT = bnd.SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1.0)


def _report(num, name):
    print(f"[ACCEPTANCE {num:2d}] {name}: PASS")


def test_01_kernel_norm_identity():
    """Unit L1 norm of the kernel across dimensions and concentrations."""
    t0 = time.perf_counter()
    for m in (2, 8, 16):
        for lam in (1.0, 10.0, 100.0):
            assert abs(ker.kernel_norm(m, lam) - 1.0) <= 1e-6, (m, lam)
    assert time.perf_counter() - t0 < 5.0
    _report(1, "kernel norm identity (9 combos, < 5 s)")


def test_02_closed_form_anchors():
    """Normalizer and first eigenvalue against their m=2 closed forms."""
    for lam in (0.5, 1.0, 5.0, 20.0):
        c3 = math.exp(ker.vmf_log_normalizer(2, lam))
        assert abs(c3 * math.sinh(lam) / lam - 1.0) <= 1e-10
        a1 = ker.kernel_eigenvalue(2, 1, lam)
        assert abs(a1 - langevin(lam)) <= 1e-10
    _report(2, "closed-form anchors (m=2)")


def test_03_eigenvalue_sandwich():
    """Lower-bound formula <= eigenvalue <= 1, decreasing in degree."""
    for m in (8, 12):
        for lam in (1.0, 10.0, 100.0):
            prev = 1.0 + 1e-15
            for k in range(11):
                a = ker.kernel_eigenvalue(m, k, lam)
                v = (m - 1) / 2.0 + k
                lower = (lam / (v + math.hypot(lam, v))) ** k
                assert lower * (1 - 1e-12) <= a <= 1.0 + 1e-15, (m, k, lam)
                assert a <= prev
                prev = a
    _report(3, "eigenvalue sandwich (m in {8,12}, k <= 10)")


def test_04_harmonic_convolution_oracle():
    """Monte-Carlo convolution of the first coordinate lands within 3
    standard errors of the eigenvalue prediction at 20 points.  200,000
    draws from the kernel give each point a standard error at or below the
    one 10^6 uniform, kernel-weighted draws gave (at most 0.95 of it)."""
    t0 = time.perf_counter()
    lam = 10.0
    kern = ker.VmfKernel(2, lam)
    a1 = ker.kernel_eigenvalue(2, 1, lam)
    xs = uniform_sphere_sample(2, 20, seed=777)
    for i, x in enumerate(xs):
        est, sem = ker.convolve_vmf(lambda ys: ys[:, :1], kern, x, 200_000, seed=9000 + i)
        assert abs(est[0] - a1 * x[0]) <= 3.0 * sem[0], (i, est[0], a1 * x[0], sem[0])
    assert time.perf_counter() - t0 < 30.0
    _report(4, "first-harmonic convolution oracle (2e5 samples, < 30 s)")


def test_05_concentration_taylor_limit():
    """Small-accuracy behavior 128 L^3 C_H C_R^3 / eps^4 of the bound."""
    ratio = bnd.lambda_for_accuracy(1e-4, UNIT, 8) * (1e-4) ** 4 / 128.0
    assert 0.99 <= ratio <= 1.01, ratio
    _report(5, f"concentration Taylor limit (ratio = {ratio:.6f})")


def test_06_covering_sandwich():
    """Covering-number bounds are ordered; the lower bound tends to 2."""
    for m in range(8, 17):
        for delta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            lo, up = bnd.covering_bounds(m, delta)
            assert lo <= up, (m, delta)
    lo, _ = bnd.covering_bounds(8, 1.0 - 1e-12)
    assert abs(lo - 2.0) <= 1e-6
    _report(6, "covering sandwich and hemisphere limit")


def test_07_split_head_convergence(fixtures):
    """Identity-target sup error strictly decreases in the control-point
    count and the finest runs match the brute-force fixtures within 10%."""
    fx = fixtures["split_head_identity_m2"]
    f = pfx.make_target("identity", 2)
    for lam in (8.0, 32.0):
        sups = []
        for n in (64, 256, 1024, 4096):
            cp = pfx.synthesize_prefix(f, n, lam)
            sup, _ = pfx.sup_error_estimate(
                f, lambda p: att.split_head_batch(cp, p), fx["samples"], seed=fx["seed"]
            )
            sups.append(sup)
            ref = fx["sup_errors"][f"lam{lam:g}_n{n}"]
            assert abs(sup - ref) <= 0.10 * ref, (lam, n, sup, ref)
        assert all(a > b for a, b in zip(sups, sups[1:])), (lam, sups)
    _report(7, "split-head convergence vs brute-force fixtures")


def test_08_classical_equals_split():
    """At M = -(lam + 30 + ln N) the classical head reproduces the split
    head to 1e-10 relative; each extra ln 10 of suppression divides the
    finite-M gap by at least 9.

    At this M the true gap sits some forty orders below float resolution,
    so the ratio law is evaluated on the closed-form gap
    e^M / (mass + e^M); the same law is cross-checked against direct
    measurement at visible suppression levels in the attention tests.
    """
    m, n, lam = 4, 128, 32.0
    part_centers = pfx.synthesize_prefix(pfx.make_target("identity", m), n, lam).p_alpha
    rng = np.random.default_rng(808)
    cp = att.ControlPoints(m=m, lam=lam, p_alpha=part_centers, p_beta=rng.normal(size=(n, m + 1)))
    M = -(lam + 30.0 + math.log(n))
    params = att.build_universal_head(m, M, augmented=False)
    prefix = att.assemble_prefix_tokens(cp, M, augmented=False)
    xs = uniform_sphere_sample(m, 100, seed=809)
    worst = 0.0
    for x in xs:
        out = att.project(att.classical_head([att.lift(x)], prefix, params)[0], m + 1)
        s = att.split_head(cp, x)
        worst = max(worst, float(np.linalg.norm(out - s) / np.linalg.norm(s)))
    assert worst <= 1e-10, worst
    gap0 = max(suppression_gap(cp, x, M) for x in xs)
    gap1 = max(suppression_gap(cp, x, M - math.log(10.0)) for x in xs)
    assert gap0 > 0.0 and gap0 / gap1 >= 9.0, (gap0, gap1)
    _report(8, f"classical = split (max rel dev {worst:.2e}; gap ratio {gap0 / gap1:.2f})")


def test_09_denominator_constancy():
    """The softmax denominator statistic approaches a constant as the
    equal-measure anchor set refines."""
    f = pfx.make_target("identity", 2)
    devs = []
    for n in (256, 1024, 4096):
        cp = pfx.synthesize_prefix(f, n, 8.0)
        devs.append(pfx.verify_denominator_constancy(cp, 1024, seed=811))
    assert all(a > b for a, b in zip(devs, devs[1:])), devs
    _report(9, f"denominator constancy strictly decreasing ({', '.join(f'{d:.2e}' for d in devs)})")


def test_10_element_wise_extension():
    """Eight stacked inputs produce the same per-position outputs as eight
    independent single-input evaluations."""
    m, n, lam = 2, 100, 12.0
    cp = pfx.synthesize_prefix(pfx.make_target("identity", m), n, lam)
    prefix, params = pfx.element_wise_extend(cp, M=-(lam + 40.0 + math.log(n + 8)))
    xs = uniform_sphere_sample(m, 8, seed=812)
    lifted = [att.lift(x, True) for x in xs]
    outs = att.classical_head(lifted, prefix, params)
    worst = 0.0
    for i in range(8):
        single = att.classical_head([lifted[i]], prefix, params)[0]
        worst = max(worst, float(np.max(np.abs(outs[i] - single))))
    assert worst <= 1e-10, worst
    _report(10, f"element-wise extension T=8 (max dev {worst:.2e})")


def test_11_seq2seq_pipeline(fixtures):
    """Layer count, hybrid equivalence, digit-exact round trip, and the
    full-mode fixture."""

    def seq_mean(elements):
        return np.tile(elements.mean(axis=0), (elements.shape[0], 1))

    for t_len in (1, 2, 3):
        stack = build_seq2seq_transformer(seq_mean, t_len, 1, DigitConfig(digits=2), mode="hybrid")
        assert stack.attention_layer_count == t_len + 2

    cfg = DigitConfig(digits=4)
    stack = build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="hybrid")
    rng = np.random.default_rng(813)
    for _ in range(20):
        s = SequenceSample(2, 1, rng.random((2, 2)))
        ref = np.stack(reference_seq2seq(seq_mean, s, cfg))
        assert float(np.max(np.abs(stack.evaluate(s) - ref))) <= 1e-9
        r = aggregate_R(s, cfg)
        back = decode_sequence(r, 2, 1, cfg)
        assert np.array_equal(back.elements, np.floor(s.elements * 2**4) / 2**4)

    fx = fixtures["seq2seq_full_t2_m0_digits2"]
    cfg0 = DigitConfig(digits=2)
    full = build_seq2seq_transformer(seq_mean, 2, 0, cfg0, n_points=fx["n_points"], lam=fx["lam"], mode="full")
    grid = np.linspace(0.0, 1.0, fx["grid"])
    worst = 0.0
    for x1 in grid:
        for x2 in grid:
            s = SequenceSample(2, 0, np.array([[x1], [x2]]))
            ref = np.stack(reference_seq2seq(seq_mean, s, cfg0))
            worst = max(worst, float(np.max(np.abs(full.evaluate(s) - ref))))
    assert worst <= fx["sup_error"] * 1.25, (worst, fx["sup_error"])
    _report(11, f"sequence pipeline (full-mode sup err {worst:.2e})")


def test_12_verification_suite():
    """The complete invariant suite runs clean inside the time budget."""
    t0 = time.perf_counter()
    summary = vfy.run_suite("all")
    elapsed = time.perf_counter() - t0
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert not failed, failed
    assert elapsed <= 600.0, elapsed
    _report(12, f"verify-all clean in {elapsed:.1f} s ({summary['n_checks']} checks)")
