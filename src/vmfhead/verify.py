"""Runnable invariant suites over all numerical modules.

Each check returns (passed, detail); suites bundle the quantitative
content of the construction so it can be re-verified from the CLI in one
command.  Checks call through module attributes (kernel.kernel_eigenvalue,
not a local import) so fault-injection tests can monkeypatch them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import attention as att
from . import bounds as bnd
from . import kernel as ker
from . import prefix as pfx
from . import sphere as sph
from .errors import DomainError
from .seq2seq import (
    DigitConfig,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    decode_sequence,
    psi_encode,
    reference_seq2seq,
    sequence_mean,
)

__all__ = ["run_suite", "SUITE_NAMES"]


def _langevin(lam: float) -> float:
    """A(lam) = coth(lam) - 1/lam, with (K*id)(x) = A x on S^2; no Bessel ratio."""
    return 1.0 / math.tanh(lam) - 1.0 / lam


def _check(results, suite, name, fn):
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"exception: {exc!r}"
    results.append({"suite": suite, "name": name, "passed": bool(passed), "detail": str(detail)})


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------


def _kernel_checks(results):
    def norm_identity():
        worst = 0.0
        for m in (2, 8, 16):
            for lam in (1.0, 10.0, 100.0):
                worst = max(worst, abs(ker.kernel_norm(m, lam) - 1.0))
        return worst <= 1e-6, f"max |norm-1| = {worst:.3e}"

    def eigenvalue_sandwich():
        worst_margin = math.inf
        for m in (8, 12):
            for lam in (1.0, 10.0, 100.0):
                prev = math.inf
                for k in range(0, 11):
                    a = ker.kernel_eigenvalue(m, k, lam)
                    v = (m - 1) / 2.0 + k
                    lower = (lam / (v + math.hypot(lam, v))) ** k
                    if not (lower * (1 - 1e-12) <= a <= 1.0 + 1e-12):
                        return False, f"sandwich broken at m={m}, k={k}, lam={lam}: {lower} !<= {a}"
                    if a > prev * (1 + 1e-12):
                        return False, f"not decreasing at m={m}, k={k}, lam={lam}"
                    if k:  # a_0 and its lower bound are both exactly 1
                        worst_margin = min(worst_margin, (a - lower) / a)
                    prev = a
        return True, f"min over k >= 1 of (a_k - lower) / a_k = {worst_margin:.3e}"

    def closed_form_anchors():
        worst = 0.0
        for lam in (0.5, 1.0, 5.0, 20.0):
            c3 = math.exp(ker.vmf_log_normalizer(2, lam))
            worst = max(worst, abs(c3 * math.sinh(lam) / lam - 1.0))
            a1 = ker.kernel_eigenvalue(2, 1, lam)
            worst = max(worst, abs(a1 - _langevin(lam)))
        return worst <= 1e-10, f"max closed-form deviation = {worst:.3e}"

    def funk_hecke_mc():
        # 6,000 vMF draws per point is the fewest (in thousands) from which
        # convolve_vmf at 1.1 lam reads at least 6 sigma (6.27 here).
        lam = 10.0
        kern = ker.VmfKernel(2, lam)
        a1 = ker.kernel_eigenvalue(2, 1, lam)
        xs = sph.uniform_sphere_sample(2, 5, seed=424242)
        worst_sigma = 0.0
        for i, x in enumerate(xs):
            est, sem = ker.convolve_vmf(lambda ys: ys, kern, x, 6_000, seed=1000 + i)
            dev = np.abs(est - a1 * x)
            worst_sigma = max(worst_sigma, float(np.max(dev / sem)))
        return worst_sigma <= 4.0, f"max |dev|/sem = {worst_sigma:.2f}"

    def modulus_bound():
        # |K(t+dt)-K(t)| <= lam * c * e^lam * dt, checked in log domain.
        for m, lam in ((2, 5.0), (8, 50.0), (2, 600.0)):
            log_c = ker.vmf_log_normalizer(m, lam)
            ts = np.linspace(-1.0, 1.0 - 1e-4, 301)
            dt = 1e-4
            lhs = log_c + lam * ts + np.log(math.expm1(lam * dt))
            rhs = log_c + lam + math.log(lam) + math.log(dt)
            if not np.all(lhs <= rhs + 1e-9):
                return False, f"modulus bound broken at m={m}, lam={lam}"
        return True, "log-domain modulus bound holds"

    def change_of_variables():
        # int_{S^3} K(<x, y>) dy by a product rule over the angles of
        # y = (cos p1, sin p1 cos p2, sin p1 sin p2 cos p3, sin p1 sin p2 sin p3),
        # dy = sin^2 p1 sin p2: 24-node Gauss-Legendre in the polar p1, p2,
        # the 48-point trapezoid rule in the periodic p3.  It equals its
        # 32 x 32 x 64 refinement to every printed digit.  The 400-node t-rule
        # is 8e-8 relative off it (the half-integer power of (1 - t^2) at odd
        # m); 1e-6 sits above that and 100 times below a 1e-4 fault.
        m, lam = 3, 6.0
        kern = ker.VmfKernel(m, lam)
        x = sph.uniform_sphere_sample(m, 1, seed=5)[0]
        g, w = np.polynomial.legendre.leggauss(24)
        p, w = 0.5 * math.pi * (g + 1.0), 0.5 * math.pi * w
        c, s = np.cos(p), np.sin(p)
        az = np.arange(48) * (2.0 * math.pi / 48)
        # <x, y> on the (p1, p2, p3) grid, nested from the azimuth out.
        inner = x[1] * c[:, None] + s[:, None] * (x[2] * np.cos(az) + x[3] * np.sin(az))
        t = x[0] * c[:, None, None] + s[:, None, None] * inner
        dy = np.multiply.outer(w * s * s, w * s)[:, :, None] * (2.0 * math.pi / 48)
        product = float(np.sum(dy * np.exp(ker.kernel_log_eval(kern, np.clip(t, -1, 1)))))
        t, u = ker._gauss_legendre(400)
        quad = sph.surface_area(m - 1) * float(
            np.sum(u * np.exp(ker.kernel_log_eval(kern, t)) * (1 - t * t) ** ((m - 2) / 2))
        )
        rel, tol = abs(product - quad) / product, 1e-6
        return rel <= tol, f"|product rule - t-rule| / value = {rel:.3e} (value {product:.10f}), tolerance {tol:g}"

    _check(results, "kernel", "unit-norm identity", norm_identity)
    _check(results, "kernel", "eigenvalue sandwich and monotonicity", eigenvalue_sandwich)
    _check(results, "kernel", "closed-form anchors (m=2)", closed_form_anchors)
    _check(results, "kernel", "harmonic eigenfunction property (MC)", funk_hecke_mc)
    _check(results, "kernel", "kernel modulus bound", modulus_bound)
    _check(results, "kernel", "change-of-variables identity", change_of_variables)


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------


def _bounds_checks(results):
    spec = bnd.SmoothnessSpec(L=1.0, C_H=1.0, C_R=1.0, f_sup=1.0)

    def taylor_limit():
        ratio = bnd.lambda_for_accuracy(1e-4, spec, 8) * (1e-4) ** 4 / 128.0
        return 0.99 <= ratio <= 1.01, f"Lambda(1e-4) * eps^4 / 128 = {ratio:.6f}"

    def lambda_decreasing():
        sigmas = np.logspace(-4, 0, 41)
        vals = [bnd.lambda_for_accuracy(float(s), spec, 8) for s in sigmas]
        ok = all(a > b for a, b in zip(vals, vals[1:]))
        return ok, "strictly decreasing on log grid" if ok else "not decreasing"

    def n_exponent():
        m, lam = 8, 10.0
        a = bnd.prefix_length_bound(lam, 0.1, spec, m).log10_n
        b = bnd.prefix_length_bound(lam, 0.05, spec, m).log10_n
        expect = 2 * (m + 1) * math.log10(2.0)
        return abs((b - a) - expect) <= 1e-9, f"log10 N shift = {b - a:.12f}, expected {expect:.12f}"

    def covering_sandwich():
        for m in range(8, 17):
            for delta in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
                lo, up = bnd.covering_bounds(m, delta)
                if not lo <= up:
                    return False, f"lower > upper at m={m}, delta={delta}"
                if not up < bnd.phi(m) / delta ** (m + 1):
                    return False, f"upper not below looser cap at m={m}, delta={delta}"
        lo_end, _ = bnd.covering_bounds(8, 1.0 - 1e-12)
        return abs(lo_end - 2.0) <= 1e-6, f"lower bound at delta->1: {lo_end:.9f}"

    def normalized_head_composition():
        eps = 0.5
        lam, _ = bnd.normalized_head_parameters(eps, spec, 8)
        direct = bnd.lambda_for_accuracy(2 * eps * spec.L / (2 * spec.L + spec.f_sup), spec, 8)
        return abs(lam - direct) <= 1e-12 * direct, f"lambda = {lam:.6e}"

    _check(results, "bounds", "small-accuracy Taylor limit", taylor_limit)
    _check(results, "bounds", "concentration strictly decreasing", lambda_decreasing)
    _check(results, "bounds", "length-bound exponent", n_exponent)
    _check(results, "bounds", "covering sandwich", covering_sandwich)
    _check(results, "bounds", "normalized-head parameter composition", normalized_head_composition)


# ---------------------------------------------------------------------------
# attention suite
# ---------------------------------------------------------------------------


def _random_control_points(m, n, lam, seed):
    part = sph.equal_area_partition(m, n)
    rng = np.random.default_rng(seed)
    return att.ControlPoints(m=m, lam=lam, p_alpha=part.centers(), p_beta=rng.normal(size=(n, m + 1)))


def _attention_checks(results):
    def core_split_identity():
        cp = _random_control_points(4, 64, 12.0, seed=1)
        worst = 0.0
        for x in sph.uniform_sphere_sample(4, 20, seed=2):
            logits = cp.lam * (cp.p_alpha @ x)
            denom = math.exp(logits.max()) * np.exp(logits - logits.max()).sum()
            worst = max(worst, float(np.max(np.abs(att.core_head(cp, x) / denom - att.split_head(cp, x)))))
        return worst <= 1e-12, f"max |core/denom - split| = {worst:.3e}"

    def convex_hull():
        cp = _random_control_points(3, 40, 9.0, seed=3)
        lo = cp.p_beta.min(axis=0) - 1e-12
        hi = cp.p_beta.max(axis=0) + 1e-12
        for x in sph.uniform_sphere_sample(3, 50, seed=4):
            out = att.split_head(cp, x)
            if np.any(out < lo) or np.any(out > hi):
                return False, "split output escaped the value hull"
        return True, "outputs stay inside the componentwise hull"

    def block_algebra():
        m, lam = 4, 8.0
        cp = _random_control_points(m, 16, lam, seed=5)
        for augmented in (False, True):
            params = att.build_universal_head(m, -7.0, augmented)
            prefix = att.assemble_prefix_tokens(cp, -7.0, augmented)
            x = sph.uniform_sphere_sample(m, 1, seed=6)[0]
            lx = att.lift(x, augmented)
            if np.max(np.abs(params.W_V @ lx)) > 0:
                return False, "W_V does not annihilate lifted inputs"
            wv = params.W_V @ prefix.tokens[0]
            if not (np.allclose(wv[: m + 1], cp.p_beta[0]) and np.max(np.abs(wv[m + 1 :])) == 0):
                return False, "W_V token routing wrong"
            logit = lx @ params.H @ prefix.tokens[0]
            if abs(logit - lam * float(np.dot(x, cp.p_alpha[0]))) > 1e-9:
                return False, "token logit is not lam <x, anchor>"
        return True, "universal-head block algebra holds"

    def suppression_law():
        # Small concentration keeps the prefix mass modest, so negative M
        # values produce gaps far above float noise and the 9x law is
        # visible in a direct measurement.
        m, n, lam = 4, 128, 2.0
        cp = _random_control_points(m, n, lam, seed=7)
        xs = sph.uniform_sphere_sample(m, 25, seed=8)
        gaps = []
        for M in (-1.0, -1.0 - math.log(10.0), -1.0 - 2 * math.log(10.0)):
            params = att.build_universal_head(m, M, augmented=False)
            prefix = att.assemble_prefix_tokens(cp, M, augmented=False)
            worst = 0.0
            for x in xs:
                out = att.project(att.classical_head([att.lift(x)], prefix, params)[0], m + 1)
                s = att.split_head(cp, x)
                worst = max(worst, float(np.linalg.norm(out - s) / np.linalg.norm(s)))
            gaps.append(worst)
        ok = gaps[0] > 1e-9 and all(a / b >= 9.0 for a, b in zip(gaps, gaps[1:]))
        return ok, f"measured gaps: {[f'{g:.3e}' for g in gaps]}"

    def elementwise_consistency():
        m, n, lam = 3, 64, 16.0
        cp = _random_control_points(m, n, lam, seed=9)
        prefix, params = pfx.element_wise_extend(cp)
        xs = sph.uniform_sphere_sample(m, 8, seed=10)
        lifted = [att.lift(x, True) for x in xs]
        outs = att.classical_head(lifted, prefix, params)
        worst = 0.0
        for i in range(len(xs)):
            single = att.classical_head([lifted[i]], prefix, params)[0]
            worst = max(worst, float(np.max(np.abs(outs[i] - single))))
        return worst <= 1e-10, f"max per-position deviation = {worst:.3e}"

    def prefix_permutation():
        m, lam = 2, 6.0
        cp = _random_control_points(m, 32, lam, seed=11)
        params = att.build_universal_head(m, -9.0, True)
        prefix = att.assemble_prefix_tokens(cp, -9.0, True)
        rng = np.random.default_rng(12)
        perm = rng.permutation(prefix.n_tokens)
        shuffled = att.PrefixTokens(d=prefix.d, tokens=prefix.tokens[perm], M=prefix.M, augmented=True)
        x = att.lift(sph.uniform_sphere_sample(m, 1, seed=13)[0], True)
        a = att.classical_head([x], prefix, params)[0]
        b = att.classical_head([x], shuffled, params)[0]
        return bool(np.max(np.abs(a - b)) <= 1e-12), "prefix order irrelevant"

    def extreme_concentration():
        m = 2
        cp = _random_control_points(m, 16, 5000.0, seed=14)
        x = sph.uniform_sphere_sample(m, 1, seed=15)[0]
        s = att.split_head(cp, x)
        signs, logmag = att.core_head_log(cp, x)
        params = att.build_universal_head(m, att.default_suppression(5000.0, 16), True)
        prefix = att.assemble_prefix_tokens(cp, att.default_suppression(5000.0, 16), True)
        c = att.classical_head([att.lift(x, True)], prefix, params)[0]
        ok = np.all(np.isfinite(s)) and np.all(np.isfinite(logmag)) and np.all(np.isfinite(c))
        return bool(ok), "split, log-core, classical all finite at lam = 5000"

    _check(results, "attention", "core equals split numerator", core_split_identity)
    _check(results, "attention", "split output in value hull", convex_hull)
    _check(results, "attention", "universal-head block algebra", block_algebra)
    _check(results, "attention", "finite-M suppression law (9x per ln 10)", suppression_law)
    _check(results, "attention", "element-wise multi-input consistency", elementwise_consistency)
    _check(results, "attention", "prefix permutation invariance", prefix_permutation)
    _check(results, "attention", "finiteness at extreme concentration", extreme_concentration)


# ---------------------------------------------------------------------------
# prefix suite
# ---------------------------------------------------------------------------


def _prefix_checks(results):
    def constant_exactness():
        f = pfx.make_target("constant", 2)
        for n, lam in ((17, 3.0), (256, 40.0)):
            cp = pfx.synthesize_prefix(f, n, lam)
            sup, _ = pfx.sup_error_estimate(f, lambda p: att.split_head_batch(cp, p), 256, seed=21)
            if sup > 1e-13:
                return False, f"constant target error {sup:.3e} at N={n}"
        return True, "constant targets reproduced to float precision"

    def sup_error_decreasing():
        f = pfx.make_target("identity", 2)
        for lam in (8.0, 32.0):
            sups = []
            for n in (64, 256, 1024):
                cp = pfx.synthesize_prefix(f, n, lam)
                sup, _ = pfx.sup_error_estimate(f, lambda p: att.split_head_batch(cp, p), 1024, seed=22)
                sups.append(sup)
            if not all(a > b for a, b in zip(sups, sups[1:])):
                return False, f"sup errors not decreasing at lam={lam}: {sups}"
        return True, "sup error strictly decreasing in N for lam in {8, 32}"

    def denominator_constancy():
        f = pfx.make_target("identity", 2)
        devs = []
        for n in (256, 1024, 4096):
            cp = pfx.synthesize_prefix(f, n, 8.0)
            devs.append(pfx.verify_denominator_constancy(cp, 512, seed=23))
        ok = all(a > b for a, b in zip(devs, devs[1:]))
        return ok, f"deviations: {[f'{d:.3e}' for d in devs]}"

    def core_split_relation():
        f = pfx.make_target("identity", 2)
        part = sph.equal_area_partition(2, 512)
        lam = 10.0
        core_cp = pfx.synthesize_core_weights(f, part, lam)
        split_cp = pfx.synthesize_prefix(f, 512, lam)
        log_c = ker.vmf_log_normalizer(2, lam)
        worst = 0.0
        for x in sph.uniform_sphere_sample(2, 100, seed=24):
            logits = lam * (split_cp.p_alpha @ x)
            peak = logits.max()
            denom_stat = math.exp(log_c - math.log(512) + peak + math.log(np.exp(logits - peak).sum()))
            core_out = att.core_head(core_cp, x)
            split_out = att.split_head(split_cp, x)
            worst = max(worst, float(np.max(np.abs(core_out / denom_stat - split_out))))
        return worst <= 1e-10, f"max |core/denominator - split| = {worst:.3e}"

    def convolution_consistency():
        lam, n = 10.0, 8192
        cp = pfx.synthesize_prefix(pfx.make_target("identity", 2), n, lam)
        xs = sph.uniform_sphere_sample(2, 20, seed=25)
        worst = float(np.max(np.abs(att.split_head_batch(cp, xs) - _langevin(lam) * xs)))
        return worst <= 1e-3, f"max |split - exact convolution| = {worst:.2e}"

    def token_norm_monotone():
        f = pfx.make_target("identity", 2)
        norms = []
        for lam in (2.0, 8.0, 32.0, 128.0):
            cp = pfx.synthesize_prefix(f, 64, lam)
            prefix = att.assemble_prefix_tokens(cp, -lam - 5.0, False)
            norms.append(float(np.linalg.norm(prefix.tokens[0, cp.m + 1 : 2 * (cp.m + 1)])))
        ok = all(a < b for a, b in zip(norms, norms[1:]))
        return ok, f"key-block norms: {[f'{v:.1f}' for v in norms]}"

    _check(results, "prefix", "constant-function exactness", constant_exactness)
    _check(results, "prefix", "sup error decreasing in N", sup_error_decreasing)
    _check(results, "prefix", "softmax denominator near-constancy", denominator_constancy)
    _check(results, "prefix", "core/split algebraic relation", core_split_relation)
    _check(results, "prefix", "convolution consistency", convolution_consistency)
    _check(results, "prefix", "token norm grows with concentration", token_norm_monotone)


# ---------------------------------------------------------------------------
# seq2seq suite
# ---------------------------------------------------------------------------


def _seq2seq_checks(results):
    def psi_monotone():
        cfg = DigitConfig(digits=10)
        xs = np.linspace(0.0, 1.0, 10_001)
        vals = psi_encode(xs, cfg)
        ok = bool(np.all(np.diff(vals) >= 0.0))
        return ok, "digit map non-decreasing on 10^4-point grid"

    def aggregation_injective():
        rng = np.random.default_rng(31)
        cfg = DigitConfig(digits=6)
        for _ in range(50):
            e = rng.random((4, 3))
            s = SequenceSample(4, 2, e)
            r = aggregate_R(s, cfg)
            back = decode_sequence(r, 4, 2, cfg)
            if not np.array_equal(back.elements, np.floor(e * 2**6) / 2**6):
                return False, "round trip broke"
        return True, "digit-exact round trip (T=4, m=2, digits=6)"

    def layer_count():
        cfg = DigitConfig(digits=2)
        for t_len in (1, 2, 3):
            stack = build_seq2seq_transformer(sequence_mean, t_len, 1, cfg, mode="hybrid")
            if stack.attention_layer_count != t_len + 2:
                return False, f"T={t_len}: {stack.attention_layer_count} layers"
        return True, "attention layer count is T+2"

    def summation_exact():
        cfg = DigitConfig(digits=4)
        stack = build_seq2seq_transformer(sequence_mean, 2, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(10):
            s = SequenceSample(2, 1, rng.random((2, 2)))
            tr = stack.stage_trace(s)
            r = aggregate_R(s, cfg).value
            vals = tr["layers"][1]["attention"][:, stack.layout.val]
            worst = max(worst, float(np.max(np.abs(vals - r))))
        return worst <= 1e-12, f"max |layer-2 attention - R| = {worst:.3e}"

    def hybrid_equals_reference():
        cfg = DigitConfig(digits=4)
        stack = build_seq2seq_transformer(sequence_mean, 2, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(20):
            s = SequenceSample(2, 1, rng.random((2, 2)))
            out = stack.evaluate(s)
            ref = np.stack(reference_seq2seq(sequence_mean, s, cfg))
            worst = max(worst, float(np.max(np.abs(out - ref))))
        return worst <= 1e-9, f"max |stack - reference| = {worst:.3e}"

    def truncation_bound():
        cfg = DigitConfig(digits=6)
        rng = np.random.default_rng(34)
        worst = 0.0
        for _ in range(20):
            e = rng.random((3, 2))
            s = SequenceSample(3, 1, e)
            ref = np.stack(reference_seq2seq(sequence_mean, s, cfg))
            exact = sequence_mean(e)
            # the mean is 1-Lipschitz in the max norm; truncation moves each
            # coordinate by less than 2^-digits
            bound = math.sqrt(2) * 2.0**-cfg.digits
            worst = max(worst, float(np.max(np.linalg.norm(ref - exact, axis=1))) - bound)
        return worst <= 0.0, f"max excess over Lipschitz truncation bound = {worst:.3e}"

    _check(results, "seq2seq", "digit map monotone", psi_monotone)
    _check(results, "seq2seq", "aggregation injective (round trip)", aggregation_injective)
    _check(results, "seq2seq", "T+2 attention layers", layer_count)
    _check(results, "seq2seq", "summation head exact", summation_exact)
    _check(results, "seq2seq", "hybrid pipeline equals reference", hybrid_equals_reference)
    _check(results, "seq2seq", "truncation error bound", truncation_bound)


SUITE_NAMES = ("kernel", "bounds", "attention", "prefix", "seq2seq", "all")

_SUITES = {
    "kernel": _kernel_checks,
    "bounds": _bounds_checks,
    "attention": _attention_checks,
    "prefix": _prefix_checks,
    "seq2seq": _seq2seq_checks,
}


def run_suite(name: str) -> dict:
    """Run one suite (or 'all'); returns a JSON-ready summary."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    chosen = list(_SUITES) if name == "all" else [name]
    results: list[dict] = []
    t0 = time.perf_counter()
    for suite in chosen:
        _SUITES[suite](results)
    elapsed = time.perf_counter() - t0
    return {
        "suite": name,
        "elapsed_seconds": elapsed,
        "n_checks": len(results),
        "n_failed": sum(not r["passed"] for r in results),
        "checks": results,
    }


def summary_to_text(summary: dict) -> str:
    lines = []
    for c in summary["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"[{status}] {c['suite']}: {c['name']} -- {c['detail']}")
    lines.append(
        f"{summary['n_checks'] - summary['n_failed']}/{summary['n_checks']} checks passed "
        f"in {summary['elapsed_seconds']:.2f} s"
    )
    return "\n".join(lines)
