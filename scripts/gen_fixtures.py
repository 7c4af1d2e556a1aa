#!/usr/bin/env python3
"""Regenerate the frozen oracle values in tests/fixtures.json.

Head outputs come from a naive direct evaluation (no log-sum-exp
machinery) and bound values from 60-digit mpmath arithmetic, both
independent of the code under test.  The full-mode sequence-pipeline error
is different: it is recorded from the library's own stack on a grid, so it
is a regression pin, not an independent oracle.

Run from the repository root:  python3 scripts/gen_fixtures.py
"""

import json
import math
import pathlib
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from vmfhead.prefix import make_target  # noqa: E402
from vmfhead.seq2seq import DigitConfig, SequenceSample, build_seq2seq_transformer, reference_seq2seq  # noqa: E402
from vmfhead.sphere import equal_area_partition, uniform_sphere_sample  # noqa: E402

mp.mp.dps = 60

EVAL_SEED = 20240811
EVAL_SAMPLES = 2048


def brute_force_split_errors():
    """Naive split-head evaluation (plain exp, no stabilization) of the
    identity-target construction; the sup errors are the frozen anchors."""
    out = {}
    f = make_target("identity", 2)
    xs = uniform_sphere_sample(2, EVAL_SAMPLES, EVAL_SEED)
    for lam in (8.0, 32.0):
        for n in (64, 256, 1024, 4096):
            part = equal_area_partition(2, n)
            centers = part.centers()
            values = f(centers)
            sup = 0.0
            for x in xs:
                w = np.exp(lam * (centers @ x))
                approx = (w @ values) / w.sum()
                sup = max(sup, float(np.linalg.norm(x - approx)))
            out[f"lam{lam:g}_n{n}"] = sup
    return out


def mp_lambda(sigma, L=1, CH=1, CR=1, m=8):
    sigma = mp.mpf(sigma)
    beta = sigma**2 / (8 * L * CH * CR + 2 * sigma * CH)
    e1 = sigma / (4 * L * CR + sigma)
    return (8 * L * CR + m * sigma + sigma) * (1 - beta) ** e1 / (sigma * (1 - (1 - beta) ** (2 * e1)))


def mp_log10_n(lam, eps, m=8, L=1, f_sup=1, vector=False):
    lam = mp.mpf(lam)
    mp1 = mp.mpf(m + 1)
    phi = mp.e * (mp1 * mp.log(mp1) + mp1 * mp.log(mp.log(mp1)) + 5 * mp1)
    w_m = 2 * mp.pi ** (mp1 / 2) / mp.gamma(mp1 / 2)
    log_c = mp.log(w_m) + (mp1 / 2 - 1) * mp.log(lam) - (mp1 / 2) * mp.log(2 * mp.pi) - mp.log(mp.besseli(mp1 / 2 - 1, lam))
    extra = mp.log(mp.sqrt(mp1)) if vector else mp.mpf(0)
    ln_n = mp.log(phi) + 2 * mp1 * (mp.log(3 * mp.pi) + extra + mp.log(L + lam * f_sup) + log_c + lam - mp.log(eps))
    return ln_n / mp.log(10)


def mp_covering(m, delta):
    s2 = mp.mpf(delta) * (2 - mp.mpf(delta))
    lower = 2 / mp.betainc(mp.mpf(m) / 2, mp.mpf("0.5"), 0, s2, regularized=True)
    mp1 = mp.mpf(m + 1)
    phi = mp.e * (mp1 * mp.log(mp1) + mp1 * mp.log(mp.log(mp1)) + 5 * mp1)
    upper = phi / s2 ** (mp1 / 2)
    return lower, upper


def seq2seq_full_mode_error():
    """Regression pin: worst full-mode stack error on an 8x8 input grid,
    measured with the library itself."""
    def seq_mean(elements):
        return np.tile(elements.mean(axis=0), (elements.shape[0], 1))

    cfg = DigitConfig(digits=2)
    stack = build_seq2seq_transformer(seq_mean, 2, 0, cfg, n_points=4096, lam=2.0e5, mode="full")
    grid = np.linspace(0.0, 1.0, 8)
    worst = 0.0
    for x1 in grid:
        for x2 in grid:
            s = SequenceSample(2, 0, np.array([[x1], [x2]]))
            out = stack.evaluate(s)
            ref = np.stack(reference_seq2seq(seq_mean, s, cfg))
            worst = max(worst, float(np.max(np.abs(out - ref))))
    return worst


def main():
    lam_tc3 = mp_lambda(mp.mpf(1) / 3)
    fixtures = {
        "split_head_identity_m2": {
            "seed": EVAL_SEED,
            "samples": EVAL_SAMPLES,
            "sup_errors": brute_force_split_errors(),
        },
        "bounds": {
            "lambda_sigma_0.1_m8_unit": mp.nstr(mp_lambda("0.1"), 25),
            "log10_n_lam10_eps0.1_m8_unit": mp.nstr(mp_log10_n(10, mp.mpf("0.1")), 25),
            "normalized_head_eps0.5_m8_unit_lambda": mp.nstr(lam_tc3, 25),
            "normalized_head_eps0.5_m8_unit_log10_n": mp.nstr(mp_log10_n(lam_tc3, mp.mpf("0.5"), vector=True), 25),
            "covering_m8_delta0.1_lower": mp.nstr(mp_covering(8, "0.1")[0], 25),
            "covering_m8_delta0.1_upper": mp.nstr(mp_covering(8, "0.1")[1], 25),
        },
        "seq2seq_full_t2_m0_digits2": {
            "n_points": 4096,
            "lam": 2.0e5,
            "grid": 8,
            "sup_error": seq2seq_full_mode_error(),
        },
    }
    out_path = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures.json"
    out_path.write_text(json.dumps(fixtures, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(json.dumps(fixtures, indent=2))


if __name__ == "__main__":
    main()
