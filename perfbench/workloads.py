"""The four workloads: inputs made from a seed, a timed round, and checks.

Every workload runs in whole rounds.  A round repeats the same operations
on the same inputs, so the share of failed operations is the same in every
round.  `run_round(sw, tracer)` times its sections with the stopwatch `sw`,
is given the tracer in a traced round only, and returns the round's
timings, its operation counts and the outputs the checks need; the checks
run after the timed rounds and use only numpy and the standard library as
references.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vmfhead.attention as att
import vmfhead.kernel as ker
import vmfhead.prefix as pfx
import vmfhead.seq2seq as s2s
import vmfhead.sphere as sph
import vmfhead.verify as vfy

clock = time.perf_counter
HERE = Path(__file__).resolve().parent


class Stopwatch:
    """Times the sections of one round, as set-up or evaluation.

    Given a slowness probe (probe.slowness), it probes before the first
    section and after each one, and also keeps every section's time divided
    by the mean slowness measured on its two sides: the time at the
    machine's nominal speed.  Without a probe the two sums agree.
    """

    def __init__(self, slowness=None):
        self._probe = slowness
        self._before = slowness() if slowness else 1.0
        self.raw = {"setup": 0.0, "eval": 0.0}
        self.scaled = {"setup": 0.0, "eval": 0.0}

    def time(self, kind: str, fn, *args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        dt = clock() - t0
        after = self._probe() if self._probe else 1.0
        self.raw[kind] += dt
        self.scaled[kind] += dt / (0.5 * (self._before + after))
        self._before = after
        return result


@dataclass
class Round:
    """One round's times (nominal-speed seconds), rates and operation counts."""

    sw: Stopwatch
    attempted: int
    failed: int
    work: dict  # rate metric name -> units of work done in the evaluation sections
    outputs: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.sw.scaled["setup"]

    @property
    def wall_s(self) -> float:
        return self.sw.scaled["setup"] + self.sw.scaled["eval"]

    @property
    def raw_wall_s(self) -> float:
        return self.sw.raw["setup"] + self.sw.raw["eval"]

    def rate(self, name: str) -> float:
        """Work per second of evaluation; a workload without that kind of
        work counts its operations per second of the whole round."""
        if name in self.work:
            seconds = self.sw.scaled["eval"]
            return self.work[name] / seconds if seconds > 0 else 0.0
        return (self.attempted - self.failed) / self.wall_s if self.wall_s > 0 else 0.0


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# approx-s2 / approx-s8: synthesize_prefix + sup_error_estimate(split_head_batch)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxCase:
    m: int
    lam: float
    n_points: int
    samples: int


APPROX_CASES = {
    "approx-s2": (ApproxCase(2, 32.0, 16384, 4096), ApproxCase(2, 2000.0, 65536, 1024)),
    "approx-s8": (ApproxCase(8, 16.0, 2048, 8192),),
}


class Approx:
    def __init__(self, name: str, seed: int):
        self.cases = APPROX_CASES[name]
        self.seeds = [_stage_seed(seed, i + 1) for i in range(len(self.cases))]
        self.targets = [pfx.make_target("identity", c.m) for c in self.cases]
        self.check_seed = _stage_seed(seed, 100)
        # the first round's control points, kept for the checks; later
        # rounds keep only their errors, so memory does not grow with rounds
        self.first_cp = {}

    def run_round(self, sw: Stopwatch, tracer=None) -> Round:
        queries = failed = 0
        outputs = {}
        for k, (case, target, seed) in enumerate(zip(self.cases, self.targets, self.seeds)):
            try:
                cp = sw.time("setup", pfx.synthesize_prefix, target, case.n_points, case.lam)
                sup, mean = sw.time(
                    "eval", pfx.sup_error_estimate,
                    target, lambda pts: att.split_head_batch(cp, pts), case.samples, seed,
                )
            except Exception:
                _report_exception(f"approximation case {case}")
                failed += 1
                continue
            queries += case.samples
            self.first_cp.setdefault(k, cp)
            outputs[k] = (sup, mean)
        return Round(sw, len(self.cases), failed, {"head_queries_per_s": queries}, outputs)

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for k, case in enumerate(self.cases):
            runs = [r.outputs[k] for r in rounds if k in r.outputs]
            if not runs:
                continue
            cp = self.first_cp[k]
            sup, mean = runs[0]
            label = f"m={case.m} lam={case.lam:g} N={case.n_points}"
            if any(errors != (sup, mean) for errors in runs):
                problems.append(f"{label}: errors differ between rounds")
            problems += _check_control_points(cp, case, self.check_seed, label)
            problems += _check_head(cp, self.check_seed, label)
            if not sup >= mean > 0:
                problems.append(f"{label}: sup error {sup} below mean error {mean}")
            if case.m == 2:
                # split head of the identity on S^2 -> a_1(lam) x, so the
                # error tends to 1 - coth(lam) + 1/lam
                limit = 1.0 - 1.0 / math.tanh(case.lam) + 1.0 / case.lam
                if not abs(mean - limit) <= 0.01 * limit:
                    problems.append(f"{label}: mean error {mean} not within 1% of {limit}")
        return problems


def _sphere_measure(m: int) -> float:
    h = (m + 1) / 2.0
    return 2.0 * math.pi**h / math.gamma(h)


def _check_control_points(cp, case: ApproxCase, seed: int, label: str) -> list[str]:
    problems = []
    anchors = np.asarray(cp.p_alpha)
    if anchors.shape != (case.n_points, case.m + 1):
        return [f"{label}: anchors have shape {anchors.shape}"]
    if not np.max(np.abs(np.linalg.norm(anchors, axis=1) - 1.0)) <= 1e-12:
        problems.append(f"{label}: anchors are not unit vectors")
    if not np.array_equal(np.asarray(cp.p_beta), anchors):
        problems.append(f"{label}: identity-target values differ from their anchors")
    part = sph.equal_area_partition(case.m, case.n_points)
    if not np.array_equal(part.centers(), anchors):
        problems.append(f"{label}: anchors are not the partition's cell centers")
    cell = _sphere_measure(case.m) / case.n_points
    measures = part.measures()
    if measures.size != case.n_points or not np.max(np.abs(measures / cell - 1.0)) <= 1e-12:
        problems.append(f"{label}: partition cells do not all have measure w_m/N")
    return problems + _check_geometry(part, case, seed, label)


def _cap_area(m: int, theta: float) -> float:
    """Area of the colatitude cap [0, theta] on S^m, w_(m-1) times the
    integral of sin^(m-1) over [0, theta]: closed form on S^2, 64-point
    Gauss-Legendre quadrature (exact to rounding for this integrand) else."""
    if m == 2:
        return 2.0 * math.pi * (1.0 - math.cos(theta))
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * theta * (x + 1.0)
    return _sphere_measure(m - 1) * 0.5 * theta * float(w @ np.sin(t) ** (m - 1))


def _check_geometry(part, case: ApproxCase, seed: int, label: str, points: int = 1 << 20) -> list[str]:
    """The partition's geometry, measured without vmfhead's area formulas.

    `cap_colatitude` of k cells' area must give a cap of that area.  And
    `points` numpy-drawn uniform points, located by `locate_batch`, must
    fall evenly: per cell (Pearson chi-square over the N cells) and per
    band (the cells sorted by center colatitude, in 16 groups, so a collar
    boundary or collar split that moves area shows), each within 6 sigma.
    """
    m, n = case.m, case.n_points
    problems = []
    cell = _sphere_measure(m) / n
    for k in (1, n // 4, n // 2, 3 * n // 4, n - 1):
        theta = sph.cap_colatitude(m, k * cell)
        area = _cap_area(m, theta)
        # 1e-7: the bisection's area function flattens within ~1e-8 rad of
        # pi/2 (it goes through sin^2), which leaves the half-sphere cap
        # 1-2e-8 off; a wrong inversion is off by far more
        if not abs(area / (k * cell) - 1.0) <= 1e-7:
            problems.append(f"{label}: cap_colatitude of {k} cells' area gives a cap of {area / cell:.12g} cells")
    rng = np.random.default_rng(seed)
    counts = np.zeros(n, dtype=np.int64)
    chunk = 1 << 16
    for _ in range(points // chunk):
        g = rng.standard_normal((chunk, m + 1))
        counts += np.bincount(part.locate_batch(g / np.linalg.norm(g, axis=1, keepdims=True)), minlength=n)
    expected = points / n
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    z = (chi2 - (n - 1)) / math.sqrt(2.0 * (n - 1))
    if not z <= 6.0:
        problems.append(f"{label}: uniform points fall unevenly on the cells (chi-square {chi2:.0f}, {n - 1} dof)")
    order = np.argsort(np.arccos(np.clip(part.centers()[:, -1], -1.0, 1.0)), kind="stable")
    for group in np.array_split(order, 16):
        p = group.size / n
        z = (counts[group].sum() - points * p) / math.sqrt(points * p * (1.0 - p))
        if not abs(z) <= 6.0:
            problems.append(f"{label}: a band of {group.size} cells gets {z:+.1f} sigma of uniform points")
            break
    return problems


def _check_head(cp, seed: int, label: str, n_queries: int = 256) -> list[str]:
    """split_head_batch against a plain max-shifted softmax."""
    g = np.random.default_rng(seed).standard_normal((n_queries, cp.m + 1))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    anchors, values = np.asarray(cp.p_alpha), np.asarray(cp.p_beta)
    ref = np.empty_like(x)
    for i in range(n_queries):
        logits = cp.lam * (anchors @ x[i])
        w = np.exp(logits - logits.max())
        ref[i] = (w @ values) / w.sum()
    dev = float(np.max(np.abs(att.split_head_batch(cp, x) - ref)))
    return [] if dev <= 1e-12 else [f"{label}: split_head_batch deviates from softmax by {dev:.3e}"]


# ---------------------------------------------------------------------------
# seq2seq: a full-mode and a hybrid T+2 stack, built and evaluated
# ---------------------------------------------------------------------------


def seq_mean(elements: np.ndarray) -> np.ndarray:
    """The sequence function: every position gets the mean element."""
    return np.tile(elements.mean(axis=0), (elements.shape[0], 1))


def truncated_mean(elements: np.ndarray, digits: int) -> np.ndarray:
    """Reference output: seq_mean of the inputs cut to `digits` binary
    digits (x = 1 keeps the largest value the budget holds)."""
    scale = 2.0**digits
    cut = np.floor(np.minimum(elements, 1.0 - 1.0 / scale) * scale) / scale
    return seq_mean(cut)


@dataclass(frozen=True)
class StackSpec:
    mode: str
    t_len: int
    m: int
    digits: int
    tolerance: float
    kwargs: tuple = ()


FULL = StackSpec("full", 2, 0, 2, 1e-2, (("n_points", 4096), ("lam", 2.0e5)))
HYBRID = StackSpec("hybrid", 8, 0, 3, 1e-9)
N_FULL, N_HYBRID = 200, 500
EVAL_SECTIONS = 2  # timed sections per stack's evaluation, probed in between
# Full mode's fixed N and lambda decode inputs within ~4e-3 of a digit jump
# (1/4, 1/2, 3/4 at two digits) onto the wrong plateau.  Seeded inputs keep
# JUMP_MARGIN away from the jumps; these fixed near-jump inputs fail on
# every seed and are counted as failed operations.
JUMP_MARGIN = 0.02
NEAR_JUMP = ((0.501, 0.3), (0.3, 0.499), (0.749, 0.6), (0.1, 0.751))


def _away_from_jumps(rng, shape, digits: int) -> np.ndarray:
    jumps = np.arange(1, 2**digits) / 2.0**digits
    x = rng.random(shape)
    while True:
        bad = np.min(np.abs(x[..., None] - jumps), axis=-1) < JUMP_MARGIN
        if not bad.any():
            return x
        x[bad] = rng.random(int(bad.sum()))


class Seq2Seq:
    def __init__(self, seed: int):
        rng = np.random.default_rng(_stage_seed(seed, 1))
        full = _away_from_jumps(rng, (N_FULL, FULL.t_len, FULL.m + 1), FULL.digits)
        full = np.concatenate([full, np.array(NEAR_JUMP).reshape(-1, FULL.t_len, FULL.m + 1)])
        hybrid = rng.random((N_HYBRID, HYBRID.t_len, HYBRID.m + 1))
        self.inputs = {FULL: full, HYBRID: hybrid}
        self.samples = {
            spec: [s2s.SequenceSample(spec.t_len, spec.m, e) for e in arr] for spec, arr in self.inputs.items()
        }

    def run_round(self, sw: Stopwatch, tracer=None) -> Round:
        attempted = failed = 0
        work = {"head_queries_per_s": 0, "sequences_per_s": 0}
        outputs = {}
        for spec in (FULL, HYBRID):
            samples = self.samples[spec]
            attempted += 1 + len(samples)
            try:
                stack = sw.time(
                    "setup", s2s.build_seq2seq_transformer,
                    seq_mean, spec.t_len, spec.m, s2s.DigitConfig(spec.digits), mode=spec.mode, **dict(spec.kwargs),
                )
            except Exception:
                _report_exception(f"{spec.mode} build")
                failed += 1 + len(samples)
                continue
            if tracer is not None:
                for i, layer in enumerate(stack.transformer.layers):
                    tracer.head_roles[id(layer.prefix)] = ("encoder", "summation")[i] if i < 2 else "decoder"
            outs = []
            for part in np.array_split(np.arange(len(samples)), EVAL_SECTIONS):
                outs += sw.time("eval", _evaluate_all, stack, [samples[i] for i in part])
            work["head_queries_per_s"] += len(samples) * spec.t_len * (spec.m + 1) * stack.attention_layer_count
            work["sequences_per_s"] += len(samples)
            outputs[spec] = (stack.attention_layer_count, outs)
            if spec is FULL:
                failed += sum(not _within(o, e, spec) for o, e in zip(outs, self.inputs[spec]))
        return Round(sw, attempted, failed, work, outputs)

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for spec in (FULL, HYBRID):
            for r in rounds:
                if spec not in r.outputs:
                    continue
                layers, outs = r.outputs[spec]
                if layers != spec.t_len + 2:
                    problems.append(f"{spec.mode} stack has {layers} attention layers, not T+2 = {spec.t_len + 2}")
                if spec is HYBRID:
                    bad = sum(not _within(o, e, spec) for o, e in zip(outs, self.inputs[spec]))
                    if bad:
                        problems.append(f"{bad} hybrid outputs differ from the reference by more than {spec.tolerance}")
        return problems


def _evaluate_all(stack, samples) -> list:
    outs = []
    for s in samples:
        try:
            outs.append(stack.evaluate(s))
        except Exception as exc:  # a sequence that raises is a failed operation
            outs.append(exc)
    return outs


def _within(out, elements: np.ndarray, spec: StackSpec) -> bool:
    if isinstance(out, Exception):
        return False
    ref = truncated_mean(elements, spec.digits)
    return np.shape(out) == ref.shape and float(np.max(np.abs(np.asarray(out) - ref))) <= spec.tolerance


# ---------------------------------------------------------------------------
# verify-all: a fresh import of vmfhead.verify, then every verify suite
# ---------------------------------------------------------------------------

VERIFY_CHECKS = HERE / "verify_checks.json"
SUITES = [s for s in vfy.SUITE_NAMES if s != "all"]


def _is_vmfhead(name: str) -> bool:
    return name == "vmfhead" or name.startswith("vmfhead.")


def fresh_import() -> None:
    """Import vmfhead.verify, and with it the vmfhead modules it loads,
    anew in this process: the module-level work a `vmfhead verify` command
    pays before its first check, with numpy already loaded.  The modules in
    use are put back afterwards, so the rest of the round runs the same
    code."""
    saved = {k: mod for k, mod in sys.modules.items() if _is_vmfhead(k)}
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("vmfhead.verify")
    finally:
        for k in [k for k in sys.modules if _is_vmfhead(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


class VerifyAll:
    def run_round(self, sw: Stopwatch, tracer=None) -> Round:
        sw.time("setup", fresh_import)
        # run_suite("all") runs the suites in this order; one call per
        # suite times each between probes and gives each its own span
        checks = [c for suite in SUITES for c in sw.time("eval", vfy.run_suite, suite)["checks"]]
        failed = sum(not c["passed"] for c in checks)
        return Round(sw, len(checks), failed, {}, {"checks": checks})

    def check(self, rounds: list[Round]) -> list[str]:
        expected = json.loads(VERIFY_CHECKS.read_text())
        problems = []
        for r in rounds:
            checks = r.outputs["checks"]
            names = [[c["suite"], c["name"]] for c in checks]
            if names != expected:
                problems.append(f"verify check list differs from {VERIFY_CHECKS.name}")
            problems += [f"verify check failed: {c['suite']}: {c['name']} -- {c['detail']}" for c in checks if not c["passed"]]
        for lam in (0.5, 2.0, 10.0, 50.0):
            c3 = math.exp(ker.vmf_log_normalizer(2, lam)) * math.sinh(lam) / lam
            a1 = ker.kernel_eigenvalue(2, 1, lam)
            if not abs(c3 - 1.0) <= 1e-10:
                problems.append(f"c_3({lam}) sinh(lam)/lam = {c3!r}, not 1")
            if not abs(a1 - (1.0 / math.tanh(lam) - 1.0 / lam)) <= 1e-10:
                problems.append(f"a_1({lam}) = {a1!r}, not coth(lam) - 1/lam")
        return sorted(set(problems))


def make(name: str, seed: int):
    if name in APPROX_CASES:
        return Approx(name, seed)
    if name == "seq2seq":
        return Seq2Seq(seed)
    if name == "verify-all":
        return VerifyAll()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (*APPROX_CASES, "seq2seq", "verify-all")
