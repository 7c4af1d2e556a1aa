"""One input contract: NaN, infinite, non-unit and ragged inputs are refused
with a typed error at every entry point, and so are sizes that are not
integers, reals that are not finite or lie outside their interval, real
arrays of another dtype, flags that are not bools and seeds that are not
integers >= 0."""

import ast
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import vmfhead
from vmfhead import attention as att
from vmfhead import bounds as bnd
from vmfhead import kernel as ker
from vmfhead import prefix as pfx
from vmfhead.errors import DegenerateInput, DimensionMismatch, DomainError, EncodingError, PrecisionBudgetExceeded
from vmfhead.seq2seq import (
    DigitConfig,
    Seq2SeqStack,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    reference_seq2seq,
    sequence_mean,
)
from vmfhead.seq2seq.encoding import apply_sequence_function, decode_sequence, psi_encode, psi_strided, relaxed_decode
from vmfhead.specialfn import bessel_ratio, log_bessel_i, log_gamma, reg_inc_beta
from vmfhead.verify import run_suite
from vmfhead.sphere import (
    as_unit_vector,
    cap_area,
    cap_colatitude,
    check_finite_unit,
    equal_area_partition,
    surface_area,
    uniform_sphere_sample,
)

NAN_POINT = np.array([np.nan, 0.0, 1.0])
ANCHORS = equal_area_partition(2, 8).centers()
VALUES = np.ones((8, 3))


PREFIX = att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M=-1.0, augmented=False)
PARAMS = att.AttentionHeadParams(d=2, H=np.eye(2), W_V=np.eye(2))
STACK = att.TransformerStack(layers=(att.TransformerLayer(params=PARAMS, prefix=PREFIX),))
HYBRID = build_seq2seq_transformer(sequence_mean, 2, 0, DigitConfig(digits=2), mode="hybrid")
# The hybrid stack's pass-through heads without its summation layer, whose
# own width guard would hide a pass-through head that lacks one.
PASS_THROUGH = att.TransformerStack(layers=HYBRID.transformer.layers[:1] + HYBRID.transformer.layers[2:])
KERNEL = ker.VmfKernel(2, 4.0)
SPEC = bnd.SmoothnessSpec(1.0, 1.0, 1.0, 1.0)
IDENTITY = pfx.make_target("identity", 2)
CFG = DigitConfig(digits=2)
INF = math.inf


def convolve(f):
    return ker.convolve_vmf(f, KERNEL, ANCHORS[0], 128, seed=0)


def sequence_nan(elements):
    return np.full_like(elements, np.nan)


def sequence_inf(elements):
    return np.where(elements > 0.5, np.inf, elements)


def full_states_one_slot_wide():
    """A small full-mode stack fed states one slot wider than its layout:
    its first layer, a kernel layer, sees them first."""
    stack = build_seq2seq_transformer(sequence_mean, 2, 0, CFG, n_points=64, mode="full")
    states = stack.encode_inputs(SequenceSample(2, 0, np.full((2, 1), 0.3)))
    return att.transformer_eval(stack.transformer, np.hstack([states, np.zeros((2, 1))]))


def control_points(p_alpha=ANCHORS, p_beta=VALUES, lam=4.0):
    return att.ControlPoints(m=2, lam=lam, p_alpha=p_alpha, p_beta=p_beta)


def artifact(**changes):
    cp = control_points()
    prefix = att.assemble_prefix_tokens(cp, -20.0)
    payload = json.loads(att.export_prefix_artifact(prefix, att.build_universal_head(2, -20.0), 2, 4.0))
    for key, edit in changes.items():
        payload[key] = edit(payload[key])
    return json.dumps(payload)


def export(m, lam):
    prefix = att.assemble_prefix_tokens(control_points(), -20.0)
    return att.export_prefix_artifact(prefix, att.build_universal_head(2, -20.0), m, lam)


def without(key):
    payload = json.loads(artifact())
    del payload[key]
    return json.dumps(payload)


def with_entry(value):
    def edit(rows):
        rows[0][0] = value
        return rows

    return edit


CASES = {
    "unit vector NaN": lambda: as_unit_vector(NAN_POINT),
    "anchor NaN": lambda: control_points(p_alpha=np.vstack([ANCHORS[:-1], NAN_POINT])),
    "anchor non-unit": lambda: control_points(p_alpha=2.0 * ANCHORS),
    "value NaN": lambda: control_points(p_beta=np.where(np.eye(8, 3) > 0, np.nan, 1.0)),
    "value inf": lambda: control_points(p_beta=np.full((8, 3), np.inf)),
    "lambda inf": lambda: control_points(lam=np.inf),
    "lambda NaN": lambda: control_points(lam=np.nan),
    "batch row NaN": lambda: att.split_head_batch(control_points(), np.vstack([ANCHORS[:2], NAN_POINT])),
    "batch row non-unit": lambda: att.split_head_batch(control_points(), 1.5 * ANCHORS[:3]),
    "scalar input NaN": lambda: att.split_head(control_points(), NAN_POINT),
    "prefix token NaN": lambda: att.PrefixTokens(d=2, tokens=np.array([[np.nan, 0.0]]), M=-1.0, augmented=False),
    "prefix token inf": lambda: att.PrefixTokens(d=2, tokens=np.array([[0.0, -np.inf]]), M=-1.0, augmented=False),
    "suppression -inf": lambda: att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M=-np.inf, augmented=False),
    "artifact token nan": lambda: att.import_prefix_artifact(artifact(tokens=with_entry("nan"))),
    "artifact token -inf": lambda: att.import_prefix_artifact(artifact(tokens=with_entry("-inf"))),
    "artifact H nan": lambda: att.import_prefix_artifact(artifact(H=with_entry("nan"))),
    "artifact M -inf": lambda: att.import_prefix_artifact(artifact(M=lambda _: "-inf")),
    "artifact lambda nan": lambda: att.import_prefix_artifact(artifact(**{"lambda": lambda _: "nan"})),
    "artifact ragged tokens": lambda: att.import_prefix_artifact(artifact(tokens=lambda rows: [rows[0], rows[1][:-1]])),
    "artifact ragged W_V": lambda: att.import_prefix_artifact(artifact(W_V=lambda rows: rows[:-1] + [rows[-1][:2]])),
    "artifact entry not a number": lambda: att.import_prefix_artifact(artifact(tokens=with_entry("abc"))),
    "artifact missing key": lambda: att.import_prefix_artifact(without("W_V")),
    "artifact JSON array": lambda: att.import_prefix_artifact(json.dumps([artifact()])),
    "artifact d not a number": lambda: att.import_prefix_artifact(artifact(d=lambda _: "x")),
    "artifact m float": lambda: att.import_prefix_artifact(artifact(m=lambda _: 2.7)),
    "artifact m negative": lambda: att.import_prefix_artifact(artifact(m=lambda _: -3)),
    "artifact lambda negative": lambda: att.import_prefix_artifact(artifact(**{"lambda": lambda _: "-5.0"})),
    "artifact H row a string": lambda: att.import_prefix_artifact(artifact(H=lambda rows: ["0" * len(rows[0])] + rows[1:])),
    "artifact token entry a number": lambda: att.import_prefix_artifact(artifact(tokens=with_entry(0.5))),
    "artifact lambda bool": lambda: att.import_prefix_artifact(artifact(**{"lambda": lambda _: True})),
    "artifact not JSON": lambda: att.import_prefix_artifact(artifact()[:-1]),
    "export lambda NaN": lambda: export(2, math.nan),
    "export m zero": lambda: export(0, 4.0),
    "sequence NaN": lambda: SequenceSample(2, 1, np.array([[0.5, np.nan], [0.1, 0.2]])),
    "sequence t_len float": lambda: SequenceSample(2.0, 1, np.zeros((2, 2))),
    "sequence m bool": lambda: SequenceSample(1, True, np.zeros((1, 2))),
    "digits float": lambda: DigitConfig(digits=2.5),
    "digits integral float": lambda: DigitConfig(digits=3.0),
    "digits bool": lambda: DigitConfig(digits=True),
    "seq2seq t_len float": lambda: build_seq2seq_transformer(sequence_mean, 2.0, 0, DigitConfig(digits=2)),
    "seq2seq m float": lambda: build_seq2seq_transformer(sequence_mean, 2, 0.0, DigitConfig(digits=2)),
    "seq2seq t_len bool": lambda: build_seq2seq_transformer(sequence_mean, True, 0, DigitConfig(digits=2)),
    # The suppression gap's M (oracles.suppression_gap): universal_head_batch
    # is the library call that applies the gap factor S / (S + e^M).
    "suppression_gap M NaN": lambda: att.universal_head_batch(control_points(), ANCHORS, np.nan),
    "suppression_gap M zero": lambda: att.universal_head_batch(control_points(), ANCHORS, 0.0),
    "suppression_gap M positive": lambda: att.universal_head_batch(control_points(), ANCHORS, 3.0),
    "suppression_gap M -inf": lambda: att.universal_head_batch(control_points(), ANCHORS, -np.inf),
    "partition locate_batch NaN row": lambda: equal_area_partition(2, 8).locate_batch(np.vstack([ANCHORS[:2], NAN_POINT])),
    "partition N float": lambda: equal_area_partition(2, 2.5),
    "partition N integral float": lambda: equal_area_partition(2, 16.0),
    "partition N numpy float": lambda: equal_area_partition(2, np.float64(16.0)),
    "partition N NaN": lambda: equal_area_partition(2, np.nan),
    "partition N bool": lambda: equal_area_partition(2, True),
    "partition m float": lambda: equal_area_partition(2.5, 16),
    "partition m bool": lambda: equal_area_partition(True, 16),
    "synthesize_prefix N float": lambda: pfx.synthesize_prefix(pfx.make_target("identity", 2), 16.0, 4.0),
    "partition locate_batch non-unit row": lambda: equal_area_partition(2, 8).locate_batch(np.array([[0.0, 0.0, 3.0]])),
    "classical_head input NaN": lambda: att.classical_head([[np.nan, 0.0]], PREFIX, PARAMS),
    "classical_head input inf": lambda: att.classical_head([[0.0, 1.0], [np.inf, 0.0]], PREFIX, PARAMS),
    "transformer_eval input -inf": lambda: att.transformer_eval(STACK, [-np.inf, 0.0]),
    "transformer_eval input NaN": lambda: att.transformer_eval(STACK, [[0.0, 1.0], [0.0, np.nan]]),
    "convolve_vmf f NaN": lambda: convolve(lambda ys: np.where(ys > 0.9, np.nan, ys)),
    "convolve_vmf f inf": lambda: convolve(lambda ys: np.where(ys[:, 0] > 0.0, np.inf, ys[:, 0])),
    "sphere sample count float": lambda: uniform_sphere_sample(2, 3.0, 1),
    "sphere sample m bool": lambda: uniform_sphere_sample(True, 3, 1),
    "cap_area m float": lambda: cap_area(2.5, 0.3),
    "surface_area m float": lambda: surface_area(2.5),
    "surface_area m integral float": lambda: surface_area(2.0),
    "surface_area m bool": lambda: surface_area(True),
    "cap_colatitude m float": lambda: cap_colatitude(2.5, 1.0),
    "kernel_log_eval t NaN": lambda: ker.kernel_log_eval(KERNEL, math.nan),
    "default_suppression lambda inf": lambda: att.default_suppression(INF, 4),
    "default_suppression N zero": lambda: att.default_suppression(4.0, 0),
    "default_suppression N float": lambda: att.default_suppression(4.0, 4.0),
    "default_suppression extra NaN": lambda: att.default_suppression(4.0, 4, extra=math.nan),
    "log_bessel_i lambda inf": lambda: log_bessel_i(0.5, INF),
    "bessel_ratio lambda inf": lambda: bessel_ratio(0.5, INF),
    "vmf_log_normalizer lambda inf": lambda: ker.vmf_log_normalizer(2, INF),
    "VmfKernel lambda inf": lambda: ker.VmfKernel(2, INF),
    "kernel_norm m float": lambda: ker.kernel_norm(2.5, 1.0),
    "kernel_norm lambda inf": lambda: ker.kernel_norm(2, INF),
    "kernel_eigenvalue k float": lambda: ker.kernel_eigenvalue(2, 1.5, 1.0),
    "kernel_eigenvalue m float": lambda: ker.kernel_eigenvalue(2.5, 1, 1.0),
    "kernel_eigenvalue lambda inf": lambda: ker.kernel_eigenvalue(2, 1, INF),
    "smoothness C_H inf": lambda: bnd.SmoothnessSpec(1, INF, 1, 1),
    "lambda_for_accuracy sigma inf": lambda: bnd.lambda_for_accuracy(INF, SPEC, 8),
    "prefix_length_bound lambda inf": lambda: bnd.prefix_length_bound(INF, 0.1, SPEC, 8),
    "phi m float": lambda: bnd.phi(8.5),
    "covering_bounds m float": lambda: bnd.covering_bounds(8.5, 0.3),
    "universal head M -inf": lambda: att.build_universal_head(2, -INF),
    "make_target m float": lambda: pfx.make_target("identity", 2.0),
    "sup_error_estimate n_samples float": lambda: pfx.sup_error_estimate(IDENTITY, np.copy, 10.0, 1),
    "psi_strided stride float": lambda: psi_strided(0.5, CFG, 1.5),
    "decode_sequence t_len float": lambda: decode_sequence(0.5, 2.0, 0, CFG),
    "suppression M string": lambda: att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M="x", augmented=False),
    "universal head M None": lambda: att.build_universal_head(2, None),
    "universal_head_batch M list": lambda: att.universal_head_batch(control_points(), ANCHORS, [-1.0]),
    "suppression_gap M string": lambda: att.universal_head_batch(control_points(), ANCHORS, "-5"),
    "smoothness f_sup bool": lambda: bnd.SmoothnessSpec(1, 1, 1, True),
    "smoothness f_sup string": lambda: bnd.SmoothnessSpec(1, 1, 1, "1"),
    "log_bessel_i order bool": lambda: log_bessel_i(True, 2.0),
    "log_bessel_i order string": lambda: log_bessel_i("x", 2.0),
    "cap_area delta bool": lambda: cap_area(2, True),
    "cap_area delta string": lambda: cap_area(2, "0.5"),
    "cap_colatitude area bool": lambda: cap_colatitude(2, True),
    "cap_colatitude area string": lambda: cap_colatitude(2, "1.0"),
    "covering_bounds delta string": lambda: bnd.covering_bounds(8, "0.3"),
    "report sup_error NaN": lambda: pfx.ApproximationReport("x", 2, 1.0, 4, math.nan, 0.0, 10, 0, 1.0),
    "report mean_error NaN": lambda: pfx.ApproximationReport("x", 2, 1.0, 4, 0.1, math.nan, 10, 0, 1.0),
    "report m float": lambda: pfx.ApproximationReport("x", 2.5, 1.0, 4, 0.1, 0.0, 10, 0, 1.0),
    "report N bool": lambda: pfx.ApproximationReport("x", 2, 1.0, True, 0.1, 0.0, 10, 0, 1.0),
    "project y NaN": lambda: att.project(np.full(9, np.nan), 3),
    "project y inf": lambda: att.project(np.array([0.0, 1.0, 0.0, np.inf]), 2),
    "project y -inf in the block": lambda: att.project(np.array([-np.inf, 0.0, 0.0]), 2),
    "head params W_V NaN": lambda: att.AttentionHeadParams(d=2, H=np.eye(2), W_V=np.full((2, 2), np.nan)),
    "prefix augmented string": lambda: att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M=-1.0, augmented="false"),
    "artifact augmented string": lambda: att.import_prefix_artifact(artifact(augmented=lambda _: "false")),
    "sequence elements wrong shape": lambda: SequenceSample(2, 1, np.zeros((2, 3))),
    "seq2seq full f NaN": lambda: build_seq2seq_transformer(sequence_nan, 2, 0, CFG, n_points=64, mode="full"),
    "seq2seq hybrid f inf": lambda: build_seq2seq_transformer(sequence_inf, 2, 0, CFG).evaluate(
        SequenceSample(2, 0, np.array([[0.2], [0.9]]))
    ),
    "reference_seq2seq f NaN": lambda: reference_seq2seq(sequence_nan, SequenceSample(2, 0, np.zeros((2, 1))), CFG),
    "run_suite unknown suite": lambda: run_suite("nope"),
    "Seq2SeqStack.evaluate list": lambda: Seq2SeqStack.evaluate(HYBRID, [[0.2], [0.9]]),
    "Seq2SeqStack.stage_trace list": lambda: Seq2SeqStack.stage_trace(HYBRID, [[0.2], [0.9]]),
    "Seq2SeqStack.encode_inputs array": lambda: Seq2SeqStack.encode_inputs(HYBRID, np.array([[0.2], [0.9]])),
    "reg_inc_beta a string": lambda: reg_inc_beta(0.5, "1", 1.0),
    "reg_inc_beta b None": lambda: reg_inc_beta(0.5, 1.0, None),
    "reg_inc_beta a bool": lambda: reg_inc_beta(0.5, True, 1.0),
    "reg_inc_beta x a string": lambda: reg_inc_beta("0.5", 2.0, 3.0),
    "reg_inc_beta x bool": lambda: reg_inc_beta(True, 2.0, 3.0),
    "reg_inc_beta x None": lambda: reg_inc_beta(None, 2.0, 3.0),
}

ENCODING_CASES = {
    "relaxed_decode NaN": lambda: relaxed_decode(math.nan, 2, 0, CFG),
    "relaxed_decode above 1": lambda: relaxed_decode(1.5, 2, 0, CFG),
    "decode_sequence above 1": lambda: decode_sequence(1.5, 2, 0, CFG),
    "decode_sequence mantissa past the budget": lambda: decode_sequence(1.0, 2, 0, CFG),
    "decode_sequence None": lambda: decode_sequence(None, 2, 0, CFG),
    "decode_sequence one-element array": lambda: decode_sequence(np.array([0.5]), 2, 0, CFG),
}

BUDGET_CASES = {
    "aggregate_R past the packing budget": lambda: aggregate_R(
        SequenceSample(103, 0, np.zeros((103, 1))), DigitConfig(digits=40)
    ),
}

MISMATCH_CASES = {
    "control point values one row short": lambda: control_points(p_beta=VALUES[:7]),
    "control point value column one row long": lambda: control_points(p_beta=np.ones((9, 1))),
    "control point values without columns": lambda: control_points(p_beta=np.ones((8, 0))),
    "control point values 1-D": lambda: control_points(p_beta=np.ones(8)),
    "universal tokens from one value column": lambda: att.assemble_prefix_tokens(control_points(p_beta=np.ones((8, 1))), -20.0),
    "classical_head 3-D inputs": lambda: att.classical_head(np.zeros((1, 2, 2)), PREFIX, PARAMS),
    "transformer_eval 3-D inputs": lambda: att.transformer_eval(STACK, np.zeros((3, 2, 2))),
    "transformer_eval hybrid states one slot wide": lambda: att.transformer_eval(
        PASS_THROUGH, np.hstack([HYBRID.encode_inputs(SequenceSample(2, 0, np.full((2, 1), 0.3))), np.zeros((2, 1))])
    ),
    "convolve_vmf f 3-D output": lambda: convolve(lambda ys: ys[None]),
    "convolve_vmf f short output": lambda: convolve(lambda ys: ys[1:]),
    "convolve_vmf f scalar output": lambda: convolve(lambda ys: 0.7),
    "convolve_vmf f transposed output": lambda: convolve(lambda ys: ys.T),
    "convolve_vmf f empty output": lambda: convolve(lambda ys: ys[:, :0]),
    "convolve_vmf point dimension": lambda: ker.convolve_vmf(lambda ys: ys, KERNEL, [0.0, 1.0], 128, seed=0),
    "project block wider than y": lambda: att.project(np.zeros(3), 4),
    "unit vector one entry": lambda: as_unit_vector([1.0]),
    "control point anchors one column short": lambda: control_points(p_alpha=ANCHORS[:, :2]),
    "head params H not d x d": lambda: att.AttentionHeadParams(d=2, H=np.eye(3), W_V=np.eye(2)),
    "prefix tokens one column wide": lambda: att.PrefixTokens(d=2, tokens=np.zeros((1, 3)), M=-1.0, augmented=False),
    "transformer layer function stage": lambda: att.TransformerLayer(params=PARAMS, prefix=PREFIX, mlp=(np.copy,)),
    "batch points one column short": lambda: att.split_head_batch(control_points(), ANCHORS[:, :2]),
    "partition locate_batch one column short": lambda: equal_area_partition(2, 8).locate_batch(ANCHORS[:, :2]),
    "target output one column short": lambda: pfx.TargetFunction(2, "short", lambda p: p[:, :2], SPEC)(ANCHORS),
    "core weights partition dimension": lambda: pfx.synthesize_core_weights(IDENTITY, equal_area_partition(3, 8), 4.0),
    "sup_error_estimate approx one row": lambda: pfx.sup_error_estimate(IDENTITY, lambda p: p[:1], 10, 1),
    "sup_error_estimate approx one column": lambda: pfx.sup_error_estimate(IDENTITY, lambda p: p[:, :1], 10, 1),
    "transformer_eval full states one slot wide": full_states_one_slot_wide,
}


ARTIFACT_PREFIX, ARTIFACT_PARAMS = att.import_prefix_artifact(artifact())[:2]


def as_strings(value):
    """value with each number written as a string: "4.0", or nested lists."""
    return np.asarray(value).astype(str).tolist()


def as_bools(value):
    """value as bools, one True per row, at its largest entry: a unit vector
    stays a unit vector, and a scalar becomes True."""
    a = np.asarray(value)
    return np.eye(a.shape[-1], dtype=bool)[a.argmax(axis=-1)].tolist() if a.ndim else True


# The wrong kinds of value each kind of argument is refused for.
WRONG_KINDS = {
    "real": {"string": as_strings, "bool": as_bools},
    "flag": {"string": lambda _: "true", "None": lambda _: None, "1": lambda _: 1},
    "seed": {"1.5": lambda _: 1.5, "-1": lambda _: -1, "True": lambda _: True, "None": lambda _: None},
}

# Every real (array or scalar), flag and seed argument of a public callable,
# and the values a public callable checks on its caller's behalf: "callable
# argument" -> (kind, a call taking the value, a valid value, the typed error
# a value of the wrong kind raises).  test_every_argument_kind_has_a_row
# derives the arguments and their kinds from the signatures.
KINDS = {
    "ControlPoints lam": ("real", lambda v: control_points(lam=v), 4.0, DomainError),
    "ControlPoints p_alpha": ("real", lambda v: control_points(p_alpha=v), ANCHORS, DegenerateInput),
    "ControlPoints p_beta": ("real", lambda v: control_points(p_beta=v), VALUES, DomainError),
    "AttentionHeadParams H": ("real", lambda v: att.AttentionHeadParams(d=2, H=v, W_V=np.eye(2)), np.eye(2), DomainError),
    "AttentionHeadParams W_V": ("real", lambda v: att.AttentionHeadParams(d=2, H=np.eye(2), W_V=v), np.eye(2), DomainError),
    "PrefixTokens tokens": ("real", lambda v: att.PrefixTokens(d=2, tokens=v, M=-1.0, augmented=False), np.ones((1, 2)), DomainError),
    "PrefixTokens M": ("real", lambda v: att.PrefixTokens(d=2, tokens=np.ones((1, 2)), M=v, augmented=False), -1.0, DomainError),
    "PrefixTokens augmented": ("flag", lambda v: att.PrefixTokens(d=2, tokens=np.ones((1, 2)), M=-1.0, augmented=v), False, DomainError),
    "TransformerLayer mlp": (
        "real", lambda v: att.TransformerLayer(params=PARAMS, prefix=PREFIX, mlp=((v, np.zeros(2)),)), np.eye(2), DomainError
    ),
    "core_head x": ("real", lambda v: att.core_head(control_points(), v), ANCHORS[0], DegenerateInput),
    "core_head_log x": ("real", lambda v: att.core_head_log(control_points(), v), ANCHORS[0], DegenerateInput),
    "split_head x": ("real", lambda v: att.split_head(control_points(), v), ANCHORS[0], DegenerateInput),
    "split_head_batch points": ("real", lambda v: att.split_head_batch(control_points(), v), ANCHORS, DegenerateInput),
    "log_prefix_mass points": ("real", lambda v: att.log_prefix_mass(control_points(), v), ANCHORS, DegenerateInput),
    "universal_head_batch points": ("real", lambda v: att.universal_head_batch(control_points(), v, -20.0), ANCHORS, DegenerateInput),
    "universal_head_batch M": ("real", lambda v: att.universal_head_batch(control_points(), ANCHORS, v), -20.0, DomainError),
    "classical_head inputs": ("real", lambda v: att.classical_head(v, PREFIX, PARAMS), [[0.0, 1.0], [1.0, 0.0]], DomainError),
    "lift x": ("real", lambda v: att.lift(v), ANCHORS[0], DegenerateInput),
    "lift augmented": ("flag", lambda v: att.lift(ANCHORS[0], v), True, DomainError),
    "project y": ("real", lambda v: att.project(v, 2), np.arange(4.0), DomainError),
    "build_universal_head M": ("real", lambda v: att.build_universal_head(2, v), -1.0, DomainError),
    "build_universal_head augmented": ("flag", lambda v: att.build_universal_head(2, -1.0, v), True, DomainError),
    "assemble_prefix_tokens M": ("real", lambda v: att.assemble_prefix_tokens(control_points(), v), -20.0, DomainError),
    "assemble_prefix_tokens augmented": ("flag", lambda v: att.assemble_prefix_tokens(control_points(), -20.0, v), True, DomainError),
    "universal_control_points lam": ("real", lambda v: att.universal_control_points(ARTIFACT_PREFIX, ARTIFACT_PARAMS, 2, v), 4.0, DomainError),
    "default_suppression lam": ("real", lambda v: att.default_suppression(v, 4), 4.0, DomainError),
    "default_suppression extra": ("real", lambda v: att.default_suppression(4.0, 4, v), 30.0, DomainError),
    "transformer_eval inputs": ("real", lambda v: att.transformer_eval(STACK, v), [0.0, 1.0], DomainError),
    "export_prefix_artifact lam": ("real", lambda v: export(2, v), 4.0, DomainError),
    "check_finite_unit points": ("real", check_finite_unit, ANCHORS, DegenerateInput),
    "cap_area delta": ("real", lambda v: cap_area(2, v), 0.3, DomainError),
    "cap_colatitude area": ("real", lambda v: cap_colatitude(2, v), 1.0, DomainError),
    "Partition.locate_batch points": ("real", equal_area_partition(2, 8).locate_batch, ANCHORS, DegenerateInput),
    "uniform_sphere_sample seed": ("seed", lambda v: uniform_sphere_sample(2, 3, v), 1, DomainError),
    "VmfKernel lam": ("real", lambda v: ker.VmfKernel(2, v), 4.0, DomainError),
    "vmf_log_normalizer lam": ("real", lambda v: ker.vmf_log_normalizer(2, v), 4.0, DomainError),
    "kernel_norm lam": ("real", lambda v: ker.kernel_norm(2, v), 4.0, DomainError),
    "kernel_eigenvalue lam": ("real", lambda v: ker.kernel_eigenvalue(2, 1, v), 4.0, DomainError),
    "kernel_log_eval t": ("real", lambda v: ker.kernel_log_eval(KERNEL, v), [-1.0, 0.5], DomainError),
    "convolve_vmf x": ("real", lambda v: ker.convolve_vmf(np.copy, KERNEL, v, 128, seed=0), ANCHORS[0], DegenerateInput),
    "convolve_vmf seed": ("seed", lambda v: ker.convolve_vmf(np.copy, KERNEL, ANCHORS[0], 128, v), 0, DomainError),
    "convolve_vmf f values": ("real", lambda v: convolve(lambda ys: v), np.ones(128), DomainError),
    "log_gamma x": ("real", log_gamma, 2.5, DomainError),
    "log_bessel_i nu": ("real", lambda v: log_bessel_i(v, 2.0), 0.5, DomainError),
    "log_bessel_i lam": ("real", lambda v: log_bessel_i(0.5, v), 2.0, DomainError),
    "bessel_ratio nu": ("real", lambda v: bessel_ratio(v, 2.0), 0.5, DomainError),
    "bessel_ratio lam": ("real", lambda v: bessel_ratio(0.5, v), 2.0, DomainError),
    "reg_inc_beta x": ("real", lambda v: reg_inc_beta(v, 2.0, 3.0), 0.5, DomainError),
    "reg_inc_beta a": ("real", lambda v: reg_inc_beta(0.5, v, 3.0), 2.0, DomainError),
    "reg_inc_beta b": ("real", lambda v: reg_inc_beta(0.5, 2.0, v), 3.0, DomainError),
    "SmoothnessSpec L": ("real", lambda v: bnd.SmoothnessSpec(v, 1, 1, 1), 1.0, DomainError),
    "SmoothnessSpec C_H": ("real", lambda v: bnd.SmoothnessSpec(1, v, 1, 1), 1.0, DomainError),
    "SmoothnessSpec C_R": ("real", lambda v: bnd.SmoothnessSpec(1, 1, v, 1), 1.0, DomainError),
    "SmoothnessSpec f_sup": ("real", lambda v: bnd.SmoothnessSpec(1, 1, 1, v), 1.0, DomainError),
    "lambda_for_accuracy sigma": ("real", lambda v: bnd.lambda_for_accuracy(v, SPEC, 8), 0.5, DomainError),
    "lambda_for_accuracy strict": ("flag", lambda v: bnd.lambda_for_accuracy(0.1, SPEC, 8, strict=v), True, DomainError),
    "prefix_length_bound lam": ("real", lambda v: bnd.prefix_length_bound(v, 0.1, SPEC, 8), 4.0, DomainError),
    "prefix_length_bound epsilon": ("real", lambda v: bnd.prefix_length_bound(4.0, v, SPEC, 8), 0.1, DomainError),
    "prefix_length_bound strict": ("flag", lambda v: bnd.prefix_length_bound(4.0, 0.1, SPEC, 8, strict=v), True, DomainError),
    "covering_bounds delta": ("real", lambda v: bnd.covering_bounds(8, v), 0.3, DomainError),
    "normalized_head_parameters epsilon": ("real", lambda v: bnd.normalized_head_parameters(v, SPEC, 8), 0.5, DomainError),
    "normalized_head_parameters strict": ("flag", lambda v: bnd.normalized_head_parameters(0.5, SPEC, 8, strict=v), True, DomainError),
    "TargetFunction.__call__ points": ("real", IDENTITY, ANCHORS, DomainError),
    "TargetFunction.__call__ output": ("real", lambda v: pfx.TargetFunction(2, "v", lambda p: v, SPEC)(ANCHORS), VALUES, DomainError),
    "ApproximationReport lam": ("real", lambda v: pfx.ApproximationReport("x", 2, v, 4, 0.1, 0.0, 10, 0, 1.0), 1.0, DomainError),
    "ApproximationReport sup_error": ("real", lambda v: pfx.ApproximationReport("x", 2, 1.0, 4, v, 0.0, 10, 0, 1.0), 0.1, DomainError),
    "ApproximationReport mean_error": ("real", lambda v: pfx.ApproximationReport("x", 2, 1.0, 4, 0.1, v, 10, 0, 1.0), 0.0, DomainError),
    "ApproximationReport seed": ("seed", lambda v: pfx.ApproximationReport("x", 2, 1.0, 4, 0.1, 0.0, 10, v, 1.0), 0, DomainError),
    "ApproximationReport wall_time_ms": ("real", lambda v: pfx.ApproximationReport("x", 2, 1.0, 4, 0.1, 0.0, 10, 0, v), 1.0, DomainError),
    "synthesize_prefix lam": ("real", lambda v: pfx.synthesize_prefix(IDENTITY, 8, v), 4.0, DomainError),
    "synthesize_core_weights lam": (
        "real", lambda v: pfx.synthesize_core_weights(IDENTITY, equal_area_partition(2, 8), v), 4.0, DomainError
    ),
    "sup_error_estimate seed": ("seed", lambda v: pfx.sup_error_estimate(IDENTITY, np.copy, 10, v), 1, DomainError),
    "sup_error_estimate approx values": (
        "real", lambda v: pfx.sup_error_estimate(IDENTITY, lambda p: v, 2, 1), np.zeros((2, 3)), DomainError
    ),
    "verify_denominator_constancy seed": ("seed", lambda v: pfx.verify_denominator_constancy(control_points(), 10, v), 1, DomainError),
    "element_wise_extend M": ("real", lambda v: pfx.element_wise_extend(control_points(), v), -20.0, DomainError),
    "SequenceSample elements": ("real", lambda v: SequenceSample(2, 0, v), [[0.25], [0.5]], DomainError),
    "psi_encode x": ("real", lambda v: psi_encode(v, CFG), [0.25, 1.0], DomainError),
    "psi_strided x": ("real", lambda v: psi_strided(v, CFG, 2), 0.5, DomainError),
    "decode_sequence r": ("real", lambda v: decode_sequence(v, 2, 0, CFG), 8 / 81, EncodingError),
    "relaxed_decode u": ("real", lambda v: relaxed_decode(v, 2, 0, CFG), [0.5, 0.25], EncodingError),
    "apply_sequence_function elements": ("real", lambda v: apply_sequence_function(np.copy, v), np.full((2, 1), 0.5), DomainError),
    "apply_sequence_function f values": (
        "real", lambda v: apply_sequence_function(lambda e: v, np.zeros((2, 1))), np.ones((2, 1)), DomainError
    ),
    "build_seq2seq_transformer lam": ("real", lambda v: build_seq2seq_transformer(sequence_mean, 2, 0, CFG, lam=v), 2e5, DomainError),
}

# Real, flag and seed arguments (by their kind in the signature) that KINDS
# has no row for, each with why.
KIND_EXEMPT = {
    "PrefixLengthBound n": "a record the bounds return; n is +inf past the float range by design",
    "PrefixLengthBound log10_n": "a record the bounds return, exact in log10",
    "RAggregate value": "a record aggregate_R returns; decode_sequence reads its integer mantissa, never value",
    "sequence_mean elements": "the demonstration sequence function, called on SequenceSample elements; "
    "apply_sequence_function checks what it returns ('apply_sequence_function f values')",
}

# Arguments that take a callable, never a number.
CALLABLE_ARGUMENTS = {"f", "approx"}


# Public callables that no case above names, each with where its input
# contract is held or why it has none.
EXEMPT = {
    "Partition": "built only by equal_area_partition, whose size and locate_batch cases are above",
    "PrefixLengthBound": "a record returned by prefix_length_bound and normalized_head_parameters",
    "target_names": "takes no argument",
    "RAggregate": "an exact record built by aggregate_R; decode_sequence checks its shape",
}


def _names_in_cases() -> set:
    """Every name and attribute the case tables use, following the helper
    functions and constants of this file that they call."""
    tree = ast.parse(Path(__file__).read_text())
    definitions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            definitions[node.targets[0].id] = node.value
    names, todo = set(), ["CASES", "ENCODING_CASES", "MISMATCH_CASES", "BUDGET_CASES", "KINDS"]
    while todo:
        for node in ast.walk(definitions[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in names:
                names.add(name)
                if name in definitions:
                    todo.append(name)
    return names


def _public_callables() -> dict:
    modules = (importlib.import_module(info.name) for info in pkgutil.walk_packages(vmfhead.__path__, "vmfhead."))
    return {
        name: getattr(module, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if callable(getattr(module, name))
    }


def _argument_kinds() -> dict:
    """"callable argument" -> its kind, for every real, flag and seed
    argument of a public callable, read from the signature: seed by name,
    flag by a bool annotation, real by a float or array annotation or by
    none (the arguments that take an array or a scalar); callables, sizes
    and the private fields of a class built only internally are left out."""
    kinds = {}
    for name, obj in _public_callables().items():
        for arg, param in inspect.signature(obj).parameters.items():
            note = param.annotation
            if arg == "seed":
                kinds[f"{name} {arg}"] = "seed"
            elif note == "bool":
                kinds[f"{name} {arg}"] = "flag"
            elif arg.startswith("_") or arg in CALLABLE_ARGUMENTS:
                continue
            elif note is inspect.Parameter.empty or "float" in note or "ndarray" in note:
                kinds[f"{name} {arg}"] = "real"
    return kinds


def test_every_public_callable_has_a_case_or_an_exemption():
    """A public name added without a case or an exemption fails here, and
    so does an exemption left behind by a case or a deleted name."""
    public, named = set(_public_callables()), _names_in_cases()
    assert sorted(public - named - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() - (public - named)) == []


def test_every_argument_kind_has_a_row():
    """A real, flag or seed argument added to a public callable without a
    KINDS row of its kind fails here, and so do a row whose kind is not the
    signature's, an exemption left behind, and a row of a callable that is
    gone.  Rows may also name a public class's method ("Class.method arg")
    or a value that a callable checks for its caller ("f values")."""
    kinds, public = _argument_kinds(), _public_callables()
    assert sorted(kinds.keys() - KINDS.keys() - KIND_EXEMPT.keys()) == []
    assert sorted(KIND_EXEMPT.keys() - kinds.keys()) == []
    shared = kinds.keys() & KINDS.keys()
    assert {row: KINDS[row][0] for row in shared} == {row: kinds[row] for row in shared}
    for row in KINDS:
        owner, _, method = row.split()[0].partition(".")
        assert owner in public and (not method or hasattr(public[owner], method)), row


KIND_CASES = {
    f"{row} {label}": (call, wrong(valid), error)
    for row, (kind, call, valid, error) in KINDS.items()
    for label, wrong in WRONG_KINDS[kind].items()
}


@pytest.mark.parametrize("case", sorted(KIND_CASES))
def test_wrong_kind_refused(case):
    """Each wrong kind of value is refused with the site's typed error, not
    accepted and not left to a TypeError or ValueError of numpy's."""
    call, value, error = KIND_CASES[case]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("row", sorted(KINDS))
def test_kind_row_accepts_its_valid_value(row):
    """Control case: each row's call with its valid value goes through, so
    the refusals above come from the value's kind alone."""
    _, call, valid, _ = KINDS[row]
    call(valid)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_with_domain_error(case):
    with pytest.raises(DomainError):
        CASES[case]()


@pytest.mark.parametrize("case", sorted(ENCODING_CASES))
def test_rejected_with_encoding_error(case):
    with pytest.raises(EncodingError):
        ENCODING_CASES[case]()


@pytest.mark.parametrize("case", sorted(MISMATCH_CASES))
def test_rejected_with_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch):
        MISMATCH_CASES[case]()


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_rejected_with_precision_budget_exceeded(case):
    with pytest.raises(PrecisionBudgetExceeded):
        BUDGET_CASES[case]()


def test_valid_inputs_still_accepted():
    """Control case: the unedited inputs behind every rejection above pass."""
    cp = control_points()
    assert np.all(np.isfinite(att.split_head_batch(cp, ANCHORS)))
    assert att.split_head_batch(control_points(p_beta=np.ones((8, 1))), ANCHORS).shape == (8, 1)
    assert np.array_equal(att.universal_head_batch(cp, ANCHORS, -20.0), att.universal_head_batch(cp, ANCHORS, np.float64(-20.0)))
    prefix, params, m, lam = att.import_prefix_artifact(artifact())
    assert (prefix.n_tokens, m, lam, prefix.augmented) == (8, 2, 4.0, False)
    assert att.import_prefix_artifact(artifact(augmented=lambda _: True))[0].augmented is True
    assert att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M=-1.0, augmented=np.True_).augmented is True
    elements = np.array([[0.25], [0.5]])
    np.testing.assert_array_equal(reference_seq2seq(sequence_mean, SequenceSample(2, 0, elements), CFG), [[0.375], [0.375]])
    SequenceSample(1, 0, np.array([[0.0]]))
    assert np.all(np.isfinite(att.classical_head([[0.0, 1.0], [1.0, 0.0]], PREFIX, PARAMS)))
    assert np.all(np.isfinite(att.transformer_eval(STACK, [0.0, 1.0])))
    np.testing.assert_array_equal(att.project(np.arange(4.0), 4), np.arange(4.0))
    assert convolve(lambda ys: ys)[0].shape == (3,)
    assert convolve(lambda ys: ys[:, 0])[0].shape == (1,)
    numpy_sized = equal_area_partition(np.int64(2), np.int32(16))
    assert numpy_sized.m == 2 and type(numpy_sized.m) is int
    assert np.array_equal(numpy_sized.centers(), equal_area_partition(2, 16).centers())
    assert pfx.synthesize_prefix(pfx.make_target("identity", 2), np.int64(16), 4.0).n_points == 16
    cfg = DigitConfig(digits=np.int64(2))
    assert type(cfg.digits) is int
    stack = build_seq2seq_transformer(sequence_mean, np.int64(2), np.int32(0), cfg)
    sample = SequenceSample(np.int64(2), np.int64(0), np.array([[0.25], [0.5]]))
    assert (type(stack.t_len), type(sample.m)) == (int, int)
    np.testing.assert_array_equal(stack.evaluate(sample), [[0.375], [0.375]])
    # Sizes may be numpy integers and positive reals ints or numpy floats;
    # each gives the value of the plain Python call.
    i2, i8 = np.int64(2), np.int32(8)
    assert np.array_equal(uniform_sphere_sample(i2, np.int32(3), 1), uniform_sphere_sample(2, 3, 1))
    assert cap_area(i2, 0.3) == cap_area(2, 0.3)
    assert surface_area(i2) == surface_area(2) and cap_colatitude(i2, 1.0) == cap_colatitude(2, 1.0)
    assert att.default_suppression(np.float64(4.0), np.int64(4)) == att.default_suppression(4.0, 4)
    assert log_bessel_i(0.5, 4) == log_bessel_i(0.5, np.float64(4.0)) == log_bessel_i(0.5, 4.0)
    assert bessel_ratio(0.5, 4) == bessel_ratio(0.5, np.float64(4.0)) == bessel_ratio(0.5, 4.0)
    assert ker.vmf_log_normalizer(i2, 4) == ker.vmf_log_normalizer(2, 4.0)
    kern = ker.VmfKernel(i2, np.float64(4.0))
    assert (type(kern.m), type(kern.lam), kern.log_normalizer) == (int, float, KERNEL.log_normalizer)
    assert ker.kernel_norm(i2, 4) == ker.kernel_norm(2, 4.0)
    assert ker.kernel_eigenvalue(i2, np.int64(3), 4) == ker.kernel_eigenvalue(2, 3, 4.0)
    assert bnd.SmoothnessSpec(1, 1, 1, 1) == SPEC and type(bnd.SmoothnessSpec(1, 1, 1, np.int64(0)).f_sup) is float
    assert bnd.lambda_for_accuracy(np.float64(0.5), SPEC, i8) == bnd.lambda_for_accuracy(0.5, SPEC, 8)
    assert bnd.prefix_length_bound(4, 0.1, SPEC, i8) == bnd.prefix_length_bound(4.0, 0.1, SPEC, 8)
    assert bnd.phi(i8) == bnd.phi(8) and bnd.covering_bounds(i8, 0.3) == bnd.covering_bounds(8, 0.3)
    assert att.build_universal_head(i2, -5.0).d == 9
    assert pfx.make_target("identity", i2).m == 2
    assert pfx.sup_error_estimate(IDENTITY, np.copy, np.int64(10), 1) == (0.0, 0.0)
    assert psi_strided(0.5, CFG, np.int64(3)) == psi_strided(0.5, CFG, 3)
    r = aggregate_R(sample, CFG).value
    assert np.array_equal(decode_sequence(r, i2, np.int64(0), CFG).elements, sample.elements)
    assert np.array_equal(relaxed_decode(np.float64(0.5), i2, 0, CFG), relaxed_decode(0.5, 2, 0, CFG))
