"""One input contract: NaN, infinite, non-unit and ragged inputs are refused
with a typed error at every entry point."""

import json

import numpy as np
import pytest

from vmfhead import attention as att
from vmfhead import kernel as ker
from vmfhead import prefix as pfx
from vmfhead.errors import DimensionMismatch, DomainError
from vmfhead.seq2seq import DigitConfig, SequenceSample, build_seq2seq_transformer, sequence_mean
from vmfhead.sphere import SpherePoint, as_unit_vector, equal_area_partition

NAN_POINT = np.array([np.nan, 0.0, 1.0])
ANCHORS = equal_area_partition(2, 8).centers()
VALUES = np.ones((8, 3))


PREFIX = att.PrefixTokens(d=2, tokens=np.zeros((1, 2)), M=-1.0, augmented=False)
PARAMS = att.AttentionHeadParams(d=2, H=np.eye(2), W_V=np.eye(2))
STACK = att.TransformerStack(layers=(att.TransformerLayer(params=PARAMS, prefix=PREFIX),))
KERNEL = ker.VmfKernel.create(2, 4.0)


def convolve(f):
    return ker.convolve_vmf(f, KERNEL, ANCHORS[0], 128, seed=0)


def control_points(p_alpha=ANCHORS, p_beta=VALUES, lam=4.0):
    return att.ControlPoints(m=2, lam=lam, p_alpha=p_alpha, p_beta=p_beta)


def artifact(**changes):
    cp = control_points()
    prefix = att.assemble_prefix_tokens(cp, -20.0)
    payload = json.loads(att.export_prefix_artifact(prefix, att.build_universal_head(2, -20.0), 2, 4.0))
    for key, edit in changes.items():
        payload[key] = edit(payload[key])
    return json.dumps(payload)


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
    "sphere point NaN": lambda: SpherePoint(NAN_POINT),
    "sphere point inf": lambda: SpherePoint(np.array([np.inf, 0.0, 0.0])),
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
    "sequence NaN": lambda: SequenceSample(2, 1, np.array([[0.5, np.nan], [0.1, 0.2]])),
    "sequence t_len float": lambda: SequenceSample(2.0, 1, np.zeros((2, 2))),
    "sequence m bool": lambda: SequenceSample(1, True, np.zeros((1, 2))),
    "digits float": lambda: DigitConfig(digits=2.5),
    "digits integral float": lambda: DigitConfig(digits=3.0),
    "digits bool": lambda: DigitConfig(digits=True),
    "seq2seq t_len float": lambda: build_seq2seq_transformer(sequence_mean, 2.0, 0, DigitConfig(digits=2)),
    "seq2seq m float": lambda: build_seq2seq_transformer(sequence_mean, 2, 0.0, DigitConfig(digits=2)),
    "seq2seq t_len bool": lambda: build_seq2seq_transformer(sequence_mean, True, 0, DigitConfig(digits=2)),
    "suppression_gap no inputs": lambda: att.suppression_gap(control_points(), ANCHORS[0], -20.0, t_inputs=0),
    "suppression_gap M NaN": lambda: att.suppression_gap(control_points(), ANCHORS[0], np.nan),
    "suppression_gap M zero": lambda: att.suppression_gap(control_points(), ANCHORS[0], 0.0),
    "suppression_gap M positive": lambda: att.suppression_gap(control_points(), ANCHORS[0], 3.0),
    "suppression_gap M -inf": lambda: att.suppression_gap(control_points(), ANCHORS[0], -np.inf),
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
    "convolve_vmf point dimension": lambda: ker.convolve_vmf(lambda ys: ys, KERNEL, [0.0, 1.0], 128, seed=0),
}

MISMATCH_CASES = {
    "classical_head 3-D inputs": lambda: att.classical_head(np.zeros((1, 2, 2)), PREFIX, PARAMS),
    "transformer_eval 3-D inputs": lambda: att.transformer_eval(STACK, np.zeros((3, 2, 2))),
    "convolve_vmf f 3-D output": lambda: convolve(lambda ys: ys[None]),
    "convolve_vmf f short output": lambda: convolve(lambda ys: ys[1:]),
    "convolve_vmf f scalar output": lambda: convolve(lambda ys: 0.7),
    "convolve_vmf f transposed output": lambda: convolve(lambda ys: ys.T),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_with_domain_error(case):
    with pytest.raises(DomainError):
        CASES[case]()


@pytest.mark.parametrize("case", sorted(MISMATCH_CASES))
def test_rejected_with_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch):
        MISMATCH_CASES[case]()


def test_valid_inputs_still_accepted():
    """Control case: the unedited inputs behind every rejection above pass."""
    cp = control_points()
    assert np.all(np.isfinite(att.split_head_batch(cp, ANCHORS)))
    assert 0.0 < att.suppression_gap(cp, ANCHORS[0], -20.0, t_inputs=2) < 1.0
    prefix, params, m, lam = att.import_prefix_artifact(artifact())
    assert (prefix.n_tokens, m, lam) == (8, 2, 4.0)
    SequenceSample(1, 0, np.array([[0.0]]))
    assert np.all(np.isfinite(att.classical_head([[0.0, 1.0], [1.0, 0.0]], PREFIX, PARAMS)))
    assert np.all(np.isfinite(att.transformer_eval(STACK, [0.0, 1.0])))
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
