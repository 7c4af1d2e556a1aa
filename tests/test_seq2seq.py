"""Sequence pipeline: digit maps, aggregation, and the T+2-layer stack."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import aggregate_oracle, circle_chart_error_oracle, circle_head_oracle, relaxed_decode_oracle

from vmfhead.attention import ControlPoints, TransformerStack, _apply_mlp, classical_head, split_head_batch, transformer_eval
from vmfhead.errors import DegenerateInput, DomainError, EncodingError, InstanceTooLarge, PrecisionBudgetExceeded
from vmfhead.sphere import equal_area_partition
from vmfhead.seq2seq import (
    DigitConfig,
    RAggregate,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    decode_sequence,
    psi_encode,
    psi_strided,
    reference_seq2seq,
    sequence_mean,
)
from vmfhead.seq2seq.assembly import (
    _GAP,
    _KernelBankLayer,
    _Layout,
    _stage_sphere_lookup,
    _stereographic,
    _stereographic_inverse,
    _summation_error_bound,
    _window_half_width,
)
from vmfhead.seq2seq.encoding import _bits, _decode, _mantissa, _psi


def seq_mean(elements):
    return np.tile(elements.mean(axis=0), (elements.shape[0], 1))


def seq_identity(elements):
    return elements.copy()


class TestDigitConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            DigitConfig(digits=0)
        with pytest.raises(DomainError):
            DigitConfig(digits=41)


class TestPsi:
    def test_endpoint_values(self):
        cfg = DigitConfig(digits=8)
        assert psi_encode(0.0, cfg) == 0.0
        np.testing.assert_allclose(psi_encode(1.0, cfg), 1.0 - 3.0**-8, rtol=1e-15)
        np.testing.assert_allclose(psi_encode(0.5, cfg), 2.0 / 3.0, rtol=1e-15)

    def test_monotone(self):
        cfg = DigitConfig(digits=10)
        xs = np.linspace(0.0, 1.0, 10_001)
        vals = psi_encode(xs, cfg)
        assert np.all(np.diff(vals) >= 0.0)
        for i in (0, 1, 2500, 5000, 7777, 10_000):
            assert psi_encode(float(xs[i]), cfg) == vals[i]

    def test_relaxed_decode_float_budget(self):
        """The float view of 3^total >= 2^52 is refused, where at T=2, m=1
        and 12 digits (48 ternary digits) a relaxed decode used to decode
        every seeded aggregate wrong: decode_sequence raises
        PrecisionBudgetExceeded, and the full mode, whose build decodes
        with _decode(_mantissa(u), strict=False), refuses the shape.  At
        18 ternary digits that relaxed decode reads valid aggregates as
        decode_sequence does."""
        cfg = DigitConfig(digits=12)
        rng = np.random.default_rng(16)
        for _ in range(20):
            r = aggregate_R(SequenceSample(2, 1, rng.random((2, 2))), cfg).value
            with pytest.raises(PrecisionBudgetExceeded):
                decode_sequence(r, 2, 1, cfg)
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="full")
        cfg = DigitConfig(digits=3)
        for _ in range(20):
            agg = aggregate_R(SequenceSample(3, 1, rng.random((3, 2))), cfg)
            got = _decode(_mantissa(agg.value, 18).astype(np.int64), 3, 6, strict=False)
            np.testing.assert_array_equal(got, decode_sequence(agg, 3, 1, cfg).flat())

    def test_domain(self):
        cfg = DigitConfig(digits=4)
        with pytest.raises(DomainError):
            psi_encode(-0.1, cfg)
        with pytest.raises(DomainError):
            psi_encode(1.1, cfg)

    def test_strided_reduces_to_plain(self):
        cfg = DigitConfig(digits=6)
        for x in (0.0, 0.3, 0.5, 0.9, 1.0):
            np.testing.assert_allclose(float(psi_strided(x, cfg, 1)), psi_encode(x, cfg), rtol=1e-15)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 8])
    def test_float_path_equals_rounded_fraction(self, stride):
        """The float digit map is the exact strided digit map (the oracle's
        aggregate of x and stride - 1 zeros) rounded once, bit for bit, at
        every dyadic input of every digit budget from 1 to 12."""
        for digits in range(1, 13):
            xs = np.arange(2**digits + 1) / 2**digits
            exact = [float(aggregate_oracle([x] + [0.0] * (stride - 1), digits)) for x in xs]
            assert _psi(_bits(xs, digits), digits, stride).tolist() == exact

    @pytest.mark.parametrize("total", [1, 4, 12, 24, 32])
    def test_mantissa_is_the_clipped_rounding(self, total):
        """_mantissa is min(round(clip(u, 0, 1) 3^total), 3^total - 1), on
        arrays and scalars, at mantissa ties, past both ends and at NaN."""
        base = 3**total
        k = np.unique(np.linspace(0, base, 2001).round())
        u = np.concatenate([k / base, (k + 0.5) / base, [-0.3, -0.0, 1.0, 1.5, 1.0 - 2.0**-53]])
        expected = [min(round(min(max(x, 0.0), 1.0) * base), base - 1) for x in u]
        assert _mantissa(u, total).tolist() == expected
        assert [_mantissa(x, total) for x in u] == expected
        assert math.isnan(_mantissa(math.nan, total))


class TestAggregation:
    def test_hand_examples(self):
        cfg = DigitConfig(digits=4)
        s0 = SequenceSample(1, 0, np.array([[0.0]]))
        assert aggregate_R(s0, cfg).value == 0.0
        s1 = SequenceSample(1, 0, np.array([[0.5]]))
        r = aggregate_R(s1, cfg)
        np.testing.assert_allclose(r.value, 2.0 / 3.0, rtol=1e-15)
        assert r.ternary_string() == "2000"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        cfg = DigitConfig(digits=6)
        for _ in range(100):
            e = rng.random((4, 3))
            s = SequenceSample(4, 2, e)
            back = decode_sequence(aggregate_R(s, cfg), 4, 2, cfg)
            assert np.array_equal(back.elements, np.floor(e * 2**6) / 2**6)

    def test_float_path_round_trip(self):
        rng = np.random.default_rng(1)
        cfg = DigitConfig(digits=4)
        for _ in range(100):
            e = rng.random((2, 2))
            s = SequenceSample(2, 1, e)
            back = decode_sequence(aggregate_R(s, cfg).value, 2, 1, cfg)
            assert np.array_equal(back.elements, np.floor(e * 2**4) / 2**4)

    def test_float_path_budget_guard(self):
        cfg = DigitConfig(digits=6)
        s = SequenceSample(4, 2, np.random.default_rng(2).random((4, 3)))
        r = aggregate_R(s, cfg)  # 72 ternary digits: exact form fine
        with pytest.raises(PrecisionBudgetExceeded):
            decode_sequence(r.value, 4, 2, cfg)

    def test_shape_mismatch_rejected(self):
        cfg = DigitConfig(digits=4)
        s = SequenceSample(2, 1, np.random.default_rng(3).random((2, 2)))
        r = aggregate_R(s, cfg)
        with pytest.raises(EncodingError):
            decode_sequence(r, 3, 1, cfg)
        with pytest.raises(EncodingError):
            decode_sequence(r, 2, 0, cfg)

    def test_middle_digit_rejected(self):
        cfg = DigitConfig(digits=1)
        with pytest.raises(EncodingError):
            decode_sequence(1.0 / 3.0, 1, 0, cfg)

    def test_weights_match_direct_sum(self):
        """The packed digits realize 3 sum_i 3^(-(i-1)(m+1)) sum_p 3^(-p)
        psi(x_ip) with the width-strided digit map, taken exactly from the
        oracle as the aggregate of x_ip and width - 1 zeros."""
        cfg = DigitConfig(digits=3)
        rng = np.random.default_rng(4)
        for t_len, m in ((1, 0), (2, 1), (3, 0)):
            width = t_len * (m + 1)
            e = rng.random((t_len, m + 1))
            s = SequenceSample(t_len, m, e)
            direct = 0.0
            for i in range(t_len):
                for p in range(m + 1):
                    psi = aggregate_oracle([e[i, p]] + [0.0] * (width - 1), cfg.digits)
                    direct += 3.0 * 3.0 ** (-i * (m + 1)) * 3.0 ** (-(p + 1)) * float(psi)
            np.testing.assert_allclose(aggregate_R(s, cfg).value, direct, rtol=1e-12)


@st.composite
def _sequences(draw):
    digits = draw(st.integers(1, 40))
    t_len = draw(st.integers(1, 100))
    m = draw(st.integers(0, max(0, min(5, 4096 // (digits * t_len) - 1))))
    t_len = min(t_len, 4096 // (digits * (m + 1)))
    flat = draw(st.lists(st.floats(0.0, 1.0), min_size=t_len * (m + 1), max_size=t_len * (m + 1)))
    return SequenceSample(t_len, m, np.reshape(flat, (t_len, m + 1))), DigitConfig(digits)


class TestAggregateProperty:
    @settings(max_examples=60)
    @given(_sequences(), st.data())
    def test_round_trip(self, case, data):
        s, cfg = case
        total = s.t_len * (s.m + 1) * cfg.digits
        r = aggregate_R(s, cfg)
        oracle = aggregate_oracle(s.elements, cfg.digits)
        assert r.value == float(oracle)
        assert len(r.ternary_string()) == total
        assert Fraction(int(r.ternary_string(), 3), 3**total) == oracle
        scale = 2**cfg.digits
        truncated = np.minimum(np.floor(s.elements * scale), scale - 1) / scale
        assert np.array_equal(decode_sequence(r, s.t_len, s.m, cfg).elements, truncated)
        if 3**total < 2**52:
            assert np.array_equal(decode_sequence(r.value, s.t_len, s.m, cfg).elements, truncated)
        k = data.draw(st.integers(0, total - 1))
        ternary = r.ternary_string()
        broken = int(ternary[:k] + "1" + ternary[k + 1 :], 3)
        with pytest.raises(EncodingError):
            decode_sequence(dataclasses.replace(r, mantissa=broken), s.t_len, s.m, cfg)
        if 3**total < 2**52:
            with pytest.raises(EncodingError):
                decode_sequence(broken / 3**total, s.t_len, s.m, cfg)


class TestCodecOnArrays:
    """The integer codec on arrays, the path the hybrid oracles and the
    full-mode build take, equals the per-element Fraction oracles."""

    @settings(max_examples=40)
    @given(st.integers(1, 40), st.integers(1, 8), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    def test_psi(self, digits, stride, xs):
        """Exact in psi_strided, rounded once in the float view, at digit
        budgets on both sides of the int64 limb (33 ternary digits)."""
        cfg = DigitConfig(digits)
        values = _psi(_bits(np.array(xs), digits), digits, stride).tolist()
        for x, value in zip(xs, values):
            exact = aggregate_oracle([x] + [0.0] * (stride - 1), digits)
            assert psi_strided(x, cfg, stride) == exact
            assert value == float(exact)
        if stride == 1:
            assert psi_encode(np.array(xs), cfg).tolist() == values

    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(0, 2), st.data())
    def test_relaxed_decode(self, t_len, m, data):
        """The relaxed decode _decode(_mantissa(u), strict=False), the
        full-mode build's path from a chart point u to its sequence, at
        every float budget of up to 32 ternary digits (3^total < 2^52): the
        oracle's coordinates at arbitrary scalars and at exact mantissas,
        where a digit 1 reads 0, and decode_sequence's at the float view of
        a valid aggregate."""
        width = t_len * (m + 1)
        digits = data.draw(st.integers(1, 32 // width))
        total = width * digits
        mantissas = st.integers(0, 3**total - 1).map(lambda k: k / 3**total)
        us = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), mantissas), min_size=1, max_size=16))
        got = _decode(_mantissa(np.array(us), total).astype(np.int64), digits, width, strict=False)
        assert got.shape == (len(us), width)
        for u, row in zip(us, got.tolist()):
            assert row == [float(c) for c in relaxed_decode_oracle(u, width, digits)]
        xs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
        agg = aggregate_R(SequenceSample(t_len, m, np.reshape(xs, (t_len, m + 1))), DigitConfig(digits))
        exact = decode_sequence(agg, t_len, m, DigitConfig(digits)).flat()
        assert _decode(int(_mantissa(agg.value, total)), digits, width, strict=False).tolist() == exact.tolist()


class TestReference:
    def test_identity_returns_truncation(self):
        cfg = DigitConfig(digits=5)
        e = np.random.default_rng(5).random((3, 2))
        s = SequenceSample(3, 1, e)
        out = np.stack(reference_seq2seq(seq_identity, s, cfg))
        assert np.array_equal(out, np.floor(e * 2**5) / 2**5)

    def test_mean_matches_direct(self):
        cfg = DigitConfig(digits=4)
        e = np.random.default_rng(6).random((2, 2))
        s = SequenceSample(2, 1, e)
        out = np.stack(reference_seq2seq(seq_mean, s, cfg))
        np.testing.assert_array_equal(out, seq_mean(np.floor(e * 2**4) / 2**4))

    def test_truncation_error_bound(self):
        cfg = DigitConfig(digits=6)
        rng = np.random.default_rng(7)
        bound = math.sqrt(2.0) * 2.0**-cfg.digits
        for _ in range(25):
            e = rng.random((3, 2))
            s = SequenceSample(3, 1, e)
            out = np.stack(reference_seq2seq(seq_mean, s, cfg))
            assert float(np.max(np.linalg.norm(out - seq_mean(e), axis=1))) <= bound


class TestStackAssembly:
    def test_layer_counts(self):
        cfg = DigitConfig(digits=2)
        for t_len in (1, 2, 3):
            stack = build_seq2seq_transformer(seq_mean, t_len, 1, cfg, mode="hybrid")
            assert stack.attention_layer_count == t_len + 2

    def test_hybrid_matches_reference(self):
        cfg = DigitConfig(digits=4)
        stack = build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = SequenceSample(2, 1, rng.random((2, 2)))
            out = stack.evaluate(s)
            ref = np.stack(reference_seq2seq(seq_mean, s, cfg))
            assert float(np.max(np.abs(out - ref))) <= 1e-9

    def test_summation_layer_is_exact(self):
        cfg = DigitConfig(digits=4)
        stack = build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = SequenceSample(2, 1, rng.random((2, 2)))
            trace = stack.stage_trace(s)
            vals = trace["layers"][1]["attention"][:, stack.layout.val]
            assert float(np.max(np.abs(vals - aggregate_R(s, cfg).value))) <= 1e-12

    def test_summation_error_within_its_bound(self):
        """Every admitted hybrid shape with q = T(m+1) from 1 to 28: the
        summation layer's |VAL - R|, measured exactly in units of 2^-53 on
        seeded sequences, stays within _summation_error_bound(q), the bound
        that decides which shapes hybrid mode admits."""
        rng = np.random.default_rng(12)
        shapes = 0
        for q in range(1, 29):
            for t_len in (t for t in range(1, q + 1) if q % t == 0):
                m = q // t_len - 1
                digits = 1
                while digits <= 40 and _summation_error_bound(q) < 0.5 * 3.0 ** -(q * digits):
                    cfg = DigitConfig(digits=digits)
                    stack = build_seq2seq_transformer(seq_mean, t_len, m, cfg, mode="hybrid")
                    head = TransformerStack(layers=stack.transformer.layers[:2])
                    for _ in range(3):
                        s = SequenceSample(t_len, m, rng.random((t_len, m + 1)))
                        record = []
                        transformer_eval(head, stack.encode_inputs(s), record=record)
                        agg = aggregate_R(s, cfg)
                        exact = Fraction(agg.mantissa, 3 ** (q * digits))
                        for val in record[1]["attention"][:, stack.layout.val]:
                            assert abs(Fraction(float(val)) - exact) <= Fraction(_summation_error_bound(q))
                    shapes += 1
                    digits += 1
        assert shapes > 100

    def test_passthrough_layers_are_bit_exact(self):
        """Every attention layer of a hybrid stack but the summation layer
        passes its state through: its output equals X @ W_V^T bit for bit,
        the terms below the softmax floor weighing exactly zero."""
        stack = build_seq2seq_transformer(seq_mean, 8, 0, DigitConfig(digits=3), mode="hybrid")
        rng = np.random.default_rng(10)
        for _ in range(5):
            trace = stack.stage_trace(SequenceSample(8, 0, rng.random((8, 1))))
            states = [trace["encoded"]] + [rec["after_mlp"] for rec in trace["layers"]]
            for i, layer in enumerate(stack.transformer.layers):
                if i != 1:
                    expected = states[i] @ layer.params.W_V.T
                    assert np.array_equal(trace["layers"][i]["attention"], expected)

    def test_full_mode_fixture(self, fixtures):
        fx = fixtures["seq2seq_full_t2_m0_digits2"]
        cfg = DigitConfig(digits=2)
        stack = build_seq2seq_transformer(seq_mean, 2, 0, cfg, n_points=fx["n_points"], lam=fx["lam"], mode="full")
        grid = np.linspace(0.0, 1.0, fx["grid"])
        worst = 0.0
        for x1 in grid:
            for x2 in grid:
                s = SequenceSample(2, 0, np.array([[x1], [x2]]))
                ref = np.stack(reference_seq2seq(seq_mean, s, cfg))
                worst = max(worst, float(np.max(np.abs(stack.evaluate(s) - ref))))
        assert worst <= fx["sup_error"] * 1.25

    def test_full_mode_caps(self):
        """Full mode refuses qD = T(m+1) digits > 9 at the default sizes and
        at explicit ones, and N above 2^20, derived (which only an explicit
        lam above the rule's asks for) or explicit; an explicit N at that
        lam builds."""
        for t_len, m, digits in [(2, 1, 3), (3, 1, 2), (3, 1, 3), (10, 0, 1), (1, 0, 10)]:
            for sizes in [{}, {"n_points": 64, "lam": 2.0e5}]:
                with pytest.raises(InstanceTooLarge):
                    build_seq2seq_transformer(seq_mean, t_len, m, DigitConfig(digits=digits), mode="full", **sizes)
        cfg = DigitConfig(digits=1)
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 1, 0, cfg, lam=1.0e13, mode="full")
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 1, 0, cfg, n_points=2**20 + 1, mode="full")
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 1, 0, cfg, n_points=2**21, mode="full")
        build_seq2seq_transformer(seq_mean, 1, 0, cfg, n_points=64, lam=1.0e13, mode="full")

    @pytest.mark.parametrize("sizes", [{"n_points": 0}, {"n_points": 64.0}, {"lam": 0.0}, {"lam": math.nan}], ids=str)
    def test_hybrid_refuses_invalid_sizes(self, sizes):
        """Hybrid mode derives no sizes, but checks the ones it is given."""
        with pytest.raises(DomainError):
            build_seq2seq_transformer(seq_mean, 2, 0, DigitConfig(digits=2), mode="hybrid", **sizes)

    def test_hybrid_budget_cap(self):
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 3, 2, DigitConfig(digits=4), mode="hybrid")

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            build_seq2seq_transformer(seq_mean, 2, 1, DigitConfig(digits=2), mode="other")

    def test_encode_shape_guard(self):
        cfg = DigitConfig(digits=2)
        stack = build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="hybrid")
        with pytest.raises(DomainError):
            stack.encode_inputs(SequenceSample(3, 1, np.zeros((3, 2))))


class TestStageTraceAndDigitCap:
    def test_stage_trace_is_evaluate(self):
        cfg = DigitConfig(digits=4)
        stack = build_seq2seq_transformer(seq_mean, 3, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(12)
        for _ in range(5):
            s = SequenceSample(3, 1, rng.random((3, 2)))
            trace = stack.stage_trace(s)
            np.testing.assert_array_equal(trace["outputs"], stack.evaluate(s))
            assert len(trace["layers"]) == 3 + 2
            for rec in trace["layers"]:
                assert rec["attention"].shape == rec["after_mlp"].shape == (6, stack.layout.d)
            np.testing.assert_array_equal(trace["encoded"], stack.encode_inputs(s))

    @pytest.mark.parametrize("t_len, digits", [(2, 16), (8, 4), (3, 10), (5, 6), (6, 5), (10, 3), (29, 1)])
    def test_hybrid_refuses_digits_past_summation_error(self, t_len, digits):
        # 32 ternary digits: the half digit gap 3^-32/2 is below the
        # summation layer's rounding error, and evaluation used to decode a
        # ternary digit 1 on some inputs.  The last five (q, digits) are
        # those a whole digit gap in place of the half would admit.
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, t_len, 0, DigitConfig(digits=digits), mode="hybrid")

    @pytest.mark.parametrize("t_len, m, digits", [(3, 0, 9), (5, 0, 5), (28, 0, 1), (14, 1, 1)])
    def test_hybrid_admits_the_shapes_next_to_the_cap(self, t_len, m, digits):
        """The largest digit budgets the half-gap cap admits at q = 3, 5 and
        28 positions decode every seeded input exactly."""
        cfg = DigitConfig(digits=digits)
        stack = build_seq2seq_transformer(seq_identity, t_len, m, cfg, mode="hybrid")
        rng = np.random.default_rng([t_len, m, digits])
        for _ in range(20):
            s = SequenceSample(t_len, m, rng.random((t_len, m + 1)))
            np.testing.assert_array_equal(stack.evaluate(s), np.stack(reference_seq2seq(seq_identity, s, cfg)))

    def test_hybrid_admits_thirty_digits_at_two_positions(self):
        cfg = DigitConfig(digits=15)
        stack = build_seq2seq_transformer(seq_mean, 2, 0, cfg, mode="hybrid")
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = SequenceSample(2, 0, rng.random((2, 1)))
            np.testing.assert_array_equal(stack.evaluate(s), np.stack(reference_seq2seq(seq_mean, s, cfg)))

    def test_benchmark_hybrid_shape_admitted(self):
        stack = build_seq2seq_transformer(seq_mean, 8, 0, DigitConfig(digits=3), mode="hybrid")
        assert stack.attention_layer_count == 10


def seq_wrong_width(elements):
    return np.zeros((elements.shape[0], elements.shape[1] + 1))


class TestFullModeBuild:
    @pytest.mark.parametrize(
        "f, n_points, lam",
        [
            (seq_mean, 64, 0.0),
            (seq_mean, 64, math.inf),
            (seq_mean, 64, math.nan),
            (seq_mean, 0, 2.0e5),
            (seq_wrong_width, 64, 2.0e5),
            (lambda e: e[0], 64, 2.0e5),
            (lambda e: 0.5, 64, 2.0e5),
        ],
        ids=["lam 0", "lam inf", "lam NaN", "n_points 0", "output too wide", "output one row", "output scalar"],
    )
    def test_refusals(self, f, n_points, lam):
        with pytest.raises(DomainError):
            build_seq2seq_transformer(f, 2, 1, DigitConfig(digits=2), n_points=n_points, lam=lam, mode="full")

    def test_no_partition_and_one_f_call_per_decoded_sequence(self, monkeypatch):
        """Neither the build nor a bank layer's token form makes a partition,
        and f receives each distinct decoded sequence of the chart points of
        the anchors' angles (j + 1/2) 2 pi / N exactly once."""
        import vmfhead.sphere as sph

        partitions = []
        partition_circle = sph._partition_circle
        monkeypatch.setattr(sph, "_partition_circle", lambda n: partitions.append(n) or partition_circle(n))
        calls = []

        def counted_mean(elements):
            calls.append(elements.tobytes())
            return seq_mean(elements)

        stack = build_seq2seq_transformer(counted_mean, 2, 1, DigitConfig(digits=2), n_points=64, mode="full")
        assert partitions == []
        chart = []
        for j in range(64):
            x, y = math.cos((j + 0.5) * math.pi / 32), math.sin((j + 0.5) * math.pi / 32)
            chart.append(1.0 if 1.0 - y < 1e-12 else min(max(x / (1.0 - y), 0.0), 1.0))
        decoded = {np.array(relaxed_decode_oracle(u, 4, 2), dtype=np.float64).reshape(2, 2).tobytes() for u in chart}
        assert len(calls) == len(set(calls))
        assert set(calls) == decoded
        assert 1 < len(decoded) < 64
        assert all(layer.table.shape[0] == len(decoded) for layer in stack.transformer.layers[2:])
        encoder, _, *decoders = stack.transformer.layers
        assert all(layer.prefix.n_tokens == layer.index.size * (layer.columns >= 0).sum() for layer in (encoder, *decoders))
        assert partitions == []


# Regression pins, not oracles: SHA-256 over every layer's prefix tokens, H,
# W_V and MLP weights (each array's shape and float64 bytes), as built, of a
# full-mode build of sequence_mean at (T, m, digits, N) and the default lam,
# in the state layout of width 6 + 2q, q = T(m+1).  They hold under every
# BLAS kernel.  (3, 1, 3) has qD = 18 ternary digits, past full mode's cap,
# and is refused.
_FULL_BUILD_PINS = {
    (2, 0, 2, 4096): "e817823441b517b13f0b8f0dd42f7c6a14440fc0db935c0d193f5fa66da690c6",
    (2, 1, 2, 4094): "12f0d955cc34eecfbeaf8cc03e196185efb495d8d0b7b16ab67030ca69985961",
    (3, 0, 3, 1026): "f1048383c46754265dd8b8b537d6b62883560d45ecd8f3187ae419fa9e700155",
    (3, 1, 3, 2048): InstanceTooLarge,
    (2, 0, 2, 262144): "8e2d5dd6e548c28b9aa011385fe8ccd76651618fc94f8eef4416ec6817be8359",
}


def _build_arrays(stack) -> list[np.ndarray]:
    """Every layer's prefix tokens, H and W_V, then its MLP weights."""
    arrays = []
    for layer in stack.transformer.layers:
        arrays += [layer.prefix.tokens, layer.params.H, layer.params.W_V]
        for a, b in layer.mlp:
            arrays += [a, b]
    return arrays


@pytest.mark.parametrize("q", range(1, 31))
def test_layout_slots_cover_the_state_once(q):
    """The state slots (sphere, key, value, tag, one-hot, VAL) tile
    range(d), d = 6 + 2q, each index exactly once."""
    lay = _Layout(q=q)
    slots = [lay.z, lay.ka, slice(lay.vb, lay.vb + 1), lay.tag, lay.oh, slice(lay.val, lay.val + 1)]
    covered = sorted(i for sl in slots for i in range(sl.start, sl.stop))
    assert lay.d == 6 + 2 * q
    assert covered == list(range(lay.d))
    assert list(range(lay.tokens.start, lay.tokens.stop)) == [*range(lay.ka.start, lay.ka.stop), lay.vb, *range(lay.tag.start, lay.tag.stop)]


@pytest.mark.parametrize("shape", sorted(_FULL_BUILD_PINS), ids=lambda shape: "T{}-m{}-digits{}-N{}".format(*shape))
def test_full_build_pin(shape, digest):
    t_len, m, digits, n_points = shape
    build = functools.partial(build_seq2seq_transformer, sequence_mean, t_len, m, DigitConfig(digits=digits), n_points=n_points, mode="full")
    if _FULL_BUILD_PINS[shape] is InstanceTooLarge:
        with pytest.raises(InstanceTooLarge):
            build()
    else:
        assert digest(_build_arrays(build())) == _FULL_BUILD_PINS[shape]


# Every (T, m, digits) whose qD = T(m+1) digits ternary digits full mode admits.
_ADMITTED_FULL_SHAPES = [(t, m, d) for t in range(1, 10) for m in range(9) for d in range(1, 10) if t * (m + 1) * d <= 9]


def _full_shape_error(t_len: int, m: int, digits: int) -> float:
    """The largest error against reference_seq2seq of the (T, m, digits)
    identity stack at its default sizes, over 20 seeded inputs at least
    2 delta from every digit jump j / 2^digits and 20 whose every
    coordinate lies exactly 2 delta from one, delta = 2 lam^-1/2; it also
    checks the sizes against the rule."""
    cfg, total = DigitConfig(digits=digits), t_len * (m + 1) * digits
    stack = build_seq2seq_transformer(np.copy, t_len, m, cfg, mode="full")
    lam, n_points = stack.transformer.layers[0].lam, stack.transformer.layers[0].index.size
    assert lam == 50.0 * 9.0**total
    assert n_points & (n_points - 1) == 0 and n_points / 2 < 2.0 * math.pi * math.sqrt(lam) <= n_points
    gap, jumps = 4.0 / math.sqrt(lam), np.arange(1, 2**digits) / 2**digits
    rng = np.random.default_rng([t_len, m, digits])
    inputs = []
    while len(inputs) < 20:
        x = rng.random((t_len, m + 1))
        if np.abs(x[..., None] - jumps).min() >= gap:
            inputs.append(x)
    for _ in range(20):
        side = rng.choice([-1.0, 1.0], size=(t_len, m + 1))
        inputs.append(jumps[rng.integers(jumps.size, size=(t_len, m + 1))] + gap * side)
    errors = []
    for x in inputs:
        s = SequenceSample(t_len, m, x)
        errors.append(np.abs(stack.evaluate(s) - np.stack(reference_seq2seq(np.copy, s, cfg))).max())
    return float(max(errors))


def test_every_admitted_full_shape_meets_its_contract():
    """Full mode's contract (build_seq2seq_transformer), on each of the 44
    shapes with qD <= 9 built one at a time: every output within 1e-2 on
    inputs 2 delta from the digit jumps.  The worst error is about 4e-4.
    At 1 delta about 20 of the shapes miss, by up to 0.5 or more; at the
    former fixed sizes N = 4096 and lam = 2e5, (2, 0, 3) misses by up to
    about 0.2 and (4, 0, 2) was refused."""
    assert len(_ADMITTED_FULL_SHAPES) == 44
    errors = {shape: _full_shape_error(*shape) for shape in _ADMITTED_FULL_SHAPES}
    assert {shape: e for shape, e in errors.items() if e > 1e-2} == {}


def _seq_reversed_squares(elements):
    return elements[::-1] ** 2


def _seq_complement(elements):
    return 1.0 - elements


@pytest.mark.parametrize(
    "shape, sizes",
    [
        ((2, 0, 2), {}),
        ((2, 1, 1), {}),
        ((1, 1, 1), {}),
        ((3, 0, 3), {}),
        ((2, 0, 2), {"n_points": 4096, "lam": 2.0e5}),
        ((2, 1, 2), {"n_points": 4094}),
        ((3, 0, 3), {"n_points": 1026}),
    ],
    ids=str,
)
def test_f_enters_only_the_decoder_tables(shape, sizes):
    """The paper's claim for full mode: one frozen model, and f only in its
    prefix.  Builds with different f hold the same H, W_V and MLP arrays,
    the same summation prefix, encoder table and index, and per decoder
    the same index (one object, shared by the decoders), columns, lam and
    half-width; only the decoder tables differ, and where N is small
    enough to build them, the decoder token forms differ only in the value
    slot."""
    t_len, m, digits = shape
    stacks = [
        build_seq2seq_transformer(f, t_len, m, DigitConfig(digits=digits), mode="full", **sizes)
        for f in (sequence_mean, _seq_reversed_squares, _seq_complement)
    ]
    first, *others = [stack.transformer.layers for stack in stacks]
    for layers in [first, *others]:
        decoders = layers[2:]
        assert len(decoders) == t_len and all(layer.index is decoders[0].index for layer in decoders)
    lay = stacks[0].layout
    for layers in others:
        tables_differ = False
        for i, (a, b) in enumerate(zip(first, layers)):
            assert np.array_equal(a.params.H, b.params.H) and np.array_equal(a.params.W_V, b.params.W_V)
            assert len(a.mlp) == len(b.mlp)
            for (a_weights, a_bias), (b_weights, b_bias) in zip(a.mlp, b.mlp):
                assert np.array_equal(a_weights, b_weights) and np.array_equal(a_bias, b_bias)
            if i == 1:
                assert np.array_equal(a.prefix.tokens, b.prefix.tokens) and a.prefix.M == b.prefix.M
                continue
            assert np.array_equal(a.index, b.index) and np.array_equal(a.columns, b.columns)
            assert (a.lam, a.half_width) == (b.lam, b.half_width)
            if i == 0:
                assert np.array_equal(a.table, b.table)
                continue
            tables_differ |= not np.array_equal(a.table, b.table)
            if a.index.size <= 4096:
                ta, tb = a.prefix.tokens, b.prefix.tokens
                others_slots = np.arange(lay.d) != lay.vb
                assert np.array_equal(ta[:, others_slots], tb[:, others_slots]) and a.prefix.M == b.prefix.M
                assert not np.array_equal(ta[:, lay.vb], tb[:, lay.vb])
        assert tables_differ


@pytest.mark.parametrize("shape", [(1, 0, 9), (2, 0, 2), (2, 1, 1), (3, 0, 3), (9, 0, 1)], ids=str)
def test_both_modes_weight_psi_alike(shape):
    """Full mode's encoder table and hybrid mode's encoder stage hold one
    weighted psi: table[b, q] equals, bit for bit, the stage's output for a
    state at position q whose value has bit level b."""
    t_len, m, digits = shape
    cfg = DigitConfig(digits=digits)
    full = build_seq2seq_transformer(seq_mean, t_len, m, cfg, n_points=64, lam=2.0e5, mode="full")
    hybrid = build_seq2seq_transformer(seq_mean, t_len, m, cfg, mode="hybrid")
    lay = hybrid.layout
    level, position = np.divmod(np.arange(2**digits * lay.q), lay.q)
    X = np.zeros((level.size, lay.d))
    X[:, lay.val] = (level + 0.5) / 2**digits
    X[np.arange(level.size), lay.oh.start + position] = 1.0
    (stage,) = hybrid.transformer.layers[0].mlp
    table = full.transformer.layers[0].table
    assert table.shape == (2**digits, lay.q)
    assert np.array_equal(stage(X)[:, lay.val], table[level, position])


def _held_mib(stack) -> float:
    """MiB of the arrays a stack's layers hold (not the token forms they
    build on demand), each array's base counted once."""
    bases = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value):
            for item in vars(value).values():
                walk(item)

    for layer in stack.transformer.layers:
        walk(layer)
    return sum(bases.values()) / 2**20


def test_full_layers_hold_no_per_anchor_values():
    """A (3, 0, 3) stack at its default N = 2^20 holds its values as tables
    of at most 2^9 rows and two (N,) indexes of small ints: about 3.4 MiB,
    down from 32.4 MiB as one (N, k) value array per layer."""
    stack = build_seq2seq_transformer(sequence_mean, 3, 0, DigitConfig(digits=3), mode="full")
    assert _held_mib(stack) < 8.0
    assert stack.transformer.layers[0].index.size == 2**20


@pytest.mark.parametrize("shape", [(2, 1, 2, 4094), (3, 0, 3, 1026)], ids=lambda shape: "T{}-m{}-digits{}-N{}".format(*shape))
def test_bank_layer_is_its_token_form(shape):
    """The routing certificate of the full-mode encoder and decoders, on the
    states a stack feeds them, at N that no block size divides: the
    classical head over each layer's token form (prefix, params) equals
    its attend bit for bit on the rows that pass through.  On the rows it
    attends, the token form at the normalised sphere slot z agrees to the
    rounding of its logits: dot products below 3 lam + 2 _GAP in size,
    each within delta = 2^-50 (3 lam + 2 _GAP) of exact, and logits moved
    by at most delta move a mean of values in [0, 1] by at most
    e^(2 delta) - 1.  At z itself, which scales lam by |z|, it agrees to
    350 (1 - |z|) more, only logits within 700 of the row max weighing."""
    t_len, m, digits, n_points = shape
    stack = build_seq2seq_transformer(sequence_mean, t_len, m, DigitConfig(digits=digits), n_points=n_points, mode="full")
    lay = stack.layout
    rng = np.random.default_rng(15)
    for _ in range(8):
        X = stack.encode_inputs(SequenceSample(t_len, m, rng.random((t_len, m + 1))))
        record = []
        transformer_eval(stack.transformer, X, record=record)
        states = [X] + [rec["after_mlp"] for rec in record]
        for i, layer in enumerate(stack.transformer.layers):
            if i == 1:
                continue  # the summation layer is a TransformerLayer
            X_i, out = states[i], record[i]["attention"]
            attended = layer.columns[np.argmax(X_i[:, lay.oh], axis=1)] >= 0
            assert attended.sum() == (lay.q if i == 0 else m + 1)
            token = classical_head(X_i, layer.prefix, layer.params)
            np.testing.assert_array_equal(out[~attended], token[~attended])
            norm = np.linalg.norm(X_i[attended][:, lay.z], axis=1)
            unit = X_i.copy()
            unit[attended, lay.z] /= norm[:, None]
            rounding = math.expm1(2.0 * 2.0**-50 * (3.0 * layer.lam + 2.0 * _GAP))
            np.testing.assert_allclose(out[attended], classical_head(unit, layer.prefix, layer.params)[attended], rtol=0, atol=rounding)
            scaled = rounding + 350.0 * np.abs(1.0 - norm).max()
            np.testing.assert_allclose(out[attended], token[attended], rtol=0, atol=scaled)


def _bank_layer(n_points: int, lam: float, seed: int = 0) -> _KernelBankLayer:
    """A two-position kernel layer over the circle partition's N centres,
    each position taking its own column of uniform random values, so the
    bank's values change from every anchor to the next: the table holds
    one row per anchor."""
    table = np.random.default_rng(seed).random((n_points, 2))
    return _KernelBankLayer(layout=_Layout(q=2), lam=lam, table=table, index=np.arange(n_points), columns=np.arange(2))


def _bank_states(layer: _KernelBankLayer, theta: np.ndarray) -> np.ndarray:
    """States at the angles theta, alternating between the two positions."""
    lay = layer.layout
    X = np.zeros((theta.size, lay.d))
    X[:, lay.z] = np.column_stack([np.cos(theta), np.sin(theta)])
    X[np.arange(theta.size), lay.oh.start + np.arange(theta.size) % 2] = 1.0
    return X


def _window_angles(n_points: int) -> np.ndarray:
    """Angle 0, just below 2 pi, cell boundaries j delta (pi among them)
    and seeded random angles."""
    delta = 2.0 * math.pi / n_points
    cells = np.array([1, 2, n_points // 4, n_points // 2, n_points - 1])
    rng = np.random.default_rng(n_points)
    return np.concatenate([[0.0, np.nextafter(2.0 * math.pi, 0.0)], cells * delta, rng.uniform(0.0, 2.0 * math.pi, 8)])


def _assert_window_is_dense_head(layer: _KernelBankLayer) -> None:
    """The layer's output at _window_angles equals split_head_batch on the
    dense head over its anchors and values, each row's own column, within
    the logit-rounding bound e^(2 delta) - 1, delta = 2^-50 (3 lam + 2 _GAP)."""
    lay, lam = layer.layout, layer.lam
    head = ControlPoints(1, lam, equal_area_partition(1, layer.index.size).centers(), layer.table[layer.index])
    theta = _window_angles(head.n_points)
    X = _bank_states(layer, theta)
    dense = split_head_batch(head, X[:, lay.z] / np.linalg.norm(X[:, lay.z], axis=1)[:, None])
    expected = dense[np.arange(theta.size), np.arange(theta.size) % 2]
    rounding = math.expm1(2.0 * 2.0**-50 * (3.0 * lam + 2.0 * _GAP))
    np.testing.assert_allclose(layer.attend(X)[:, lay.val], expected, rtol=0, atol=rounding)


class TestCircleWindow:
    """The window certificate of the full-mode kernel layers: each row is
    evaluated over the 2w + 1 anchors around its cell (all N where they
    cover the circle), and the anchors left out carry under 2^-53 of its
    row sum."""

    @pytest.mark.parametrize("lam", [2.0e3, 2.0e5, 2.0e9])
    @pytest.mark.parametrize("n_points", [64, 1026, 4094, 4096, 2**18])
    def test_window_agrees_with_dense_head(self, n_points, lam):
        """Against split_head_batch on the same head (all N anchors, or
        those its block index keeps), within the logit-rounding bound of
        test_bank_layer_is_its_token_form: logits within
        delta = 2^-50 (3 lam + 2 _GAP) of exact move a mean of values in
        [0, 1] by at most e^(2 delta) - 1.  A window of half the certified
        half-width is off by 1e-7 to 3e-7 at lam = 2e3 and N >= 1026,
        against a bound of 1.4e-11."""
        _assert_window_is_dense_head(_bank_layer(n_points, lam))

    @pytest.mark.parametrize("n_points, lam", [(1026, 2.0e3), (4096, 2.0e5), (2**20, 1.9e10)])
    def test_window_meets_50_digit_oracle(self, n_points, lam):
        """Against circle_head_oracle, summed over three anchors more on each
        side than the window, within

            e^(2 eps) - 1 + lam (w + 1) delta 2^-50 + (4w + 5) 2^-53,
            eps = lam ((w + 2) delta)^2 2^-50 + 2^-53,

        for half-width w and delta = 2 pi / N, values in [0, 1]:
        - The row's angle is off by at most 2^-49: atan2 within one ulp,
          2^-51 below pi, and the scale to cells, theta N / 2 pi, rounds
          three times, within 3 pi 2^-53 in all.  The mean's derivative in
          the angle is a covariance under the weights of a value in [0, 1]
          and lam sin(theta - phi), at most lam (w + 1) delta in size over
          the window, so at most half that.
        - Each logit is off by at most eps more: its offset t - k - j - 1/2
          rounds within (w + 1) 2^-53 cells, where the logit's slope is at
          most lam (w + 1) delta^2 per cell; the product, sine, square and
          scale round within about 10 2^-53 of the logit, at most
          lam ((w + 1) delta)^2 / 2; and its exp within 2^-53.  Weights
          each off by a factor within e^(+-eps) move the mean by at most
          e^(2 eps) - 1.
        - The 2w + 1 terms' sums round within 2w + 1 units of 2^-53 each,
          the division within one more, and the anchors left out carry
          under 2^-53 of the row sum (the window certificate).
        That is 1.5e-9 at N = 2^20, lam = 1.9e10, where the layer is off by
        about 6e-12.  Logits taken as lam <z / |z|, a> round at lam 2^-53
        and are off by 5e-7 there; lam cos(theta - phi) by 4e-7."""
        layer = _bank_layer(n_points, lam, seed=3)
        lay, w, delta = layer.layout, layer.half_width, 2.0 * math.pi / n_points
        X = _bank_states(layer, _window_angles(n_points))
        expected = [circle_head_oracle(z, layer.table[layer.index, i % 2], lam, w + 3) for i, z in enumerate(X[:, lay.z])]
        eps = lam * ((w + 2) * delta) ** 2 * 2.0**-50 + 2.0**-53
        bound = math.expm1(2.0 * eps) + lam * (w + 1) * delta * 2.0**-50 + (4 * w + 5) * 2.0**-53
        np.testing.assert_allclose(layer.attend(X)[:, lay.val], expected, rtol=0, atol=bound)

    @pytest.mark.parametrize("n_points, lam", [(4096, 2.0e5), (1026, 2.0e3), (64, 20.0)])
    def test_row_alone_equals_batch(self, n_points, lam):
        """No row's result depends on the other rows: each row of a batch
        gives the same bits when it is evaluated alone."""
        layer = _bank_layer(n_points, lam, seed=1)
        X = _bank_states(layer, _window_angles(n_points))
        out = layer.attend(X)
        for i in range(X.shape[0]):
            assert layer.attend(X[i : i + 1]).tobytes() == out[i : i + 1].tobytes()

    @pytest.mark.parametrize("z", [(math.nan, 1.0), (math.inf, 0.0), (0.0, -math.inf), (0.0, 0.0)], ids=["NaN", "inf", "-inf", "zero"])
    def test_degenerate_sphere_slot_refused(self, z):
        layer = _bank_layer(64, 2.0e3)
        X = _bank_states(layer, np.array([0.5, 1.5]))
        X[1, layer.layout.z] = z
        with pytest.raises(DegenerateInput):
            layer.attend(X)

    @pytest.mark.parametrize("n_points, lam", [(15, 25.0), (16, 1.0), (64, 2.0)])
    def test_covering_window_uses_each_anchor_once(self, n_points, lam):
        """Where 2w + 1 >= N (= N at N = 15, N + 3 at lam <= tau_N / 2) the
        window is the whole circle, each anchor once: the head equals the
        dense split head within the logit-rounding bound.  Counting the
        N + 3 anchors of k - w, ..., k + w instead weighs three anchors
        near the antipode twice; at lam = 1 or 2 they carry e^-2 lam of the
        row max each, and the head moves by about 1e-2 at N = 16 and 1e-3 at
        N = 64."""
        assert 2 * _window_half_width(n_points, lam) + 1 >= n_points
        _assert_window_is_dense_head(_bank_layer(n_points, lam, seed=2))

    def test_largest_admitted_n_meets_reference(self):
        """At N = 2^20 and lam = 1.9e10 the (3, 0, 3) stack meets the
        reference at 1e-2."""
        cfg = DigitConfig(digits=3)
        stack = build_seq2seq_transformer(sequence_mean, 3, 0, cfg, n_points=2**20, lam=1.9e10, mode="full")
        rng = np.random.default_rng(17)
        for _ in range(3):
            s = SequenceSample(3, 0, rng.random((3, 1)))
            ref = np.stack(reference_seq2seq(sequence_mean, s, cfg))
            assert float(np.max(np.abs(stack.evaluate(s) - ref))) <= 1e-2


@pytest.mark.parametrize("shape", [(8, 0, 3), (2, 1, 4), (3, 2, 2), (1, 0, 8)], ids=lambda shape: "T{}-m{}-digits{}".format(*shape))
def test_passthrough_layer_is_its_token_form(shape):
    """The routing certificate of the hybrid pass-through heads, on the
    states a stack feeds them (after the summation layer too): each head's
    attend equals the classical head over its token form (prefix, params)
    bit for bit, zeroes the token slots a state fills, and leaves no
    arrays cached on the layer."""
    t_len, m, digits = shape
    stack = build_seq2seq_transformer(seq_mean, t_len, m, DigitConfig(digits=digits), mode="hybrid")
    lay = stack.layout
    rng = np.random.default_rng(16)
    for _ in range(5):
        X = stack.encode_inputs(SequenceSample(t_len, m, rng.random((t_len, m + 1))))
        record = []
        transformer_eval(stack.transformer, X, record=record)
        states = [X] + [rec["after_mlp"] for rec in record]
        for i, layer in enumerate(stack.transformer.layers):
            if i == 1:
                continue  # the summation layer is a TransformerLayer
            out = layer.attend(states[i])
            assert out.tobytes() == record[i]["attention"].tobytes()
            assert out.tobytes() == classical_head(states[i], layer.prefix, layer.params).tobytes()
            filled = states[i].copy()
            filled[:, lay.tokens] = rng.random((lay.q, lay.tokens.stop - lay.tokens.start))
            out_filled = layer.attend(filled)
            assert not out_filled[:, lay.tokens].any()
            assert out_filled.tobytes() == out.tobytes()
            assert out_filled.tobytes() == classical_head(filled, layer.prefix, layer.params).tobytes()
    for i, layer in enumerate(stack.transformer.layers):
        if i != 1:
            assert set(vars(layer)) == {"layout", "mlp"}


class TestHybridDecodesOnce:
    @pytest.mark.parametrize(
        "shape", [(4, 1, 3), (2, 1, 4), (3, 2, 2), (8, 0, 3)], ids=lambda shape: "T{}-m{}-digits{}".format(*shape)
    )
    def test_one_f_call_per_sequence(self, shape):
        """The T decoder stages share one decode of the aggregate, so f runs
        once per evaluated sequence, not once per element, also where the
        summation layer leaves the rows' aggregates a few bits apart."""
        calls = []

        def counted_mean(elements):
            calls.append(elements.shape)
            return seq_mean(elements)

        t_len, m, digits = shape
        cfg = DigitConfig(digits=digits)
        stack = build_seq2seq_transformer(counted_mean, t_len, m, cfg, mode="hybrid")
        rng = np.random.default_rng(14)
        for i in range(20):
            s = SequenceSample(t_len, m, rng.random((t_len, m + 1)))
            out = stack.evaluate(s)
            assert calls == [(t_len, m + 1)] * (i + 1)
            np.testing.assert_array_equal(out, np.stack(reference_seq2seq(seq_mean, s, cfg)))


class TestStereographic:
    """The chart maps between the circle and the scalars, private to the
    stack's build (in any dimension m)."""

    def test_zero_maps_to_south_pole(self):
        np.testing.assert_array_equal(_stereographic_inverse(np.zeros((1, 3))), [[0, 0, 0, -1]])

    def test_circle_example(self):
        np.testing.assert_allclose(_stereographic(np.array([[1.0, 0.0]])), [[1.0]], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(100, 3)) * rng.uniform(0.1, 5, size=(100, 1))
        p = _stereographic_inverse(y)
        assert np.all(np.abs(np.linalg.norm(p, axis=1) - 1.0) <= 1e-12)
        np.testing.assert_allclose(_stereographic(p), y, atol=1e-10)

    def test_circle_lookup_meets_its_chord_bound(self):
        """The summation layer's circle lookup (_stage_sphere_lookup) against
        g(t) = (2t, t^2 - 1) / (t^2 + 1) in 50-digit arithmetic, at four
        points per interval between its knots, the knots included.

        In exact arithmetic the lookup joins the values of g at knots
        h = 1/2048 apart by chords, each off by at most h^2/8 max |g''| =
        h^2/2 on [0, 1]: |g''| peaks at 4, the second component's at t = 0
        (the first's is 3/2 + sqrt 2, at t = sqrt 2 - 1).  The rounding
        allowance is (n + 8) u (|b| + sum_k |w_k|), u = 2^-53, for the output
        b + sum_k w_k ReLU(t - t_k) over the stage's n hidden lanes:
        - every hidden lane is exact: t_k is a multiple of 2^-11, so
          t - t_k >= 0 is a multiple of ulp(t) no larger than t, and a
          negative lane is 0 after the ReLU either way;
        - the sum over n lanes and its bias round within (n + 1) u times the
          sum of the terms' sizes;
        - the knot values (within 4 u of g), the slopes built from them and
          the slope changes w_k move the interpolant by at most 7 u times
          that sum more.
        That is under 1e-12 at n = 2052.  The worst error is 1.19209e-7,
        5e-14 under h^2/2, at t = 1/4096; with 256 knots it is 7.6e-6."""
        lay = _Layout(q=1)
        ts = np.linspace(0.0, 1.0, 4 * 2048 + 1)
        X = np.zeros((ts.size, lay.d))
        X[:, lay.val], X[:, lay.oh] = ts, 1.0
        stage = _stage_sphere_lookup(lay)
        errors = circle_chart_error_oracle(ts, _apply_mlp(X, stage)[:, lay.z])
        weights, bias = stage[1][0][lay.z], stage[1][1][lay.z]
        allowance = (weights.shape[1] + 8) * 2.0**-53 * (np.abs(bias) + np.abs(weights).sum(axis=1))
        assert np.all(errors.max(axis=0) <= 0.5 / 2048**2 + allowance)
