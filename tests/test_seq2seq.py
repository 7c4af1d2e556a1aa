"""Sequence pipeline: digit maps, aggregation, and the T+2-layer stack."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import aggregate_oracle, circle_head_oracle, relaxed_decode_oracle

from vmfhead.attention import ControlPoints, TransformerStack, classical_head, split_head_batch, transformer_eval
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
    _stereographic,
    _stereographic_inverse,
    _summation_error_bound,
    _window_half_width,
)
from vmfhead.seq2seq.encoding import _bits, _mantissa, _psi, relaxed_decode


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
        """relaxed_decode refuses past 3^total >= 2^52, where at T=2, m=1
        and 12 digits (48 ternary digits) it used to decode every seeded
        aggregate wrong, and decodes valid aggregates at the largest
        full-mode shape (18 digits) as decode_sequence does."""
        cfg = DigitConfig(digits=12)
        rng = np.random.default_rng(16)
        for _ in range(20):
            r = aggregate_R(SequenceSample(2, 1, rng.random((2, 2))), cfg).value
            with pytest.raises(PrecisionBudgetExceeded):
                relaxed_decode(r, 2, 1, cfg)
        cfg = DigitConfig(digits=3)
        for _ in range(20):
            agg = aggregate_R(SequenceSample(3, 1, rng.random((3, 2))), cfg)
            np.testing.assert_array_equal(relaxed_decode(agg.value, 3, 1, cfg), decode_sequence(agg, 3, 1, cfg).elements)

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
        """Every float budget the decoder admits (3^total < 2^52), at
        arbitrary scalars and at exact mantissas, where a digit 1 reads 0."""
        width = t_len * (m + 1)
        digits = data.draw(st.integers(1, 32 // width))
        total = width * digits
        mantissas = st.integers(0, 3**total - 1).map(lambda k: k / 3**total)
        us = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), mantissas), min_size=1, max_size=16))
        got = relaxed_decode(np.array(us), t_len, m, DigitConfig(digits))
        assert got.shape == (len(us), t_len, m + 1)
        for u, row in zip(us, got.reshape(len(us), width).tolist()):
            assert row == [float(c) for c in relaxed_decode_oracle(u, width, digits)]


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
        cfg = DigitConfig(digits=4)
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 2, 1, cfg, mode="full")
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, 4, 0, DigitConfig(digits=2), mode="full")

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

    @pytest.mark.parametrize("t_len, digits", [(2, 16), (8, 4)])
    def test_hybrid_refuses_digits_past_summation_error(self, t_len, digits):
        # 32 ternary digits: the half digit gap 3^-32/2 is below the
        # summation layer's rounding error, and evaluation used to decode a
        # ternary digit 1 on some inputs.
        with pytest.raises(InstanceTooLarge):
            build_seq2seq_transformer(seq_mean, t_len, 0, DigitConfig(digits=digits), mode="hybrid")

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

    def test_one_partition_and_one_f_call_per_decoded_sequence(self, monkeypatch):
        """One partition serves every head, and f receives each distinct
        decoded sequence of the anchors' chart points exactly once."""
        import vmfhead.seq2seq.assembly as asm

        partitions = []
        monkeypatch.setattr(asm, "equal_area_partition", lambda *a: partitions.append(a) or equal_area_partition(*a))
        calls = []

        def counted_mean(elements):
            calls.append(elements.tobytes())
            return seq_mean(elements)

        cfg = DigitConfig(digits=2)
        build_seq2seq_transformer(counted_mean, 3, 1, cfg, n_points=64, mode="full")
        assert partitions == [(1, 64)]
        chart = []
        for x, y in equal_area_partition(1, 64).centers():
            chart.append(1.0 if 1.0 - y < 1e-12 else min(max(x / (1.0 - y), 0.0), 1.0))
        decoded = {relaxed_decode(u, 3, 1, cfg).tobytes() for u in chart}
        assert len(calls) == len(set(calls))
        assert set(calls) == decoded
        assert 1 < len(decoded) < 64


# Regression pins, not oracles: SHA-256 over every layer's prefix tokens, H,
# W_V and MLP weights (each array's shape and float64 bytes), as built, of a
# full-mode build of sequence_mean at (T, m, digits, N), in the state layout
# of width 6 + 2q, q = T(m+1).  They hold under every BLAS kernel.
_FULL_BUILD_PINS = {
    (2, 0, 2, 4096): "0284055c7991f95243db220ee42d064f7868609d5f4e651e1d4470128f650485",
    (2, 1, 2, 4094): "f1f9266f373843bb472ecee102732d0c8ae4a91ecf2c1a41bca95aeb4a841598",
    (3, 0, 3, 1026): "06865aad207c1205b7d6ac0318b5d0795cebb4f8fa5b2a30cc76abc2652819a6",
    (3, 1, 3, 2048): "1de0472ce1bfecb4d0f57b07ae5b3cdaeafac8cb2dce5a8ddbf5a7430f08438a",
    (2, 0, 2, 262144): "5fdb2d59125fb2d45de72d83b4f50bef4049103fa6a50ca75d04e75441de66d8",
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
    stack = build_seq2seq_transformer(sequence_mean, t_len, m, DigitConfig(digits=digits), n_points=n_points, mode="full")
    assert digest(_build_arrays(stack)) == _FULL_BUILD_PINS[shape]


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
    bank's values change from every anchor to the next."""
    values = np.random.default_rng(seed).random((n_points, 2))
    return _KernelBankLayer(layout=_Layout(q=2), lam=lam, values=values, columns=np.arange(2))


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
    head = ControlPoints(1, lam, equal_area_partition(1, layer.values.shape[0]).centers(), layer.values)
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
        expected = [circle_head_oracle(z, layer.values[:, i % 2], lam, w + 3) for i, z in enumerate(X[:, lay.z])]
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
