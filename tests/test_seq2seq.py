"""Sequence pipeline: digit maps, aggregation, and the T+2-layer stack."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfhead.attention import TransformerStack, transformer_eval
from vmfhead.errors import DomainError, EncodingError, InstanceTooLarge, PrecisionBudgetExceeded
from vmfhead.sphere import equal_area_partition
from vmfhead.seq2seq import (
    DigitConfig,
    RAggregate,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    decode_sequence,
    psi_decode,
    psi_encode,
    psi_strided,
    reference_seq2seq,
    sequence_mean,
)
from vmfhead.seq2seq.assembly import _summation_error_bound
from vmfhead.seq2seq.encoding import _psi_float, relaxed_decode


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
        vals = np.array([psi_encode(float(x), cfg) for x in xs])
        assert np.all(np.diff(vals) >= 0.0)

    def test_decode_round_trip(self):
        cfg = DigitConfig(digits=8)
        for x in (0.0, 0.25, 0.5, 0.75):
            assert psi_decode(psi_encode(x, cfg), cfg) == x
        np.testing.assert_allclose(psi_decode(2.0 / 3.0, cfg), 0.5)

    def test_decode_rejects_middle_digits(self):
        cfg = DigitConfig(digits=4)
        with pytest.raises(EncodingError):
            psi_decode(1.0 / 3.0 + 1.0 / 81.0, cfg)

    def test_decode_float_budget(self):
        # 3^32 < 2^52 <= 3^33: 32 digits round-trip through the float, and 33
        # or more are refused, where decoding used to return a wrong value or
        # report a ternary digit 1.
        cfg = DigitConfig(digits=32)
        for x in np.random.default_rng(14).random(200):
            assert psi_decode(psi_encode(float(x), cfg), cfg) == math.floor(x * 2**32) / 2**32
        for digits in (33, 36, 40):
            cfg = DigitConfig(digits=digits)
            for x in (0.0, 0.3, 0.7):
                with pytest.raises(PrecisionBudgetExceeded):
                    psi_decode(psi_encode(x, cfg), cfg)

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
        """The float digit map is float(psi_strided) bit for bit at every
        dyadic input of every digit budget from 1 to 12."""
        for digits in range(1, 13):
            cfg = DigitConfig(digits=digits)
            for k in range(2**digits + 1):
                x = k / 2**digits
                assert _psi_float(x, cfg, stride) == float(psi_strided(x, cfg, stride))


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
        psi(x_ip) with the width-strided digit map."""
        cfg = DigitConfig(digits=3)
        rng = np.random.default_rng(4)
        for t_len, m in ((1, 0), (2, 1), (3, 0)):
            width = t_len * (m + 1)
            e = rng.random((t_len, m + 1))
            s = SequenceSample(t_len, m, e)
            direct = 0.0
            for i in range(t_len):
                for p in range(m + 1):
                    direct += 3.0 * 3.0 ** (-i * (m + 1)) * 3.0 ** (-(p + 1)) * float(
                        psi_strided(e[i, p], cfg, width)
                    )
            np.testing.assert_allclose(aggregate_R(s, cfg).value, direct, rtol=1e-12)


def _oracle_aggregate(elements, digits: int) -> Fraction:
    """sum over coordinates q and digits j of 2 b 3^-(1 + q + j width), with
    b bit j of floor(x 2^digits) (x = 1 keeps all ones)."""
    flat = [float(x) for x in np.ravel(elements)]
    width, total = len(flat), len(flat) * digits
    num = 0
    for q, x in enumerate(flat):
        n = min(math.floor(x * 2**digits), 2**digits - 1)
        for j in range(digits):
            b = (n >> (digits - 1 - j)) & 1
            num += 2 * b * 3 ** (total - 1 - q - j * width)
    return Fraction(num, 3**total)


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
        oracle = _oracle_aggregate(s.elements, cfg.digits)
        assert r.value == float(oracle)
        assert len(r.ternary_string()) == total
        assert Fraction(int(r.ternary_string(), 3), 3**total) == oracle
        scale = 2**cfg.digits
        truncated = np.minimum(np.floor(s.elements * scale), scale - 1) / scale
        assert np.array_equal(decode_sequence(r, s.t_len, s.m, cfg).elements, truncated)
        if 3**total < 2**52:
            assert np.array_equal(decode_sequence(r.value, s.t_len, s.m, cfg).elements, truncated)
        k = data.draw(st.integers(0, total - 1))
        broken = r.ternary[:k] + "1" + r.ternary[k + 1 :]
        with pytest.raises(EncodingError):
            decode_sequence(dataclasses.replace(r, ternary=broken), s.t_len, s.m, cfg)
        if 3**total < 2**52:
            with pytest.raises(EncodingError):
                decode_sequence(int(broken, 3) / 3**total, s.t_len, s.m, cfg)


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
                        exact = Fraction(int(agg.ternary, 3), 3 ** len(agg.ternary))
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
# W_V and MLP weights (each array's shape and float64 bytes) of a full-mode
# build of sequence_mean at (T, m, digits, N), recorded while psi and f were
# still evaluated once per anchor.  They hold the build bit for bit.
_FULL_BUILD_PINS = {
    (2, 0, 2, 4096): "8058629938f7d772720a76d9f74f5b807e0314c83cfeb58ba8135edd406d2493",
    (2, 1, 2, 4094): "442e2e7fd78d819f23b31312345d559e86e5848f6bfe48733b82b55e0b2c8549",
    (3, 0, 3, 1026): "185c14ab8e5727df7a13f69dd20b85e95d49e5b2d19c7971083d382a4187dee4",
    (3, 1, 3, 2048): "b93814f543373fe73373c703a06d64789fc4b094136dfb2182f1fe5ac31fecc6",
    (2, 0, 2, 262144): "7b87136ebf6d3d7988a0cb49d89e1efa3fd24e131e5a3a353cd4d2955ca78347",
}


@pytest.mark.parametrize("shape", sorted(_FULL_BUILD_PINS), ids=lambda shape: "T{}-m{}-digits{}-N{}".format(*shape))
def test_full_build_pin(shape, digest):
    t_len, m, digits, n_points = shape
    stack = build_seq2seq_transformer(sequence_mean, t_len, m, DigitConfig(digits=digits), n_points=n_points, mode="full")
    arrays = []
    for layer in stack.transformer.layers:
        arrays += [layer.prefix.tokens, layer.params.H, layer.params.W_V]
        for a, b in layer.mlp:
            arrays += [a, b]
    assert digest(arrays) == _FULL_BUILD_PINS[shape]


class TestHybridDecodesOnce:
    def test_one_f_call_per_sequence(self):
        """The T decoder stages share one decode of the aggregate, so f runs
        once per evaluated sequence, not once per element."""
        calls = []

        def counted_mean(elements):
            calls.append(elements.shape)
            return seq_mean(elements)

        cfg = DigitConfig(digits=3)
        stack = build_seq2seq_transformer(counted_mean, 4, 1, cfg, mode="hybrid")
        rng = np.random.default_rng(14)
        for i in range(3):
            s = SequenceSample(4, 1, rng.random((4, 2)))
            out = stack.evaluate(s)
            assert calls == [(4, 2)] * (i + 1)
            np.testing.assert_array_equal(out, np.stack(reference_seq2seq(seq_mean, s, cfg)))
