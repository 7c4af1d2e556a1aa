"""Attention heads: core/split/classical identities and the universal head."""

import gc
import json
import math
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import suppression_gap
from vmfhead import attention as att
from vmfhead import prefix as pfx
from vmfhead.errors import DimensionMismatch, DomainError
from vmfhead.seq2seq import DigitConfig, SequenceSample, build_seq2seq_transformer
from vmfhead.sphere import equal_area_partition, uniform_sphere_sample


def random_cp(m, n, lam, seed, beta_scale=1.0):
    part = equal_area_partition(m, n)
    rng = np.random.default_rng(seed)
    return att.ControlPoints(
        m=m, lam=lam, p_alpha=part.centers(), p_beta=beta_scale * rng.normal(size=(n, m + 1))
    )


class TestControlPoints:
    def test_validation(self):
        with pytest.raises(DomainError):
            att.ControlPoints(m=2, lam=1.0, p_alpha=np.zeros((0, 3)), p_beta=np.zeros((0, 3)))
        with pytest.raises(DomainError):
            att.ControlPoints(m=2, lam=1.0, p_alpha=np.ones((2, 3)), p_beta=np.zeros((2, 3)))
        for values in (np.zeros((3, 3)), np.zeros((2, 0)), np.zeros(2)):
            with pytest.raises(DimensionMismatch):
                att.ControlPoints(m=2, lam=1.0, p_alpha=np.eye(3)[:2], p_beta=values)


class TestCoreHead:
    def test_single_aligned_token(self):
        lam = 3.0
        x = uniform_sphere_sample(2, 1, seed=1)[0]
        v = np.array([0.4, -0.2, 1.0])
        cp = att.ControlPoints(m=2, lam=lam, p_alpha=x[None, :], p_beta=v[None, :])
        np.testing.assert_allclose(att.core_head(cp, x), math.exp(lam) * v, rtol=1e-12)

    def test_orthogonal_token(self):
        x = np.array([1.0, 0.0, 0.0])
        p = np.array([0.0, 1.0, 0.0])
        v = np.array([2.0, 3.0, -1.0])
        cp = att.ControlPoints(m=2, lam=5.0, p_alpha=p[None, :], p_beta=v[None, :])
        np.testing.assert_allclose(att.core_head(cp, x), v, rtol=1e-12)

    def test_matches_split_numerator(self):
        cp = random_cp(3, 32, 9.0, seed=2)
        for x in uniform_sphere_sample(3, 10, seed=3):
            logits = cp.lam * (cp.p_alpha @ x)
            denom = np.exp(logits).sum()
            np.testing.assert_allclose(att.core_head(cp, x) / denom, att.split_head(cp, x), rtol=1e-12)

    def test_log_variant_finite_at_huge_concentration(self):
        cp = random_cp(2, 8, 5000.0, seed=4)
        x = uniform_sphere_sample(2, 1, seed=5)[0]
        signs, logmag = att.core_head_log(cp, x)
        assert np.all(np.isfinite(logmag))
        assert np.all(np.isin(signs, (-1.0, 0.0, 1.0)))


class TestSplitHead:
    def test_constant_values(self):
        c = np.array([0.3, 0.3, -0.7])
        cp = att.ControlPoints(
            m=2, lam=4.0, p_alpha=equal_area_partition(2, 16).centers(), p_beta=np.tile(c, (16, 1))
        )
        for x in uniform_sphere_sample(2, 5, seed=6):
            np.testing.assert_allclose(att.split_head(cp, x), c, atol=1e-14)

    def test_single_token(self):
        cp = random_cp(2, 1, 2.0, seed=7)
        x = uniform_sphere_sample(2, 1, seed=8)[0]
        np.testing.assert_allclose(att.split_head(cp, x), cp.p_beta[0], atol=1e-15)

    def test_weights_normalized(self):
        # with all-ones values the output must be exactly the weight sum
        ones = np.ones((24, 4))
        cp = att.ControlPoints(m=3, lam=6.0, p_alpha=equal_area_partition(3, 24).centers(), p_beta=ones)
        x = uniform_sphere_sample(3, 1, seed=9)[0]
        np.testing.assert_allclose(att.split_head(cp, x), 1.0, atol=1e-14)

    def test_batch_matches_scalar(self):
        cp = random_cp(2, 40, 11.0, seed=10)
        pts = uniform_sphere_sample(2, 17, seed=11)
        batch = att.split_head_batch(cp, pts)
        for i, x in enumerate(pts):
            np.testing.assert_allclose(batch[i], att.split_head(cp, x), rtol=1e-12)
        assert att.split_head_batch(cp, pts[:0]).shape == (0, 3)


def plain_softmax(anchors, values, lam, points):
    """Row-by-row max-shifted softmax over every anchor, without pruning or
    a floor: (weighted value means, log normalizers)."""
    means = np.empty((points.shape[0], values.shape[1]))
    log_mass = np.empty(points.shape[0])
    for i, x in enumerate(points):
        logits = lam * (anchors @ x)
        w = np.exp(logits - logits.max())
        means[i] = (w @ values) / w.sum()
        log_mass[i] = logits.max() + math.log(w.sum())
    return means, log_mass


def smooth_cp(m, anchors, lam):
    """Values that vary smoothly with their anchors, as a synthesized prefix
    has: near-tied anchors then carry near-equal values.  (With unrelated
    values the output's sensitivity to a one-ulp change of a logit, about
    lam * 1e-16 times their spread, would decide a 1e-12 comparison at
    lam = 1e5, whatever the evaluation order.)"""
    return att.ControlPoints(m=m, lam=lam, p_alpha=anchors, p_beta=anchors[:, ::-1] + 0.5)


def positive_cp(anchors, lam, scale):
    """S^2 control points whose values are positive, smooth in their
    anchors and of size `scale`, so no component of a kernel sum cancels."""
    return att.ControlPoints(m=2, lam=lam, p_alpha=anchors, p_beta=scale * (anchors[:, ::-1] + 2.0))


@st.composite
def _head_case(draw):
    """(m, N, lam, anchors from partition centers?, seed): half the cases are
    sharp heads on many anchors, where pruning acts; the others span lam
    from 1 to 1e5 on fewer anchors, where the head stays dense."""
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n, log10_lam = draw(st.sampled_from([12000, 20000, 30000])), draw(st.floats(3.0, 5.0))
    else:
        n, log10_lam = draw(st.sampled_from([1, 40, 3000, 12000])), draw(st.floats(0.0, 5.0))
    return m, n, 10.0**log10_lam, draw(st.booleans()), draw(st.integers(0, 2**16))


class TestPrunedHead:
    @settings(max_examples=40)
    @given(_head_case())
    @example((2, 20000, 3000.0, True, 1))
    @example((1, 12000, 1e5, False, 2))
    def test_matches_plain_softmax(self, case):
        """split_head_batch and log_prefix_mass agree with a plain softmax to
        1e-12 on both sides of the dense/pruned switch, at random queries,
        at anchors and at their antipodes."""
        m, n, lam, centers, seed = case
        anchors = equal_area_partition(m, n).centers() if centers else uniform_sphere_sample(m, n, seed)
        cp = smooth_cp(m, anchors, lam)
        picks = np.random.default_rng(seed).choice(n, 4)
        pts = np.vstack([uniform_sphere_sample(m, 12, seed + 1), anchors[picks], -anchors[picks]])
        means, log_mass = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(cp, pts), means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts), log_mass, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m, n, lam, n_queries", [(2, 65536, 8.0, 21), (1, 30000, 4.0, 19)])
    def test_tiled_matches_plain_softmax(self, m, n, lam, n_queries):
        """A dense head over enough anchors for two- and three-row tiles,
        with a one-query remainder that joins the tile before it."""
        anchors = uniform_sphere_sample(m, n, seed=44)
        cp = smooth_cp(m, anchors, lam)
        assert cp._blocks is None
        rows = max(2, att._TILE_BYTES // (8 * n))
        assert rows <= 3 and n_queries % rows == 1
        pts = np.vstack([uniform_sphere_sample(m, n_queries - 2, seed=45), anchors[:1], -anchors[:1]])
        means, log_mass = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(cp, pts), means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts), log_mass, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("width", ["1", "3", "m+1"])
    @pytest.mark.parametrize("indexed", [False, True], ids=["dense", "indexed"])
    def test_value_widths_match_plain_softmax(self, width, indexed):
        """A head whose values have k columns, k not tied to m (the banks
        of a full-mode sequence layer): split_head_batch gives (n, k) means
        and log_prefix_mass the log normalizers of a plain softmax, to
        1e-12, dense and with the block index."""
        m = 1
        k = m + 1 if width == "m+1" else int(width)
        n, lam = (12000, 1e5) if indexed else (3000, 30.0)
        anchors = equal_area_partition(m, n).centers()
        smooth = np.column_stack([anchors[:, 0] + 0.5, 2.0 * anchors[:, 1], anchors[:, 0] * anchors[:, 1]])
        cp = att.ControlPoints(m=m, lam=lam, p_alpha=anchors, p_beta=smooth[:, :k])
        assert (cp._blocks is not None) == indexed
        pts = np.vstack([uniform_sphere_sample(m, 9, seed=51), anchors[:2], -anchors[:1]])
        means, log_mass = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        out = att.split_head_batch(cp, pts)
        assert out.shape == (pts.shape[0], k)
        np.testing.assert_allclose(out, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts), log_mass, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(att.split_head_batch(cp, pts[:1]), means[:1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "lam, scale, zero_shift",
        [(349.9, 1.0, True), (350.1, 1.0, False), (349.0, 1e147, True), (349.0, 1e150, False), (349.0, 1e160, False)],
    )
    def test_zero_shift_matches_plain_softmax(self, lam, scale, zero_shift):
        """Both sides of the zero-shift switch (ControlPoints._zero_shift):
        lam around 350, and values so large that only the max shift is
        certified (at 1e160 a zero shift would overflow the weighted sums).
        A batch, a lone query and an empty batch agree with a plain softmax
        to 1e-12 of the value scale."""
        cp = positive_cp(equal_area_partition(2, 3000).centers(), lam, scale)
        assert cp._blocks is None and cp._zero_shift == zero_shift
        pts = np.vstack([uniform_sphere_sample(2, 9, seed=49), cp.p_alpha[:1], -cp.p_alpha[:1]])
        means, log_mass = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(cp, pts) / scale, means / scale, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts), log_mass, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(att.split_head_batch(cp, pts[:1]) / scale, means[:1] / scale, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts[:1]), log_mass[:1], rtol=1e-12, atol=1e-12)
        assert att.split_head_batch(cp, pts[:0]).shape == (0, 3)
        assert att.log_prefix_mass(cp, pts[:0]).shape == (0,)

    @pytest.mark.parametrize("lam, scale", [(349.9, 1.0), (350.1, 1.0), (349.0, 1e147), (349.0, 1e150)])
    def test_log_mass_matches_mpmath_across_zero_shift(self, lam, scale):
        """log_prefix_mass and core_head_log against a 30-digit log-sum-exp
        of the same logits, on both sides of the zero-shift switch."""
        cp = positive_cp(equal_area_partition(2, 3000).centers(), lam, scale)
        for x in uniform_sphere_sample(2, 3, seed=50):
            with mp.workdps(30):
                terms = [mp.exp(mp.mpf(float(v))) for v in cp.lam * (cp.p_alpha @ x)]
                log_mass = float(mp.log(mp.fsum(terms)))
                log_core = [float(mp.log(mp.fsum(t * mp.mpf(float(b)) for t, b in zip(terms, col)))) for col in cp.p_beta.T]
            assert att.log_prefix_mass(cp, x[None])[0] == pytest.approx(log_mass, rel=1e-12)
            signs, logmag = att.core_head_log(cp, x)
            assert np.all(signs == 1.0)
            np.testing.assert_allclose(logmag, log_core, rtol=1e-12)

    @pytest.mark.parametrize("n, lam, pruned", [(16384, 32.0, False), (65536, 2000.0, True)])
    def test_lone_query_is_a_row_of_a_pair(self, n, lam, pruned):
        """A query evaluated alone gives, bit for bit, what it gives as one
        of two copies: no query goes through numpy's matrix-vector path,
        which rounds differently from its matrix product."""
        cp = smooth_cp(2, equal_area_partition(2, n).centers(), lam)
        assert (cp._blocks is not None) == pruned
        for x in uniform_sphere_sample(2, 20, seed=46):
            pair = np.stack([x, x])
            assert np.array_equal(att.split_head_batch(cp, x[None])[0], att.split_head_batch(cp, pair)[0])
            assert att.log_prefix_mass(cp, x[None])[0] == att.log_prefix_mass(cp, pair)[0]

    def test_dense_head_memory_is_one_tile(self):
        """512 queries on 65536 anchors below tau_N: an (n, N) logit matrix
        would take 256 MiB, two live two-row tiles take 2 MiB."""
        cp = smooth_cp(2, uniform_sphere_sample(2, 65536, seed=47), 16.0)
        pts = uniform_sphere_sample(2, 512, seed=48)
        assert cp._blocks is None
        tracemalloc.start()
        try:
            att.split_head_batch(cp, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_indexed_head_dense_groups(self, monkeypatch):
        """A head with a block index whose groups keep too many anchors for
        pruning to pay: 20000 anchors in a cap of half the pruning reach at
        lam = 3000 on S^2.  Its groups are evaluated densely (kept None) and
        agree with a plain softmax to 1e-12."""
        n, lam = 20000, 3000.0
        radius = 0.5 * float(att._reach(lam, n, 0.0))
        rng = np.random.default_rng(51)
        polar, azimuth = radius * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
        anchors = np.stack(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1
        )
        cp = smooth_cp(2, anchors, lam)
        assert cp._blocks is not None
        calls = []
        evaluate = att._softmax_rows

        def spy(cp, pts, rows, out, kept=None):
            calls.append(kept)
            evaluate(cp, pts, rows, out, kept)

        monkeypatch.setattr(att, "_softmax_rows", spy)
        pts = np.vstack([uniform_sphere_sample(2, 12, seed=52), anchors[:4], -anchors[:4]])
        means, log_mass = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(cp, pts), means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(cp, pts), log_mass, rtol=1e-12, atol=1e-12)
        assert calls and all(kept is None for kept in calls)

    def test_pruned_head_memory_is_one_tile(self):
        """8192 queries on the sharp approx-s2 head (S^2, lam = 2000,
        N = 65536): the pruning setup is one tile of queries by the 1024
        blocks, not (n, B) arrays, which would take over 100 MiB."""
        cp = smooth_cp(2, equal_area_partition(2, 65536).centers(), 2000.0)
        pts = uniform_sphere_sample(2, 8192, seed=53)
        assert cp._blocks is not None
        tracemalloc.start()
        try:
            att.split_head_batch(cp, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n, lam, pruned", [(16384, 2000.0, True), (4096, 8.0, False)])
    def test_anchor_order_irrelevant(self, n, lam, pruned):
        cp = smooth_cp(2, equal_area_partition(2, n).centers(), lam)
        perm = np.random.default_rng(41).permutation(n)
        shuffled = att.ControlPoints(m=2, lam=lam, p_alpha=cp.p_alpha[perm], p_beta=cp.p_beta[perm])
        pts = uniform_sphere_sample(2, 200, seed=42)
        np.testing.assert_allclose(
            att.split_head_batch(shuffled, pts), att.split_head_batch(cp, pts), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(att.log_prefix_mass(shuffled, pts), att.log_prefix_mass(cp, pts), rtol=1e-13)
        assert (cp._blocks is not None) == (shuffled._blocks is not None) == pruned

    def test_index_dies_with_its_control_points(self):
        cp = smooth_cp(2, equal_area_partition(2, 16384).centers(), 2000.0)
        att.split_head_batch(cp, uniform_sphere_sample(2, 64, seed=43))
        assert cp._blocks is not None
        ref = weakref.ref(cp)
        del cp
        gc.collect()
        assert ref() is None


def _strided(a):
    """a as a strided view: every other column of an array twice as wide."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]



class TestHeadLayout:
    @pytest.mark.parametrize("lam, indexed", [(32.0, False), (2000.0, True)], ids=["dense", "indexed"])
    def test_control_point_layout_is_bitwise_irrelevant(self, lam, indexed):
        """C-ordered, Fortran-ordered and strided-view anchors and values
        give the same bits, dense and indexed, on a batch large enough for
        multi-tile dense calls and the coarser query groups."""
        anchors = equal_area_partition(2, 16384).centers()
        values = anchors[:, ::-1] + 0.5
        pts = uniform_sphere_sample(2, 600, seed=191)
        results = []
        for layout in (np.ascontiguousarray, np.asfortranarray, _strided):
            a, v = layout(anchors), layout(values)
            cp = att.ControlPoints(m=2, lam=lam, p_alpha=a, p_beta=v)
            assert (cp._blocks is not None) == indexed
            results.append((att.split_head_batch(cp, pts), att.log_prefix_mass(cp, pts)))
        assert not _strided(anchors).flags.c_contiguous and np.asfortranarray(anchors).flags.f_contiguous
        for means, log_mass in results[1:]:
            assert np.array_equal(means, results[0][0])
            assert np.array_equal(log_mass, results[0][1])

    def test_strided_input_is_held_c_contiguous(self):
        """A head built on strided views, as a full-mode decoder's value
        columns are, holds C-contiguous anchors and values, and its pruned
        groups give the bits of a head built on contiguous copies."""
        anchors = equal_area_partition(2, 16384).centers()
        values = anchors[:, ::-1] + 0.5
        pts = uniform_sphere_sample(2, 600, seed=191)
        cp = att.ControlPoints(m=2, lam=2000.0, p_alpha=_strided(anchors), p_beta=_strided(values))
        assert cp.p_alpha.flags.c_contiguous and cp.p_beta.flags.c_contiguous
        assert cp._blocks is not None
        contiguous = att.ControlPoints(m=2, lam=2000.0, p_alpha=anchors.copy(), p_beta=values.copy())
        assert np.array_equal(att.split_head_batch(cp, pts), att.split_head_batch(contiguous, pts))

    def test_wide_head_pin(self):
        """Oracle check, not a regression pin: the approx-s2 wide head (the
        identity on S^2, N = 16384, lam = 32), evaluated densely, agrees with
        plain_softmax to 1e-12.  Its outputs are gemm sums, whose bits differ
        between BLAS kernels; bitwise layout invariance on one kernel is
        test_control_point_layout_is_bitwise_irrelevant's."""
        cp = pfx.synthesize_prefix(pfx.make_target("identity", 2), 16384, 32.0)
        assert cp._blocks is None
        pts = uniform_sphere_sample(2, 512, 181)
        means, _ = plain_softmax(cp.p_alpha, cp.p_beta, cp.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(cp, pts), means, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def sharp_head():
    """The sharp approx-s2 head: the identity on S^2, N = 65536, lam = 2000."""
    return pfx.synthesize_prefix(pfx.make_target("identity", 2), 65536, 2000.0)


def _spied_means(monkeypatch, cp, pts):
    """(split_head_batch(cp, pts), one (rows, anchors evaluated) pair per
    _softmax_rows call)."""
    calls = []
    evaluate = att._softmax_rows

    def spy(cp, pts, rows, out, kept=None):
        calls.append((rows.size, cp.n_points if kept is None else kept.size))
        evaluate(cp, pts, rows, out, kept)

    monkeypatch.setattr(att, "_softmax_rows", spy)
    return att.split_head_batch(cp, pts), calls


# Regression pins, not oracles: (seed, _softmax_rows calls, evaluated
# (query, anchor) pairs) of the sharp head at uniform_sphere_sample(2, n,
# seed), recorded with the one query grouping _block_index chooses (its 64
# cells).  A small batch must not do more work than that.
_SMALL_BATCH_PINS = {64: (182, 26, 200923), 256: (183, 60, 849391)}


class TestQueryGroups:
    def test_large_batch_groups_by_reach(self, sharp_head, monkeypatch):
        """1024 uniform queries share fewer than n/8 groups (the blocks' own
        cells gave 405), and every output agrees with a plain softmax."""
        pts = uniform_sphere_sample(2, 1024, 184)
        means, calls = _spied_means(monkeypatch, sharp_head, pts)
        assert len(calls) < 1024 // 8
        assert all(rows > 1 for rows, _ in calls)
        expected, _ = plain_softmax(sharp_head.p_alpha, sharp_head.p_beta, sharp_head.lam, pts)
        np.testing.assert_allclose(means, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", sorted(_SMALL_BATCH_PINS))
    def test_small_batch_does_no_more_work(self, sharp_head, monkeypatch, n):
        seed, most_calls, most_pairs = _SMALL_BATCH_PINS[n]
        _, calls = _spied_means(monkeypatch, sharp_head, uniform_sphere_sample(2, n, seed))
        assert len(calls) <= most_calls
        assert sum(rows * kept for rows, kept in calls) <= most_pairs

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65])
    def test_batch_sizes_match_plain_softmax(self, sharp_head, monkeypatch, n):
        pts = uniform_sphere_sample(2, n, 192 + n)
        means, calls = _spied_means(monkeypatch, sharp_head, pts)
        assert all(rows > 1 for rows, _ in calls)
        expected, log_mass = plain_softmax(sharp_head.p_alpha, sharp_head.p_beta, sharp_head.lam, pts)
        np.testing.assert_allclose(means, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(sharp_head, pts), log_mass, rtol=1e-12, atol=1e-12)

    def test_one_unit_check_per_call(self, sharp_head, monkeypatch):
        """split_head_batch checks its queries once, on the first call too:
        the block index places the anchors ControlPoints checked, and the
        query grouping the queries checked on entry, without checking them
        again."""
        import vmfhead.sphere as sph

        cp = att.ControlPoints(2, sharp_head.lam, sharp_head.p_alpha, sharp_head.p_beta)
        calls = []
        check = sph.check_finite_unit

        def spy(points):
            calls.append(len(points))
            return check(points)

        for module in (att, sph):
            monkeypatch.setattr(module, "check_finite_unit", spy)
        pts = uniform_sphere_sample(2, 1024, 185)
        for _ in range(2):
            calls.clear()
            att.split_head_batch(cp, pts)
            assert calls == [1024]

    @pytest.mark.parametrize("n", [64, 400])
    def test_one_cell_batch(self, sharp_head, n):
        """n queries within 1e-3 rad of one group cell's center, so all in
        that cell: one group per tile."""
        cells = sharp_head._blocks.groups
        noise = 1e-3 * np.random.default_rng(193).normal(size=(n, 3))
        pts = cells.centers()[10] + noise
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.unique(cells.locate_batch(pts)).size == 1
        expected, log_mass = plain_softmax(sharp_head.p_alpha, sharp_head.p_beta, sharp_head.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(sharp_head, pts), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(sharp_head, pts), log_mass, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [32, 200])
    def test_antipodal_pairs(self, sharp_head, n):
        """Each query next to its antipode in the batch: 2n queries whose
        groups split across opposite cells."""
        x = uniform_sphere_sample(2, n, 194)
        pts = np.stack([x, -x], axis=1).reshape(-1, 3)
        expected, log_mass = plain_softmax(sharp_head.p_alpha, sharp_head.p_beta, sharp_head.lam, pts)
        np.testing.assert_allclose(att.split_head_batch(sharp_head, pts), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att.log_prefix_mass(sharp_head, pts), log_mass, rtol=1e-12, atol=1e-12)

    def test_one_grouping_chosen_with_the_index(self, sharp_head, monkeypatch):
        """The index picks the query cells once: the coarsest whose kept
        anchors still pay (64 on the sharp S^2 head), else the blocks' own
        cells (the S^3 head at N = 20000, lam = 1e4, which has no coarser
        level).  No call after the first builds a partition."""
        anchors = equal_area_partition(3, 20000).centers()
        s3 = att.ControlPoints(m=3, lam=1e4, p_alpha=anchors, p_beta=anchors)
        indexes = sharp_head._blocks, s3._blocks
        built = []
        monkeypatch.setattr(att, "equal_area_partition", lambda *a: built.append(a) or equal_area_partition(*a))
        for n in (2, 256, 1024, 8192):
            att.split_head_batch(sharp_head, uniform_sphere_sample(2, n, 195))
        att.split_head_batch(s3, uniform_sphere_sample(3, 1024, 196))
        assert built == []
        assert indexes[0].groups.n_cells == 64
        assert indexes[1].groups.n_cells == indexes[1].radii.size == 312


@pytest.mark.parametrize("case", ["dense", "pruned", "one query"])
def test_tiles_start_on_cache_lines(sharp_head, monkeypatch, case):
    """Every tile _softmax_rows hands to _softmax, its logits and its
    [values | 1] rows, starts on a 64-byte boundary: on a dense head in
    multi-tile calls, on the sharp head's pruned groups, and for a lone
    query on both heads."""
    wide = smooth_cp(2, equal_area_partition(2, 16384).centers(), 32.0)
    assert wide._blocks is None and sharp_head._blocks is not None
    tiles = []
    softmax = att._softmax

    def spy(logits, values, shift=True):
        tiles.append((logits.ctypes.data % 64, values.ctypes.data % 64, values.shape[0]))
        return softmax(logits, values, shift)

    monkeypatch.setattr(att, "_softmax", spy)
    if case == "dense":
        att.split_head_batch(wide, uniform_sphere_sample(2, 600, 197))
        assert len(tiles) > 2
    elif case == "pruned":
        att.split_head_batch(sharp_head, uniform_sphere_sample(2, 256, 198))
        assert any(anchors < sharp_head.n_points for _, _, anchors in tiles)
    else:
        x = uniform_sphere_sample(2, 1, 199)[0]
        att.split_head(wide, x)
        att.split_head(sharp_head, x)
        assert len(tiles) == 2
    assert tiles and all(logits == values == 0 for logits, values, _ in tiles)


class TestLiftProject:
    def test_round_trip(self):
        x = uniform_sphere_sample(3, 1, seed=12)[0]
        for augmented in (False, True):
            np.testing.assert_array_equal(att.project(att.lift(x, augmented), 4), x)

    def test_norm_preserved_plain(self):
        x = uniform_sphere_sample(2, 1, seed=13)[0]
        assert abs(np.linalg.norm(att.lift(x)) - 1.0) <= 1e-15

    def test_augmented_constant_slot(self):
        x = uniform_sphere_sample(2, 1, seed=14)[0]
        lifted = att.lift(x, augmented=True)
        assert lifted[-1] == 1.0
        assert lifted.size == 10


class TestUniversalHead:
    def test_block_algebra(self):
        m, lam = 4, 16.0
        cp = random_cp(m, 8, lam, seed=16)
        for augmented in (False, True):
            params = att.build_universal_head(m, -11.0, augmented)
            prefix = att.assemble_prefix_tokens(cp, -11.0, augmented)
            x = uniform_sphere_sample(m, 1, seed=17)[0]
            lifted = att.lift(x, augmented)
            assert np.max(np.abs(params.W_V @ lifted)) == 0.0
            routed = params.W_V @ prefix.tokens[2]
            np.testing.assert_allclose(routed[: m + 1], cp.p_beta[2], atol=1e-15)
            assert np.max(np.abs(routed[m + 1 :])) == 0.0
            np.testing.assert_allclose(
                lifted @ params.H @ prefix.tokens[2], lam * float(np.dot(x, cp.p_alpha[2])), atol=1e-12
            )

    def test_token_layout(self):
        m, lam = 3, 7.0
        cp = random_cp(m, 5, lam, seed=18)
        prefix = att.assemble_prefix_tokens(cp, -9.0, False)
        assert prefix.n_tokens == 5
        np.testing.assert_allclose(np.linalg.norm(prefix.tokens[:, m + 1 : 2 * (m + 1)], axis=1), lam, rtol=1e-12)

    def test_token_norm_monotone_in_lam(self):
        m = 2
        part = equal_area_partition(m, 16)
        norms = []
        for lam in (1.0, 4.0, 16.0, 64.0):
            cp = att.ControlPoints(m=m, lam=lam, p_alpha=part.centers(), p_beta=np.ones((16, 3)))
            prefix = att.assemble_prefix_tokens(cp, -lam - 1.0, False)
            norms.append(float(np.linalg.norm(prefix.tokens[0])))
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_requires_negative_m(self):
        with pytest.raises(DomainError):
            att.build_universal_head(2, 0.5)


@st.composite
def _suppression_case(draw):
    """(m, N, lam, M, augmented, seed) with M = -lam - t: the input's mass
    e^M stays below the prefix mass N e^-lam, so the gap stays under 1/2,
    and t up to 10^3.5 takes it far below one rounding unit."""
    m = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 16, 200, 3000]))
    lam = 10.0 ** draw(st.floats(-1.0, 2.5))
    M = -lam - 10.0 ** draw(st.floats(-2.0, 3.5))
    return m, n, lam, M, draw(st.booleans()), draw(st.integers(0, 2**16))


class TestClassicalHead:
    @settings(max_examples=40)
    @given(_suppression_case())
    def test_equals_split_head_times_suppression_gap(self, case):
        """The projected classical head is split * (1 - gap) at every M, so
        it tends to the split head as M -> -inf."""
        m, n, lam, M, augmented, seed = case
        anchors = uniform_sphere_sample(m, n, seed)
        # values in [1, 3]: every output component is far from zero
        cp = att.ControlPoints(m=m, lam=lam, p_alpha=anchors, p_beta=anchors[:, ::-1] + 2.0)
        params = att.build_universal_head(m, M, augmented)
        prefix = att.assemble_prefix_tokens(cp, M, augmented)
        x = uniform_sphere_sample(m, 1, seed + 1)[0]
        out = att.project(att.classical_head([att.lift(x, augmented)], prefix, params)[0], m + 1)
        expected = att.split_head(cp, x) * (1.0 - suppression_gap(cp, x, M))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)

    def test_prefix_permutation(self):
        m = 3
        cp = random_cp(m, 20, 8.0, seed=19)
        params = att.build_universal_head(m, -9.0, True)
        prefix = att.assemble_prefix_tokens(cp, -9.0, True)
        perm = np.random.default_rng(20).permutation(20)
        shuffled = att.PrefixTokens(d=prefix.d, tokens=prefix.tokens[perm], M=prefix.M, augmented=True)
        x = att.lift(uniform_sphere_sample(m, 1, seed=21)[0], True)
        np.testing.assert_allclose(
            att.classical_head([x], prefix, params)[0], att.classical_head([x], shuffled, params)[0], atol=1e-13
        )

    def test_duplicate_inputs_same_output(self):
        m = 2
        cp = random_cp(m, 12, 6.0, seed=22)
        params = att.build_universal_head(m, -8.0, True)
        prefix = att.assemble_prefix_tokens(cp, -8.0, True)
        x = att.lift(uniform_sphere_sample(m, 1, seed=23)[0], True)
        out = att.classical_head([x, x], prefix, params)
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_split_within_slack(self):
        """Projected classical output differs from the split head by the
        relative factor e^M / (S + e^M), bounded by e^(M + lam) / N."""
        m, n, lam = 4, 128, 32.0
        cp = random_cp(m, n, lam, seed=24)
        M = -5.0
        params = att.build_universal_head(m, M, False)
        prefix = att.assemble_prefix_tokens(cp, M, False)
        beta_max = float(np.max(np.linalg.norm(cp.p_beta, axis=1)))
        bound = beta_max * math.exp(M + lam) / n
        for x in uniform_sphere_sample(m, 25, seed=25):
            out = att.project(att.classical_head([att.lift(x)], prefix, params)[0], m + 1)
            diff = float(np.linalg.norm(out - att.split_head(cp, x)))
            assert diff <= bound * (1 + 1e-9) + 1e-13

    def test_slack_shrinks_with_suppression(self):
        """Dropping M by ln 10 divides the measured gap by 10 (within 10%),
        checked at suppression levels where the gap is far above noise."""
        m, n, lam = 4, 128, 2.0
        cp = random_cp(m, n, lam, seed=26)
        xs = uniform_sphere_sample(m, 30, seed=27)
        gaps = []
        for M in (-1.0, -1.0 - math.log(10.0), -1.0 - 2 * math.log(10.0)):
            params = att.build_universal_head(m, M, False)
            prefix = att.assemble_prefix_tokens(cp, M, False)
            worst = 0.0
            for x in xs:
                out = att.project(att.classical_head([att.lift(x)], prefix, params)[0], m + 1)
                s = att.split_head(cp, x)
                worst = max(worst, float(np.linalg.norm(out - s) / np.linalg.norm(s)))
            gaps.append(worst)
        assert gaps[0] > 1e-9
        for a, b in zip(gaps, gaps[1:]):
            assert a / b >= 9.0

    def test_analytic_gap_matches_measurement(self):
        m, n, lam = 3, 64, 2.0
        cp = random_cp(m, n, lam, seed=28)
        M = -2.0
        params = att.build_universal_head(m, M, False)
        prefix = att.assemble_prefix_tokens(cp, M, False)
        for x in uniform_sphere_sample(m, 10, seed=29):
            out = att.project(att.classical_head([att.lift(x)], prefix, params)[0], m + 1)
            s = att.split_head(cp, x)
            measured = float(np.linalg.norm(out - s) / np.linalg.norm(s))
            np.testing.assert_allclose(measured, suppression_gap(cp, x, M), rtol=1e-6)

    def test_dimension_mismatch(self):
        cp = random_cp(2, 4, 1.0, seed=30)
        params = att.build_universal_head(2, -5.0, False)
        prefix = att.assemble_prefix_tokens(cp, -5.0, False)
        with pytest.raises(DimensionMismatch):
            att.classical_head([np.zeros(5)], prefix, params)

    def test_finite_at_huge_concentration(self):
        m, lam = 2, 5000.0
        cp = random_cp(m, 16, lam, seed=31)
        M = att.default_suppression(lam, 16)
        params = att.build_universal_head(m, M, True)
        prefix = att.assemble_prefix_tokens(cp, M, True)
        out = att.classical_head([att.lift(uniform_sphere_sample(m, 1, seed=32)[0], True)], prefix, params)[0]
        assert np.all(np.isfinite(out))


class TestUniversalArtifact:
    @settings(max_examples=40)
    @given(_suppression_case())
    def test_certified_form_equals_token_form(self, case):
        """universal_control_points reads the control points back from their
        tokens, and universal_head_batch over them is the projected
        classical head, each point its own one-input sequence."""
        m, n, lam, M, augmented, seed = case
        anchors = uniform_sphere_sample(m, n, seed)
        cp = att.ControlPoints(m=m, lam=lam, p_alpha=anchors, p_beta=anchors[:, ::-1] + 2.0)
        prefix, params = att.assemble_prefix_tokens(cp, M, augmented), att.build_universal_head(m, M, augmented)
        rebuilt = att.universal_control_points(prefix, params, m, lam)
        assert rebuilt.p_beta.tobytes() == cp.p_beta.tobytes()
        # (lam p) / lam is p to within two roundings
        np.testing.assert_allclose(rebuilt.p_alpha, cp.p_alpha, rtol=0, atol=2.0**-52)
        pts = uniform_sphere_sample(m, 3, seed + 1)
        token = [att.project(att.classical_head([att.lift(x, augmented)], prefix, params)[0], m + 1) for x in pts]
        np.testing.assert_allclose(att.universal_head_batch(rebuilt, pts, M), np.stack(token), rtol=1e-12, atol=0)

    def test_non_universal_refused(self):
        m, lam, M = 2, 8.0, -20.0
        cp = random_cp(m, 8, lam, seed=192)
        for augmented in (False, True):
            prefix, params = att.assemble_prefix_tokens(cp, M, augmented), att.build_universal_head(m, M, augmented)
            d = prefix.d

            def with_token(row, col, value):
                tokens = prefix.tokens.copy()
                tokens[row, col] = value
                return att.PrefixTokens(d=d, tokens=tokens, M=M, augmented=augmented)

            H = params.H.copy()
            H[0, m + 1] = np.nextafter(1.0, 2.0)
            cases = [
                (prefix, att.AttentionHeadParams(d=d, H=H, W_V=params.W_V), m, lam),
                (prefix, att.build_universal_head(m, M - 1.0, augmented), m, lam),
                (with_token(0, 0, 1e-300), params, m, lam),
                (with_token(0, m + 1, 2.0 * lam), params, m, lam),
                (prefix, params, m, 2.0 * lam),
                (prefix, params, m, 0.0),
                (prefix, params, m + 1, lam),
            ]
            if augmented:
                cases.append((with_token(1, d - 1, 0.5), params, m, lam))
            for case in cases:
                with pytest.raises(DomainError):
                    att.universal_control_points(*case)
            assert att.universal_control_points(prefix, params, m, lam).n_points == 8

    def test_head_batch_contract(self):
        """M must be negative and finite; where the input's mass e^M swamps
        the prefix mass past the double range the output is 0, not NaN."""
        cp = att.ControlPoints(m=2, lam=2000.0, p_alpha=[[0.0, 0.0, 1.0]], p_beta=[[1.0, 2.0, 3.0]])
        pts = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        for M in (0.0, 1.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                att.universal_head_batch(cp, pts, M)
        out = att.universal_head_batch(cp, pts, -1.0)
        assert out[0].tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(out[1], [1.0, 2.0, 3.0], rtol=1e-15)


def _universal_stack():
    m = 2
    d = 3 * (m + 1) + 1
    cp = random_cp(m, 10, 5.0, seed=35)
    layer = att.TransformerLayer(
        params=att.build_universal_head(m, -8.0, True),
        prefix=att.assemble_prefix_tokens(cp, -8.0, True),
        mlp=((np.eye(d), np.zeros(d)),),
    )
    X = np.array([att.lift(x, True) for x in uniform_sphere_sample(m, 2, seed=36)])
    return att.TransformerStack(layers=(layer, layer)), X


def _sequence_stack(mode, **kwargs):
    stack = build_seq2seq_transformer(lambda e: e[::-1] ** 2, 2, 1, DigitConfig(digits=2), mode=mode, **kwargs)
    s = SequenceSample(2, 1, np.random.default_rng(44).random((2, 2)))
    return stack.transformer, stack.encode_inputs(s)


def chain_of_heads(stack, X):
    """The stack written out: each layer's public classical_head, then its
    stages, with a ReLU between consecutive affine maps; a callable stage
    is a stage function of the state array."""
    for layer in stack.layers:
        X = att.classical_head(X, layer.prefix, layer.params)
        prev_affine = False
        for stage in layer.mlp:
            if callable(stage):
                X, prev_affine = stage(X), False
                continue
            X = (np.maximum(X, 0.0) if prev_affine else X) @ stage[0].T + stage[1]
            prev_affine = True
    return X


class TestTransformerEval:
    def test_single_layer_equals_head(self):
        m = 2
        cp = random_cp(m, 10, 5.0, seed=33)
        params = att.build_universal_head(m, -8.0, True)
        prefix = att.assemble_prefix_tokens(cp, -8.0, True)
        stack = att.TransformerStack(layers=(att.TransformerLayer(params=params, prefix=prefix),))
        x = att.lift(uniform_sphere_sample(m, 1, seed=34)[0], True)
        np.testing.assert_array_equal(
            att.transformer_eval(stack, [x])[0], att.classical_head([x], prefix, params)[0]
        )

    def test_identity_mlp_matches_composition(self):
        m = 2
        d = 3 * (m + 1) + 1
        cp = random_cp(m, 10, 5.0, seed=35)
        params = att.build_universal_head(m, -8.0, True)
        prefix = att.assemble_prefix_tokens(cp, -8.0, True)
        ident = (np.eye(d), np.zeros(d))
        layer = att.TransformerLayer(params=params, prefix=prefix, mlp=(ident,))
        stack = att.TransformerStack(layers=(layer, layer))
        x = att.lift(uniform_sphere_sample(m, 1, seed=36)[0], True)
        manual = att.classical_head(
            [att.classical_head([x], prefix, params)[0]], prefix, params
        )[0]
        np.testing.assert_allclose(att.transformer_eval(stack, [x])[0], manual, atol=1e-14)

    @pytest.mark.parametrize(
        "make, atol",
        [
            (_universal_stack, 0.0),
            (lambda: _sequence_stack("hybrid"), 0.0),
            # A full-mode encoder and decoders take each row's logits from
            # its angle, that of the normalised sphere slot z.  The lookup
            # leaves 1 - |z| <= (1/2048)^2 / 2; only logits within 700 of a
            # row's max weigh and the values lie in [0, 1], so each such
            # layer moves by at most 350 (1 - |z|) against its token form
            # (test_seq2seq.py::test_bank_layer_is_its_token_form).
            (lambda: _sequence_stack("full", n_points=256, lam=2.0e4), 350 * 0.5 / 2048**2),
        ],
        ids=["universal", "hybrid", "full"],
    )
    def test_transformer_eval_is_chain_of_classical_heads(self, make, atol):
        stack, X = make()
        out = att.transformer_eval(stack, X)
        np.testing.assert_allclose(out, chain_of_heads(stack, X), rtol=0, atol=atol)

    def test_full_mode_layers_hold_their_anchors_once(self):
        # A full-mode stack holds no anchors: every kernel layer holds a
        # read-only (N, k) value array, takes its anchors from arithmetic,
        # builds its tokens anew on each request, caches none, and frees
        # its arrays with itself.
        stack, X = _sequence_stack("full", n_points=1024, lam=2.0e4)
        encoder, _, *decoders = stack.layers
        assert [layer.values.shape for layer in (encoder, *decoders)] == [(1024, 1), (1024, 2), (1024, 2)]
        assert all(layer.lam == 2.0e4 for layer in (encoder, *decoders))
        assert not any(layer.values.flags.writeable for layer in (encoder, *decoders))
        assert encoder.prefix is not encoder.prefix and encoder.prefix.n_tokens == 4 * 1024
        att.transformer_eval(stack, X)
        fields = {"layout", "lam", "values", "columns", "mlp", "half_width"}
        assert all(set(vars(layer)) == fields for layer in (encoder, *decoders))
        refs = [weakref.ref(encoder), weakref.ref(encoder.values)]
        del stack, encoder, decoders
        gc.collect()
        assert all(r() is None for r in refs)


class TestArtifacts:
    def test_bit_exact_round_trip(self):
        m, lam = 3, 13.0
        cp = random_cp(m, 6, lam, seed=37)
        prefix = att.assemble_prefix_tokens(cp, -7.5, True)
        params = att.build_universal_head(m, -7.5, True)
        text = att.export_prefix_artifact(prefix, params, m, lam)
        prefix2, params2, m2, lam2 = att.import_prefix_artifact(text)
        assert (m2, lam2) == (m, lam)
        assert prefix2.M == prefix.M and prefix2.augmented == prefix.augmented
        assert np.array_equal(prefix2.tokens, prefix.tokens)
        assert np.array_equal(params2.H, params.H)
        assert np.array_equal(params2.W_V, params.W_V)

    def test_schema_and_dimension_errors(self):
        m, lam = 2, 5.0
        cp = random_cp(m, 4, lam, seed=38)
        prefix = att.assemble_prefix_tokens(cp, -6.0, False)
        params = att.build_universal_head(m, -6.0, False)
        text = att.export_prefix_artifact(prefix, params, m, lam)
        payload = json.loads(text)
        payload["schema"] = "nope"
        with pytest.raises(DomainError):
            att.import_prefix_artifact(json.dumps(payload))
        payload = json.loads(text)
        payload["d"] = 7
        with pytest.raises(DomainError):
            att.import_prefix_artifact(json.dumps(payload))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _artifact(draw):
    """(prefix, params, m, lam) with arbitrary finite entries, subnormals
    and signed zeros included."""
    m, augmented = draw(st.integers(1, 3)), draw(st.booleans())
    d = 3 * (m + 1) + augmented
    tokens = draw(arrays(np.float64, (draw(st.integers(1, 4)), d), elements=_FINITE))
    H, W = (draw(arrays(np.float64, (d, d), elements=_FINITE)) for _ in range(2))
    M = draw(st.floats(max_value=-math.ulp(0.0), allow_infinity=False))
    lam = draw(st.floats(min_value=math.ulp(0.0), allow_infinity=False))
    prefix = att.PrefixTokens(d=d, tokens=tokens, M=M, augmented=augmented)
    return prefix, att.AttentionHeadParams(d=d, H=H, W_V=W), m, lam


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


# Entries that no artifact written by export_prefix_artifact holds: strings
# that parse to non-finite doubles or do not parse, and non-finite JSON
# numbers where an integer belongs.
_BAD_NUMBERS = ["nan", "-inf", "inf", "1e999", "np.float64(1.0)"]


class TestArtifactProperties:
    @settings(max_examples=40)
    @given(_artifact())
    def test_round_trip_is_bit_exact(self, case):
        prefix, params, m, lam = case
        text = att.export_prefix_artifact(prefix, params, m, lam)
        prefix2, params2, m2, lam2 = att.import_prefix_artifact(text)
        assert m2 == m and _bits(lam2) == _bits(lam) and _bits(prefix2.M) == _bits(prefix.M)
        assert prefix2.augmented == prefix.augmented and prefix2.d == prefix.d
        for got, want in ((prefix2.tokens, prefix.tokens), (params2.H, params.H), (params2.W_V, params.W_V)):
            assert got.shape == want.shape and _bits(got) == _bits(want)

    @settings(max_examples=60)
    @given(_artifact(), st.data())
    def test_adversarial_entries_raise_domain_error(self, case, data):
        payload = json.loads(att.export_prefix_artifact(*case))
        kind = data.draw(st.sampled_from(["entry", "scalar", "ragged", "empty", "integer", "row as a string", "bool scalar"]))
        if kind == "entry":
            rows = payload[data.draw(st.sampled_from(["tokens", "H", "W_V"]))]
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(_BAD_NUMBERS))
        elif kind == "scalar":
            payload[data.draw(st.sampled_from(["M", "lambda"]))] = data.draw(st.sampled_from(_BAD_NUMBERS))
        elif kind == "ragged":
            rows = payload[data.draw(st.sampled_from(["tokens", "H", "W_V"]))]
            rows[data.draw(st.integers(0, len(rows) - 1))].pop()
        elif kind == "empty":
            payload["tokens"] = []
        elif kind == "row as a string":
            rows = payload[data.draw(st.sampled_from(["tokens", "H", "W_V"]))]
            i = data.draw(st.integers(0, len(rows) - 1))
            rows[i] = data.draw(st.sampled_from("019")) * len(rows[i])
        elif kind == "bool scalar":
            payload[data.draw(st.sampled_from(["M", "lambda"]))] = data.draw(st.booleans())
        else:
            key = data.draw(st.sampled_from(["d", "m"]))
            payload[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(DomainError):
            att.import_prefix_artifact(json.dumps(payload))


class TestLayerValidation:
    def test_dimension_chain_enforced(self):
        m = 2
        cp = random_cp(m, 8, 5.0, seed=40)
        params = att.build_universal_head(m, -8.0, True)
        prefix = att.assemble_prefix_tokens(cp, -8.0, True)
        d = params.d
        good = att.TransformerLayer(
            params=params, prefix=prefix, mlp=((np.zeros((5, d)), np.zeros(5)), (np.zeros((d, 5)), np.zeros(d)))
        )
        assert good.params.d == d
        with pytest.raises(DimensionMismatch):
            att.TransformerLayer(params=params, prefix=prefix, mlp=((np.zeros((5, d + 1)), np.zeros(5)),))
        with pytest.raises(DimensionMismatch):
            att.TransformerLayer(params=params, prefix=prefix, mlp=((np.zeros((5, d)), np.zeros(5)),))
        other = att.assemble_prefix_tokens(cp, -8.0, False)
        with pytest.raises(DimensionMismatch):
            att.TransformerLayer(params=params, prefix=other)
