"""Assembly of the T+2 attention-layer sequence-to-sequence stack.

The stack operates on q = T(m+1) "virtual positions", one scalar
coordinate each, in states of width 6 + 2q.  Each prefix token's one-hot
tag addresses its position and is also its payload: the values restore
the position's one-hot from it.  Layer 1 applies the digit encoder to
every coordinate and weights position p's psi by 3^-p, so the positions'
ternary digits interleave in the aggregate (_position_weights).  Layer 2
sums the weighted values across positions with exactly uniform attention
over inputs, producing the aggregate scalar at every position.  Layers
3..T+2 hold one decoder head per element, with token groups tagged to
that element's positions.  The encoder and the decoders share one token
form (_bank_layer_params): a one-hot-keyed diagonal logit suppresses an
attended row's own input and lets every other position attend to itself
and pass its state through bit-exactly.

Two build modes share this skeleton.  "hybrid" keeps the attention wiring
(the summation layer is the piece under test) but evaluates the digit
encoder and the decoders exactly inside oracle stages.  The heads before
those stages only self-attend: each evaluates its certified form W_V x,
builds its token form on demand and holds no arrays (_PassThroughLayer).
"full" synthesizes the encoder and decoder heads as kernel prefixes over
the circle, embedding scalars into S^1 by the inverse stereographic map;
each such head holds lam, a small table of its banks' distinct values and
an (N,) index of small ints into it, and builds its token form on demand
(_KernelBankLayer).  f enters the decoders' tables and nothing else, so
every other array is the same for any f.  The anchors are the centres of
N equal arcs, so a row's softmax mass lies in the window of 2w + 1
anchors around the arc that holds it, w = ceil(reach / delta) + 1 for
delta = 2 pi / N and reach = arccos(cos(delta / 2) - tau_N / lam): the
anchors past it carry under 2^-53 of the row sum.  Each row is evaluated
over its window, its logits taken from its angle by arithmetic, so the
cost of a sequence does not grow with N (31 anchors a row at N = 4096
and lam = 2e5, 29 at N = 2^20 and lam = 1.9e10).  Unless given, N and
lam come from the shape: lam = 50 9^qD for the qD = T(m+1) digits
ternary digits of the aggregate, and N = 2 pi sqrt(lam) rounded up to a
power of two; full mode admits qD <= 9 (build_seq2seq_transformer).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..attention import (
    AttentionHeadParams,
    PrefixTokens,
    TransformerLayer,
    TransformerStack,
    _reach,
    _softmax,
    transformer_eval,
)
from ..errors import DegenerateInput, DimensionMismatch, DomainError, InstanceTooLarge, _positive, _size
from .encoding import (
    DigitConfig,
    SequenceSample,
    _bits,
    _decode,
    _mantissa,
    _psi,
    apply_sequence_function,
)

__all__ = ["Seq2SeqStack", "build_seq2seq_transformer"]

_GAP = 900.0  # logit margin that underflows exp() entirely in doubles
_GAMMA = 4.0  # the summation layer's one-hot logit
_LOOKUP_KNOTS = 2048  # knots of the full-mode circle-embedding MLP
_FULL_LAM = 50.0  # full mode's default lam per 9^qD (build_seq2seq_transformer)
_FULL_DIGITS = 9  # full mode's cap on qD, whose default N is then at most 2^20
_UNIT_ROUNDOFF = 2.0**-53


def _summation_error_bound(q: int) -> float:
    """First-order bound on |VAL - R| after the summation layer over q
    positions (R < 1), in roundings: 4 per encoded value, 4 for the value
    scale, 2 for the weight e^-gamma and its product with a value, q for
    the weighted sum, 2q for the row sum of 2q terms, 1 for their quotient
    and 1 for the decoder's rescale, with one to spare."""
    return (3 * q + 13) * _UNIT_ROUNDOFF


def _position_weights(q: int) -> np.ndarray:
    """The encoder's weight 3^-p of each of the q positions p: the weighted
    psi of both modes, hybrid's oracle stage and full mode's encoder table."""
    return np.array([3.0 ** (-q0) for q0 in range(q)])


def _stereographic(x: np.ndarray) -> np.ndarray:
    """The chart points x[:m] / (1 - x[m]) of the rows of an (n, m+1) array
    of sphere points; a row at the pole gives inf or NaN, which the build
    masks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return x[:, :-1] / (1.0 - x[:, -1:])


def _stereographic_inverse(y: np.ndarray) -> np.ndarray:
    """The sphere points (2y, |y|^2 - 1) / (|y|^2 + 1) of the rows of an
    (n, m) array of finite chart points."""
    s = np.einsum("ij,ij->i", y, y)[:, None]
    return np.concatenate([2.0 * y / (s + 1.0), (s - 1.0) / (s + 1.0)], axis=1)


@dataclass(frozen=True)
class _Layout:
    """Slot indices of the stack's state vectors."""

    q: int  # number of virtual positions, T(m+1)

    @property
    def d(self) -> int:
        return 6 + 2 * self.q

    @property
    def z(self) -> slice:  # sphere slot (S^1 embedding of the active scalar)
        return slice(0, 2)

    @property
    def ka(self) -> slice:  # token key block (lambda * anchor)
        return slice(2, 4)

    @property
    def vb(self) -> int:  # token value block (scalar)
        return 4

    @property
    def tag(self) -> slice:  # token tag block (position addressing, and the one-hot W_V restores)
        return slice(5, 5 + self.q)

    @property
    def tokens(self) -> slice:  # the token blocks (key, value, tag), zero in the states a stack feeds its heads
        return slice(2, 5 + self.q)

    @property
    def oh(self) -> slice:  # state one-hot (virtual position identity)
        return slice(5 + self.q, 5 + 2 * self.q)

    @property
    def val(self) -> int:  # state scalar value
        return 5 + 2 * self.q


# ---------------------------------------------------------------------------
# MLP stage builders (an exact affine recover and a piecewise-linear lookup)
# ---------------------------------------------------------------------------


def _stage_affine_recover(lay: _Layout):
    """Single affine map undoing the summation layer's one-hot mixing:
    OH <- (OH - 1) / (e^_GAMMA - 1); VAL passes through."""
    d = lay.d
    a = np.zeros((d, d))
    b = np.zeros(d)
    scale = 1.0 / math.expm1(_GAMMA)
    a[lay.oh, lay.oh] = scale * np.eye(lay.q)
    b[lay.oh] = -scale
    a[lay.val, lay.val] = 1.0
    return [(a, b)]


def _stage_sphere_lookup(lay: _Layout):
    """Piecewise-linear ReLU realization of the circle embedding of VAL.

    Writes the two sphere-slot components of the inverse stereographic map
    of VAL (exact at the knots, chordal in between) while passing VAL and
    the one-hot through.
    """
    q, d, knots = lay.q, lay.d, _LOOKUP_KNOTS
    ts = np.linspace(0.0, 1.0, knots + 1)
    comps = _stereographic_inverse(ts[:, None])  # (knots+1, 2)
    hidden = knots + q + 1
    a1 = np.zeros((hidden, d))
    b1 = np.zeros(hidden)
    a1[:knots, lay.val] = 1.0
    b1[:knots] = -ts[:knots]
    a1[knots : knots + q, lay.oh] = np.eye(q)
    a1[knots + q, lay.val] = 1.0
    a2 = np.zeros((d, hidden))
    b2 = np.zeros(d)
    for c in range(2):
        vals = comps[:, c]
        slopes = np.diff(vals) / np.diff(ts)
        w = np.concatenate([[slopes[0]], np.diff(slopes)])
        a2[lay.z.start + c, :knots] = w
        b2[lay.z.start + c] = vals[0]
    a2[lay.oh, knots : knots + q] = np.eye(q)
    a2[lay.val, knots + q] = 1.0
    return [(a1, b1), (a2, b2)]


# ---------------------------------------------------------------------------
# Attention layer builders
# ---------------------------------------------------------------------------


def _carry_state(lay: _Layout, w: np.ndarray) -> np.ndarray:
    """W_V entries copying the state's sphere slot, one-hot and value."""
    for i in [*range(lay.z.start, lay.z.stop), *range(lay.oh.start, lay.oh.stop), lay.val]:
        w[i, i] = 1.0
    return w


def _restore_payload(lay: _Layout, w: np.ndarray) -> np.ndarray:
    """W_V entries adding a token's scalar and its tag as the one-hot: one
    nonzero product each, so exact."""
    w[lay.val, lay.vb] = 1.0
    w[lay.oh, lay.tag] = np.eye(lay.q)
    return w


@dataclass(frozen=True)
class _PassThroughLayer:
    """A hybrid-mode head before an oracle stage: every position attends to
    itself and passes its state through.

    Its token form (params, prefix, built on demand) is the paper's
    self-attending head: H holds the diagonal one-hot logit _GAP e_q e_q^T,
    W_V carries the sphere slot, one-hot and value, and the one
    prefix token is all zero.

    Routing certificate.  A row at position q (one-hot e_q) has its own
    logit _GAP |e_q|^2 = 900, and every other input's logit and the zero
    token's is 0, up to the rounding of the one-hots that the summation
    layer's recover stage leaves.  Every term but the row's own thus sits
    past the softmax's floor of 700 below the row max, so the weights are
    exactly (1, 0, ..., 0) (attention._softmax) and the head's output is
    W_V x bit for bit.  attend evaluates exactly that: x with its token
    slots (key, value and tag) zeroed.
    """

    layout: _Layout
    mlp: tuple = ()

    @property
    def params(self) -> AttentionHeadParams:
        lay = self.layout
        h = np.zeros((lay.d, lay.d))
        h[lay.oh, lay.oh] = _GAP * np.eye(lay.q)
        return AttentionHeadParams(d=lay.d, H=h, W_V=_carry_state(lay, np.zeros((lay.d, lay.d))))

    @property
    def prefix(self) -> PrefixTokens:
        return PrefixTokens(d=self.layout.d, tokens=np.zeros((1, self.layout.d)), M=-_GAP, augmented=False)

    def attend(self, X: np.ndarray) -> np.ndarray:
        """W_V x for each row of the (Q, d) states X (see the class docstring)."""
        lay = self.layout
        if X.shape[1] != lay.d:
            raise DimensionMismatch("states and layer disagree on d")
        out = X + 0.0  # a copy, with -0.0 made 0.0 as in the softmax's weighted sum
        out[:, lay.tokens] = 0.0
        return out


def _summation_layer(lay: _Layout):
    """Layer-2 head: all input-input logits are exactly zero (uniform mix),
    tokens are tagged one per position with logit _GAMMA.  The value
    matrix is scaled by the known softmax denominator so the VAL slot of
    the output equals the plain sum of the per-position values."""
    d = lay.d
    z_total = math.exp(_GAMMA) + 2.0 * lay.q - 1.0
    h = np.zeros((d, d))
    h[lay.oh, lay.tag] = _GAMMA * np.eye(lay.q)
    w = np.zeros((d, d))
    w[lay.val, lay.val] = z_total
    w[lay.oh, lay.tag] = z_total * np.eye(lay.q)
    params = AttentionHeadParams(d=d, H=h, W_V=w)
    tokens = np.zeros((lay.q, d))
    tokens[:, lay.tag] = np.eye(lay.q)
    prefix = PrefixTokens(d=d, tokens=tokens, M=-_GAP, augmented=False)
    return params, prefix


def _bank_layer_params(lay: _Layout, lam: float, attended: np.ndarray) -> AttentionHeadParams:
    """The head of a _KernelBankLayer (the encoder, or decoder i): the
    positions where the (q,) bool mask attended holds are steered to their
    token banks, each suppressing its own input; every other position
    self-attends and passes through."""
    d = lay.d
    theta = lam + _GAP
    self_logit = np.where(attended, -theta, theta)
    h = np.zeros((d, d))
    h[lay.z, lay.ka] = np.eye(2)
    h[lay.oh, lay.oh] = np.diag(self_logit)
    h[lay.oh, lay.tag] = (theta + lam + _GAP) * np.eye(lay.q)
    return AttentionHeadParams(d=d, H=h, W_V=_restore_payload(lay, _carry_state(lay, np.zeros((d, d)))))


def _circle_anchors(n_points: int) -> np.ndarray:
    """The (N, 2) anchors of a full-mode head: the centres (j + 1/2) delta
    of N equal arcs of the circle, delta = 2 pi / N."""
    angle = (np.arange(n_points) + 0.5) * (2.0 * math.pi / n_points)
    return np.column_stack([np.cos(angle), np.sin(angle)])


def _window_half_width(n_points: int, lam: float) -> int:
    """Half-width w, in anchors, of the circle window over which a
    full-mode head evaluates a row (_KernelBankLayer).  The anchors are the
    centres (j + 1/2) delta, delta = 2 pi / N, so the nearest lies within
    delta / 2 of the row and the row max is at least lam cos(delta / 2).
    Anchors farther than reach = arccos(cos(delta / 2) - tau_N / lam) from
    the row sit more than tau_N below it and carry under 2^-53 of the row
    sum together (attention._reach).  The first anchor outside the window
    lies more than (w + 1/2) delta from the row, and w = ceil(reach /
    delta) + 1 keeps one anchor of slack for the rounding of the row's
    angle and its floor."""
    delta = 2.0 * math.pi / n_points
    return math.ceil(_reach(lam, n_points, 0.5 * delta) / delta) + 1


@dataclass(frozen=True)
class _KernelBankLayer:
    """A full-mode encoder or decoder head whose anchors are arithmetic.

    The paper's head attends over one bank of (lam anchor, value, tag)
    prefix tokens per position it serves.  The anchors are the centres of
    N equal arcs of the circle (_circle_anchors): anchor j at angle
    (j + 1/2) delta, delta = 2 pi / N.  A bank's values take few distinct
    values, so this layer holds the concentration lam, a read-only (L, k)
    table of them and a read-only (N,) index of small unsigned ints:
    anchor j's value in column c is table[index[j], c].  Column columns[q]
    serves position q, and a position whose entry is -1 passes through.
    The encoder's table is the weighted psi 3^-q at the 2^digits bit
    levels, column q for position q, the values hybrid's encoder stage
    writes, and its index each anchor's bit level; it has no MLP.  Decoder
    i's table is f's element i over the distinct decoded sequences, and the
    decoders share one index, each anchor's sequence.  half_width, the
    window's w, is derived once from N and lam.  prefix and params build
    the token form on demand, for export, pins and classical_head.

    Routing certificate (_bank_layer_params).  Take a row at position q
    (one-hot e_q) with sphere slot z, |z| <= 1.  If q is attended, its
    logits in the token form are lam <z, a> + 2 lam + 2 _GAP for the tokens
    of q's own bank, so the row max is at least lam + 2 _GAP; at most lam
    for any other bank's token; -(lam + _GAP) for the row's own input and 0
    for every other input.  Every term outside the own bank thus sits at
    least 2 _GAP = 1800 below the row max.  At a pass-through row the
    input's own logit lam + _GAP is the max, every token's at most lam and
    every other input's 0, so every other term sits at least _GAP = 900
    below it.  Either way those terms lie past the softmax's floor of 700
    and weigh exactly 0 (attention._softmax); the 200 to spare cover
    one-hots off by up to 200 / (2 lam + 2 _GAP).  So an attended row's
    output is the one-hot e_q and a split head over the anchors at z with
    values its bank's column, and nothing else; a pass-through row's output
    is W_V x, which is x for the states the stack feeds it (zeros in the
    token slots).

    Window certificate.  Within the split head, the row at angle theta of
    z lies in cell k = floor(theta / delta) mod N, and every anchor more
    than w = half_width (_window_half_width) cells from k is farther than
    reach from z: its logit sits more than tau_N below the row max, and all
    of them together carry under 2^-53 of the row sum.  So the row is
    evaluated over the min(2w + 1, N) anchors from k - min(w, N // 2) on
    (mod N), each once, in one path: 31 anchors at N = 4096 and
    lam = 2e5, 29 at N = 2^20 and lam = 1.9e10.  No dense (rows, N) tile
    is built; each row's logits and its window's values go to
    attention._softmax as one (n, K, 2) stack.

    attend evaluates exactly that, each attended row on its own over its
    window, the other rows copied; a NaN, infinite or zero sphere slot on
    an attended row is refused with DegenerateInput.  With t = theta / delta
    and k = floor(t), anchor k + j's logit less lam at z / |z| is
    lam (cos((t - k - j - 1/2) delta) - 1) = -2 lam sin^2((t - k - j - 1/2) pi / N),
    this haversine form exact to a few ulps of its size, at most about
    tau_N in the window, where lam <z, a> and lam cos(...) round at
    lam 2^-53 (2e-6 at lam = 1.9e10).  z / |z|, which the circle lookup
    leaves up to 1e-7 short of unit norm, scales the effective lam by
    1 / |z| against the token form's; the two agree to rounding otherwise.
    """

    layout: _Layout
    lam: float
    table: np.ndarray  # (L, k) distinct values, one column per bank
    index: np.ndarray  # (N,) table row of each anchor
    columns: np.ndarray  # (q,) table column of each position, -1: pass-through
    mlp: tuple = ()
    half_width: int = field(init=False)

    def __post_init__(self):
        self.table.setflags(write=False)
        self.index.setflags(write=False)
        object.__setattr__(self, "half_width", _window_half_width(self.index.size, self.lam))

    @property
    def params(self) -> AttentionHeadParams:
        return _bank_layer_params(self.layout, self.lam, self.columns >= 0)

    @property
    def prefix(self) -> PrefixTokens:
        lay, n = self.layout, self.index.size
        served = (self.columns >= 0).nonzero()[0]
        tokens = np.zeros((served.size, n, lay.d))
        tokens[:, :, lay.ka] = self.lam * _circle_anchors(n)
        tokens[:, :, lay.vb] = self.table[self.index, self.columns[served][:, None]]
        tokens[np.arange(served.size), :, lay.tag.start + served] = 1.0
        return PrefixTokens(d=lay.d, tokens=tokens.reshape(-1, lay.d), M=-(self.lam + _GAP), augmented=False)

    def attend(self, X: np.ndarray) -> np.ndarray:
        """The (Q, d) outputs of the head at the (Q, d) states X (see the
        class docstring); each row reads its position from its one-hot."""
        lay = self.layout
        if X.shape[1] != lay.d:
            raise DimensionMismatch("states and layer disagree on d")
        position = X[:, lay.oh].argmax(axis=1)
        column = self.columns[position]
        rows = (column >= 0).nonzero()[0]
        position, column = position[rows], column[rows]
        z = X.take(rows, axis=0)[:, lay.z]
        if not np.all(np.isfinite(z).all(axis=1) & z.any(axis=1)):
            raise DegenerateInput("an attended state's sphere slot must be finite and nonzero")
        n = self.index.size
        size = min(2 * self.half_width + 1, n)
        t = np.arctan2(z[:, 1], z[:, 0]) * (n / (2.0 * math.pi))
        cell = np.floor(t)
        offset = np.arange(-(size // 2), size - size // 2)
        logits = -2.0 * self.lam * np.sin(((t - cell)[:, None] - (offset + 0.5)) * (math.pi / n)) ** 2
        window = (cell.astype(np.intp)[:, None] + offset) % n
        values = np.empty((*window.shape, 2))
        values[:, :, 0] = self.table[self.index[window], column[:, None]]
        values[:, :, 1] = 1.0
        out = X.copy()
        out[rows] = 0.0
        out[rows, lay.oh.start + position] = 1.0
        out[rows, lay.val] = _softmax(logits, values)[0][:, 0]
        return out


# ---------------------------------------------------------------------------
# Oracle stages (hybrid mode)
# ---------------------------------------------------------------------------


def _psi_oracle(lay: _Layout, cfg: DigitConfig):
    """The encoder stage: each state's psi, weighted by 3^-q for the
    position q its one-hot holds (_position_weights)."""
    weights = _position_weights(lay.q)

    def fn(states):
        out = states.copy()
        psi = _psi(_bits(states[:, lay.val], cfg.digits), cfg.digits, lay.q)
        out[:, lay.val] = weights[states[:, lay.oh].argmax(axis=1)] * psi
        return out

    return fn


def _decoder_oracles(lay: _Layout, f, t_len: int, m: int, cfg: DigitConfig) -> list:
    """The T decoder stages, element i0 writing row i0 of f(decoded).

    The summation layer rounds each row's aggregate r its own way, but the
    build keeps them all within half a digit gap of the exact aggregate, so
    they round to its ternary mantissa round(r 3^total), as decode_sequence
    takes a float.  The stages share one cache keyed by that mantissa: a
    sequence is decoded from it, and f applied, once.  Each row reads its
    position from its own one-hot, and only the rows at element i0's
    positions are written.
    """
    base = 3 ** (lay.q * cfg.digits)

    @functools.lru_cache(maxsize=1)
    def decoded(mantissa: int) -> np.ndarray:
        out = apply_sequence_function(f, _decode(mantissa, cfg.digits, lay.q, strict=True).reshape(t_len, m + 1)).view()
        out.setflags(write=False)
        return out

    def stage(i0: int, states: np.ndarray) -> np.ndarray:
        first = i0 * (m + 1)
        out = states.copy()
        for row, q0 in enumerate(states[:, lay.oh].argmax(axis=1).tolist()):
            if first <= q0 <= first + m:
                out[row, lay.val] = decoded(round(states.item(row, lay.val) * base)).item(i0, q0 - first)
        return out

    return [functools.partial(stage, i0) for i0 in range(t_len)]


# ---------------------------------------------------------------------------
# Stack construction and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seq2SeqStack:
    """A built T+2-layer stack plus the input/output conventions around it."""

    transformer: TransformerStack
    t_len: int
    m: int
    cfg: DigitConfig
    mode: str
    layout: _Layout

    @property
    def attention_layer_count(self) -> int:
        return self.transformer.attention_layer_count

    def encode_inputs(self, s: SequenceSample) -> np.ndarray:
        """SequenceSample -> (Q, d) state array (the explicit embedding
        stage: scalar chart point or raw scalar, and one-hot)."""
        if not isinstance(s, SequenceSample):
            raise DomainError(f"a sequence must be a SequenceSample, got {type(s).__name__}")
        if (s.t_len, s.m) != (self.t_len, self.m):
            raise DomainError("sample shape does not match the built stack")
        lay = self.layout
        states = np.zeros((lay.q, lay.d))
        if self.mode == "full":
            states[:, lay.z] = _stereographic_inverse(s.flat()[:, None])
        else:
            states[:, lay.val] = s.flat()
        states[:, lay.oh] = np.eye(lay.q)
        return states

    def readout(self, outputs: np.ndarray) -> np.ndarray:
        """(Q, d) final states -> (T, m+1) output array (a copy, so the
        states can be freed)."""
        return outputs[:, self.layout.val].reshape(self.t_len, self.m + 1).copy()

    def evaluate(self, s: SequenceSample) -> np.ndarray:
        return self.readout(transformer_eval(self.transformer, self.encode_inputs(s)))

    def stage_trace(self, s: SequenceSample) -> dict:
        """Per-stage intermediate values (encoder inputs, post-layer states)."""
        states = self.encode_inputs(s)
        layers = []
        outputs = transformer_eval(self.transformer, states, record=layers)
        return {"encoded": states, "layers": layers, "outputs": self.readout(outputs)}


def build_seq2seq_transformer(
    f,
    t_len: int,
    m: int,
    cfg: DigitConfig,
    n_points: int | None = None,
    lam: float | None = None,
    mode: str = "hybrid",
) -> Seq2SeqStack:
    """Build the T+2 attention-layer stack realizing a sequence function.

    f maps a (T, m+1) coordinate array to a (T, m+1) output array.  In
    hybrid mode the digit encoder and the per-element decoders run as exact
    oracle stages around real attention layers; the T decoders share one
    decode of the aggregate, so f is called once per evaluated sequence.
    In full mode they are synthesized kernel prefixes over the circle, N =
    n_points anchors at concentration lam.  Anchor j, at angle
    (j + 1/2) 2 pi / N, has a chart point whose bit level picks its psi and
    whose rounded mantissa picks its decoded sequence.  The mantissas hit
    are counted over all 3^qD, each is decoded once, and f runs once per
    distinct decoded sequence (at most 2^qD of them), not once per anchor.
    The encoder holds the weighted psi 3^-q at the 2^digits bit levels, one
    column per position q, and an (N,) index of each anchor's level;
    decoder i holds f's element i per sequence, and the decoders share one
    (N,) index of each anchor's sequence (_KernelBankLayer).  So f enters
    the decoders' value tables only, and the stack holds two (N,) indexes
    of one or two bytes an anchor (3.4 MiB at (3, 0, 3), N = 2^20), where
    the token form holds 2 T(m+1) N tokens of width 6 + 2 T(m+1).

    Full-mode sizes come from the shape.  With qD = T(m+1) digits, the
    aggregate's ternary digits, a missing lam is 50 9^qD, so the kernel's
    width lam^-1/2 = 3^-qD / sqrt(50) is about a seventh of one digit gap;
    a missing N is 2 pi sqrt(lam) rounded up to a power of two, so the
    anchors lie at most lam^-1/2 apart.  Full mode refuses qD > 9 whatever
    sizes are passed (qD = 9 derives N = 2^20), and any N above 2^20, given
    or derived (which only an explicit lam above the rule's asks for), with
    InstanceTooLarge.  Contract: at the default sizes every output is
    within 1e-2 of reference_seq2seq when each input coordinate lies at
    least 2 delta = 4 lam^-1/2 from every digit jump j / 2^digits; the
    excluded set has measure at most 4 delta (2^digits - 1) per coordinate.
    Explicit sizes below the rule carry no stated contract.  Hybrid mode
    derives no sizes, but refuses invalid ones it is given.
    """
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
    n_points = None if n_points is None else _size(n_points, "n_points")
    lam = None if lam is None else _positive(lam, "lam")
    if mode not in ("hybrid", "full"):
        raise DomainError(f"mode must be 'hybrid' or 'full', got {mode!r}")
    width = t_len * (m + 1)
    total = width * cfg.digits
    lay = _Layout(q=width)
    if mode == "full":
        if total > _FULL_DIGITS:
            raise InstanceTooLarge(f"full mode admits T(m+1) digits <= {_FULL_DIGITS} ternary digits, got {total}")
        lam = _FULL_LAM * 9.0**total if lam is None else lam
        if n_points is None:
            n_points = 1 << (math.ceil(2.0 * math.pi * math.sqrt(lam)) - 1).bit_length()
        if n_points > 2**20:
            raise InstanceTooLarge(f"full mode admits N <= 2^20 anchors, got N = {n_points} at lam = {lam!r}")
    if mode == "hybrid" and _summation_error_bound(width) >= 0.5 * 3.0**-total:
        # The decoder rounds the aggregate to the nearest ternary mantissa,
        # so the summation error must stay under half a digit gap.
        raise InstanceTooLarge(
            f"hybrid mode: {total} ternary digits leave a half digit gap below "
            "the summation layer's rounding error"
        )

    if mode == "hybrid":
        # The oracle writes each state's weighted psi, the value the full
        # encoder's table holds for its bit level and position.
        encoder, lookup = _PassThroughLayer(lay, mlp=(_psi_oracle(lay, cfg),)), []
        decoders = [_PassThroughLayer(lay, mlp=(decoder,)) for decoder in _decoder_oracles(lay, f, t_len, m, cfg)]
    else:
        # Anchor j sits at angle (j + 1/2) 2 pi / N; its chart point fixes its
        # bit level (psi) and its rounded mantissa, which decodes to its
        # sequence (f).  The hit mantissas are counted over all 3^qD, each
        # decoded once, and f runs once per distinct sequence: f enters the
        # decoder tables only, and every other array is the same for any f.
        anchors = _circle_anchors(n_points)
        chart = np.where(1.0 - anchors[:, 1] < 1e-12, 1.0, np.clip(_stereographic(anchors)[:, 0], 0.0, 1.0))
        level = _bits(chart, cfg.digits).astype(np.min_scalar_type(2**cfg.digits - 1))
        mantissa = _mantissa(chart, total).astype(np.intp)
        hit = np.bincount(mantissa, minlength=3**total).nonzero()[0]
        sequences, of_hit = np.unique(_decode(hit, cfg.digits, width, strict=False), axis=0, return_inverse=True)
        outputs = np.array([apply_sequence_function(f, e.reshape(t_len, m + 1)) for e in sequences])
        of_mantissa = np.zeros(3**total, dtype=np.min_scalar_type(len(sequences) - 1))
        of_mantissa[hit] = of_hit.reshape(-1)
        sequence = of_mantissa[mantissa]  # each anchor's row of outputs, shared by the decoders
        # The encoder's column q is psi 3^-q at each bit level.
        psi = _psi(np.arange(2**cfg.digits), cfg.digits, width)[:, None] * _position_weights(width)
        encoder = _KernelBankLayer(lay, lam, psi, level, columns=np.arange(width))
        lookup = _stage_sphere_lookup(lay)
        decoders = []
        for i0 in range(t_len):
            columns = np.full(width, -1, dtype=np.intp)
            columns[i0 * (m + 1) : (i0 + 1) * (m + 1)] = np.arange(m + 1)
            decoders.append(_KernelBankLayer(lay, lam, outputs[:, i0], sequence, columns))

    sum_params, sum_prefix = _summation_layer(lay)
    summation = TransformerLayer(params=sum_params, prefix=sum_prefix, mlp=tuple(_stage_affine_recover(lay) + lookup))
    layers = (encoder, summation, *decoders)
    return Seq2SeqStack(transformer=TransformerStack(layers=layers), t_len=t_len, m=m, cfg=cfg, mode=mode, layout=lay)
