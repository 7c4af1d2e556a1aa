"""Assembly of the T+2 attention-layer sequence-to-sequence stack.

The stack operates on q = T(m+1) "virtual positions", one scalar
coordinate each, in states of width 6 + 2q.  Each prefix token's one-hot
tag addresses its position and is also its payload: the values restore
the position's one-hot from it.  Layer 1 applies the digit encoder to
every coordinate (one shared bank of control points per position); its
MLP stages apply the per-coordinate contraction weight 3^-p and the
per-element positional weight 3^-(i-1)(m+1).  Layer 2 sums the weighted
values across positions with exactly uniform attention over inputs,
producing the aggregate scalar at every position.  Layers 3..T+2 hold one
decoder head per element, with token groups tagged to that element's
positions.  The encoder and the decoders share one token form
(_bank_layer_params): a one-hot-keyed diagonal logit suppresses an
attended row's own input and lets every other position attend to itself
and pass its state through bit-exactly.

Two build modes share this skeleton.  "hybrid" keeps the attention wiring
(the summation layer is the piece under test) but evaluates the digit
encoder and the decoders exactly inside oracle stages.  The heads before
those stages only self-attend: each evaluates its certified form W_V x,
builds its token form on demand and holds no arrays (_PassThroughLayer).
"full" synthesizes the encoder and decoder heads as kernel prefixes over
the circle, embedding scalars into S^1 by the inverse stereographic map;
each such head holds lam and its banks as value columns, and builds its
token form on demand (_KernelBankLayer).  Its anchors are the centres of
N equal arcs, so a row's softmax mass lies in the window of 2w + 1
anchors around the arc that holds it, w = ceil(reach / delta) + 1 for
delta = 2 pi / N and reach = arccos(cos(delta / 2) - tau_N / lam): the
anchors past it carry under 2^-53 of the row sum.  Each row is evaluated
over its window, its logits taken from its angle by arithmetic, so the
cost of a sequence does not grow with N (31 anchors a row at N = 4096
and lam = 2e5, 29 at N = 2^20 and lam = 1.9e10).
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
from ..sphere import equal_area_partition
from .encoding import (
    DigitConfig,
    SequenceSample,
    _bits,
    _decode,
    _mantissa,
    _psi,
    apply_sequence_function,
    relaxed_decode,
)

__all__ = ["Seq2SeqStack", "build_seq2seq_transformer"]

_GAP = 900.0  # logit margin that underflows exp() entirely in doubles
_GAMMA = 4.0  # the summation layer's one-hot logit
_LOOKUP_KNOTS = 2048  # knots of the full-mode circle-embedding MLP
_UNIT_ROUNDOFF = 2.0**-53


def _summation_error_bound(q: int) -> float:
    """First-order bound on |VAL - R| after the summation layer over q
    positions (R < 1), in roundings: 4 per encoded value, 4 for the value
    scale, 2 for the weight e^-gamma and its product with a value, q for
    the weighted sum, 2q for the row sum of 2q terms, 1 for their quotient
    and 1 for the decoder's rescale, with one to spare."""
    return (3 * q + 13) * _UNIT_ROUNDOFF


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
# MLP stage builders (exact ReLU gating and piecewise-linear lookups)
# ---------------------------------------------------------------------------


def _stage_scale_by_position(lay: _Layout, factors: np.ndarray):
    """Two affine maps with a ReLU between: VAL <- factor[q] * VAL at each
    position, with the factor selected by the position one-hot.

    Gate algebra: ReLU(VAL - 1 + OH_q) equals VAL exactly when OH_q = 1 and
    0 when OH_q = 0, because VAL stays in [0, 1).  The one-hot rides along
    on nonnegative lanes.
    """
    q, d = lay.q, lay.d
    hidden = 2 * q
    a1 = np.zeros((hidden, d))
    b1 = np.zeros(hidden)
    a1[:q, lay.val] = 1.0
    a1[:q, lay.oh] = np.eye(q)
    b1[:q] = -1.0
    a1[q : 2 * q, lay.oh] = np.eye(q)
    a2 = np.zeros((d, hidden))
    b2 = np.zeros(d)
    a2[lay.val, :q] = factors
    a2[lay.oh, q : 2 * q] = np.eye(q)
    return [(a1, b1), (a2, b2)]


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


def _kernel_tokens(lay: _Layout, anchors: np.ndarray, value_bank: dict[int, np.ndarray], lam: float) -> PrefixTokens:
    """One bank of (anchor, value) tokens per virtual position in value_bank,
    tagged with that position (encoder: every position with the digit-map
    values; decoder: the element's positions with their coordinate's
    decoder outputs): the token form of a _KernelBankLayer."""
    n = anchors.shape[0]
    qs = sorted(value_bank)
    tokens = np.zeros((len(qs) * n, lay.d))
    for idx, q0 in enumerate(qs):
        rows = slice(idx * n, (idx + 1) * n)
        tokens[rows, lay.ka] = lam * anchors
        tokens[rows, lay.vb] = value_bank[q0]
        tokens[rows, lay.tag.start + q0] = 1.0
    return PrefixTokens(d=lay.d, tokens=tokens, M=-(lam + _GAP), augmented=False)


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
    prefix tokens per position it serves (_kernel_tokens), and the encoder's
    banks are identical.  The anchors are the N centres of the circle
    partition, equal_area_partition(1, N): anchor j at angle (j + 1/2)
    delta, delta = 2 pi / N.  This layer holds the concentration lam and a
    read-only (N, k) array of values, one column per distinct bank: column
    columns[q] serves position q, and a position whose entry is -1 passes
    through.  half_width, the window's w, is derived once from N and lam.
    prefix and params build the token form on demand, for export, pins and
    classical_head.

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
    lam = 2e5, 29 at N = 2^20 and lam = 1.9e10.  No index is built and no
    dense (rows, N) tile either; each row's logits and its own value column
    go to attention._softmax as one (n, K, 2) stack.

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
    values: np.ndarray  # (N, k) value columns
    columns: np.ndarray  # (q,) value column of each position, -1: pass-through
    mlp: tuple = ()
    half_width: int = field(init=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        object.__setattr__(self, "half_width", _window_half_width(self.values.shape[0], self.lam))

    @property
    def params(self) -> AttentionHeadParams:
        return _bank_layer_params(self.layout, self.lam, self.columns >= 0)

    @property
    def prefix(self) -> PrefixTokens:
        banks = {q0: self.values[:, c] for q0, c in enumerate(self.columns.tolist()) if c >= 0}
        return _kernel_tokens(self.layout, equal_area_partition(1, self.values.shape[0]).centers(), banks, self.lam)

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
        n = self.values.shape[0]
        size = min(2 * self.half_width + 1, n)
        t = np.arctan2(z[:, 1], z[:, 0]) * (n / (2.0 * math.pi))
        cell = np.floor(t)
        offset = np.arange(-(size // 2), size - size // 2)
        logits = -2.0 * self.lam * np.sin(((t - cell)[:, None] - (offset + 0.5)) * (math.pi / n)) ** 2
        window = (cell.astype(np.intp)[:, None] + offset) % n
        values = np.empty((*window.shape, 2))
        values[:, :, 0] = self.values[window, column[:, None]]
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
    position q its one-hot holds."""
    weights = np.array([3.0 ** (-q0) for q0 in range(lay.q)])

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
    n_points: int = 4096,
    lam: float = 2.0e5,
    mode: str = "hybrid",
) -> Seq2SeqStack:
    """Build the T+2 attention-layer stack realizing a sequence function.

    f maps a (T, m+1) coordinate array to a (T, m+1) output array.  In
    hybrid mode the digit encoder and the per-element decoders run as exact
    oracle stages around real attention layers; the T decoders share one
    decode of the aggregate, so f is called once per evaluated sequence.
    In full mode they are synthesized kernel prefixes over the circle, N =
    n_points anchors at lam (fixed defaults 4096 and 2e5), capped to small
    instances.  Their values at the N anchors come from array passes over
    the anchors' chart points: psi at each of the 2^digits bit levels, one
    decode of the distinct rounded mantissas, and f once per distinct
    decoded sequence (at most 2^(T(m+1) digits) of them), not once per
    anchor.  The encoder and each decoder hold an (N, k) value array, k = 1
    and m+1, and no anchors (_KernelBankLayer): N (1 + T(m+1)) values in
    all, where the token form holds 2 T(m+1) N tokens of width 6 + 2 T(m+1).
    """
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
    n_points, lam = _size(n_points, "n_points"), _positive(lam, "lam")
    if mode not in ("hybrid", "full"):
        raise DomainError(f"mode must be 'hybrid' or 'full', got {mode!r}")
    width = t_len * (m + 1)
    lay = _Layout(q=width)
    if mode == "full" and (t_len > 3 or m > 1 or cfg.digits > 3):
        raise InstanceTooLarge("full mode is capped to T <= 3, m <= 1, digits <= 3")
    if mode == "hybrid" and _summation_error_bound(width) >= 0.5 * 3.0 ** -(width * cfg.digits):
        # The decoder rounds the aggregate to the nearest ternary mantissa,
        # so the summation error must stay under half a digit gap.
        raise InstanceTooLarge(
            f"hybrid mode: {width * cfg.digits} ternary digits leave a half digit gap below "
            "the summation layer's rounding error"
        )

    if mode == "hybrid":
        # The oracle folds the contraction and positional weights into its
        # exact per-position output.
        encoder, lookup = _PassThroughLayer(lay, mlp=(_psi_oracle(lay, cfg),)), []
        decoders = [_PassThroughLayer(lay, mlp=(decoder,)) for decoder in _decoder_oracles(lay, f, t_len, m, cfg)]
    else:
        # One partition of S^1 serves every head: its centers are the anchors.
        # psi is taken once per bit level, relaxed_decode once per rounded
        # mantissa and f once per decoded sequence, then gathered back.
        anchors = equal_area_partition(1, n_points).centers()
        chart = np.where(1.0 - anchors[:, 1] < 1e-12, 1.0, np.clip(_stereographic(anchors)[:, 0], 0.0, 1.0))
        psi_values = _psi(np.arange(2**cfg.digits), cfg.digits, width)[_bits(chart, cfg.digits)]
        _, first, level = np.unique(_mantissa(chart, width * cfg.digits), return_index=True, return_inverse=True)
        decoded = relaxed_decode(chart[first], t_len, m, cfg).reshape(first.size, width)
        sequences, of_mantissa = np.unique(decoded, axis=0, return_inverse=True)
        outputs = np.array([apply_sequence_function(f, e.reshape(t_len, m + 1)) for e in sequences])
        of_anchor = of_mantissa[level]  # each anchor's row of outputs
        contraction = np.array([3.0 ** (-(q0 % (m + 1)) - 1) for q0 in range(width)])
        positional = np.array([3.0 * 3.0 ** (-(q0 // (m + 1)) * (m + 1)) for q0 in range(width)])
        # The encoder's banks are all psi: one column serves every position.
        encoder = _KernelBankLayer(
            lay, lam, psi_values[:, None], columns=np.zeros(width, dtype=np.intp),
            mlp=tuple(_stage_scale_by_position(lay, contraction) + _stage_scale_by_position(lay, positional)),
        )
        lookup = _stage_sphere_lookup(lay)
        decoders = []
        for i0 in range(t_len):
            elem = slice(i0 * (m + 1), (i0 + 1) * (m + 1))
            columns = np.full(width, -1, dtype=np.intp)
            columns[elem] = np.arange(m + 1)
            decoders.append(_KernelBankLayer(lay, lam, outputs[of_anchor, i0], columns))

    sum_params, sum_prefix = _summation_layer(lay)
    summation = TransformerLayer(params=sum_params, prefix=sum_prefix, mlp=tuple(_stage_affine_recover(lay) + lookup))
    layers = (encoder, summation, *decoders)
    return Seq2SeqStack(transformer=TransformerStack(layers=layers), t_len=t_len, m=m, cfg=cfg, mode=mode, layout=lay)
