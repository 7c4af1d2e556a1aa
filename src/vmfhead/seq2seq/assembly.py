"""Assembly of the T+2 attention-layer sequence-to-sequence stack.

The stack operates on q = T(m+1) "virtual positions", one scalar
coordinate each, in states of width 7 + 2q.  Each prefix token's one-hot
tag addresses its position and is also its payload: the values restore
the position's one-hot from it, and the constant from its row sum.
Layer 1 applies the digit encoder to every coordinate (one shared bank of
control points per position); its MLP stages apply the per-coordinate
contraction weight 3^-p and the per-element positional weight
3^-(i-1)(m+1).  Layer 2 sums the weighted values across positions with
exactly uniform attention over inputs, producing the aggregate scalar at
every position.  Layers 3..T+2 hold one decoder head per element: token
groups are tagged to that element's positions, every other position
attends to itself through a one-hot-keyed diagonal logit and passes its
state through bit-exactly.

Two build modes share this skeleton.  "hybrid" keeps the attention wiring
(the summation layer is the piece under test) but evaluates the digit
encoder and the decoders exactly inside oracle stages.  "full" synthesizes
the encoder and decoder heads as kernel prefixes over the circle,
embedding scalars into S^1 by the inverse stereographic map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..attention import (
    AttentionHeadParams,
    OracleStage,
    PrefixTokens,
    TransformerLayer,
    TransformerStack,
    transformer_eval,
)
from ..errors import DomainError, InstanceTooLarge
from ..sphere import _size, equal_area_partition, stereographic_batch, stereographic_inverse_batch
from .encoding import (
    DigitConfig,
    SequenceSample,
    _mantissa,
    _psi_float,
    apply_sequence_function,
    decode_sequence,
    relaxed_decode,
)

__all__ = ["Seq2SeqStack", "build_seq2seq_transformer"]

_GAP = 900.0  # logit margin that underflows exp() entirely in doubles
_UNIT_ROUNDOFF = 2.0**-53


def _summation_error_bound(q: int) -> float:
    """First-order bound on |VAL - R| after the summation layer over q
    positions (R < 1), in roundings: 4 per encoded value, 4 for the value
    scale, 2 for the weight e^-gamma and its product with a value, q for
    the weighted sum, 2q for the row sum of 2q terms, 1 for their quotient
    and 1 for the decoder's rescale, with one to spare."""
    return (3 * q + 13) * _UNIT_ROUNDOFF


@dataclass(frozen=True)
class _Layout:
    """Slot indices of the stack's state vectors."""

    q: int  # number of virtual positions, T(m+1)

    @property
    def d(self) -> int:
        return 7 + 2 * self.q

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
    def tag(self) -> slice:  # token tag block (position addressing, and the one-hot and constant W_V restores)
        return slice(5, 5 + self.q)

    @property
    def oh(self) -> slice:  # state one-hot (virtual position identity)
        return slice(5 + self.q, 5 + 2 * self.q)

    @property
    def c1(self) -> int:  # state constant 1
        return 5 + 2 * self.q

    @property
    def val(self) -> int:  # state scalar value
        return 6 + 2 * self.q


# ---------------------------------------------------------------------------
# MLP stage builders (exact ReLU gating and piecewise-linear lookups)
# ---------------------------------------------------------------------------


def _stage_scale_by_position(lay: _Layout, factors: np.ndarray):
    """Two affine maps with a ReLU between: VAL <- factor[q] * VAL at each
    position, with the factor selected by the position one-hot.

    Gate algebra: ReLU(VAL - 1 + OH_q) equals VAL exactly when OH_q = 1 and
    0 when OH_q = 0, because VAL stays in [0, 1).  One-hot and constant ride
    along on nonnegative lanes.
    """
    q, d = lay.q, lay.d
    hidden = 2 * q + 1
    a1 = np.zeros((hidden, d))
    b1 = np.zeros(hidden)
    a1[:q, lay.val] = 1.0
    a1[:q, lay.oh] = np.eye(q)
    b1[:q] = -1.0
    a1[q : 2 * q, lay.oh] = np.eye(q)
    a1[2 * q, lay.c1] = 1.0
    a2 = np.zeros((d, hidden))
    b2 = np.zeros(d)
    a2[lay.val, :q] = factors
    a2[lay.oh, q : 2 * q] = np.eye(q)
    a2[lay.c1, 2 * q] = 1.0
    return [(a1, b1), (a2, b2)]


def _stage_affine_recover(lay: _Layout, gamma: float):
    """Single affine map undoing the summation layer's one-hot mixing:
    OH <- (OH - 1) / (e^gamma - 1); VAL and C1 pass through."""
    d = lay.d
    a = np.zeros((d, d))
    b = np.zeros(d)
    scale = 1.0 / math.expm1(gamma)
    a[lay.oh, lay.oh] = scale * np.eye(lay.q)
    b[lay.oh] = -scale
    a[lay.val, lay.val] = 1.0
    a[lay.c1, lay.c1] = 1.0
    return [(a, b)]


def _stage_sphere_lookup(lay: _Layout, knots: int = 2048):
    """Piecewise-linear ReLU realization of the circle embedding of VAL.

    Writes the two sphere-slot components of the inverse stereographic map
    of VAL (exact at the knots, chordal in between) while passing VAL, the
    one-hot, and the constant through.
    """
    q, d = lay.q, lay.d
    ts = np.linspace(0.0, 1.0, knots + 1)
    comps = stereographic_inverse_batch(ts[:, None])  # (knots+1, 2)
    hidden = knots + q + 2
    a1 = np.zeros((hidden, d))
    b1 = np.zeros(hidden)
    a1[:knots, lay.val] = 1.0
    b1[:knots] = -ts[:knots]
    a1[knots : knots + q, lay.oh] = np.eye(q)
    a1[knots + q, lay.c1] = 1.0
    a1[knots + q + 1, lay.val] = 1.0
    a2 = np.zeros((d, hidden))
    b2 = np.zeros(d)
    for c in range(2):
        vals = comps[:, c]
        slopes = np.diff(vals) / np.diff(ts)
        w = np.concatenate([[slopes[0]], np.diff(slopes)])
        a2[lay.z.start + c, :knots] = w
        b2[lay.z.start + c] = vals[0]
    a2[lay.oh, knots : knots + q] = np.eye(q)
    a2[lay.c1, knots + q] = 1.0
    a2[lay.val, knots + q + 1] = 1.0
    return [(a1, b1), (a2, b2)]


# ---------------------------------------------------------------------------
# Attention layer builders
# ---------------------------------------------------------------------------


def _carry_state(lay: _Layout, w: np.ndarray) -> np.ndarray:
    """W_V entries copying the state's sphere slot, one-hot, constant and value."""
    for i in [*range(lay.z.start, lay.z.stop), *range(lay.oh.start, lay.oh.stop), lay.c1, lay.val]:
        w[i, i] = 1.0
    return w


def _restore_payload(lay: _Layout, w: np.ndarray) -> np.ndarray:
    """W_V entries adding a token's scalar, its tag as the one-hot and the
    tag's row sum as the constant: one nonzero product each, so exact."""
    w[lay.val, lay.vb] = 1.0
    w[lay.oh, lay.tag] = np.eye(lay.q)
    w[lay.c1, lay.tag] = 1.0
    return w


def _oracle_layer(lay: _Layout, stage: OracleStage) -> TransformerLayer:
    """A pass-through head before an oracle stage: every position attends to
    itself bit-exactly (diagonal one-hot logit dominates; the one all-zero
    token and all other logits underflow)."""
    d = lay.d
    h = np.zeros((d, d))
    h[lay.oh, lay.oh] = _GAP * np.eye(lay.q)
    params = AttentionHeadParams(d=d, H=h, W_V=_carry_state(lay, np.zeros((d, d))))
    prefix = PrefixTokens(d=d, tokens=np.zeros((1, d)), M=-_GAP, augmented=False)
    return TransformerLayer(params=params, prefix=prefix, mlp=(stage,))


def _encoder_layer_params(lay: _Layout, lam: float) -> AttentionHeadParams:
    """Layer-1 head: sphere-keyed kernel logits plus position tags; values
    write the token's scalar and restore one-hot and constant from its tag."""
    d = lay.d
    h = np.zeros((d, d))
    h[lay.z, lay.ka] = np.eye(2)
    h[lay.oh, lay.tag] = (2.0 * lam + _GAP) * np.eye(lay.q)
    h[lay.c1, lay.c1] = -(lam + _GAP)
    return AttentionHeadParams(d=d, H=h, W_V=_restore_payload(lay, np.zeros((d, d))))


def _summation_layer(lay: _Layout, gamma: float = 4.0):
    """Layer-2 head: all input-input logits are exactly zero (uniform mix),
    tokens are tagged one per position.  The value matrix is scaled by the
    known softmax denominator so the VAL slot of the output equals the
    plain sum of the per-position values."""
    d = lay.d
    z_total = math.exp(gamma) + 2.0 * lay.q - 1.0
    h = np.zeros((d, d))
    h[lay.oh, lay.tag] = gamma * np.eye(lay.q)
    w = np.zeros((d, d))
    w[lay.val, lay.val] = z_total
    w[lay.oh, lay.tag] = z_total * np.eye(lay.q)
    w[lay.c1, lay.tag] = z_total / (math.exp(gamma) + lay.q - 1.0)
    params = AttentionHeadParams(d=d, H=h, W_V=w)
    tokens = np.zeros((lay.q, d))
    tokens[:, lay.tag] = np.eye(lay.q)
    prefix = PrefixTokens(d=d, tokens=tokens, M=-_GAP, augmented=False)
    return params, prefix


def _decoder_layer_params(lay: _Layout, lam: float, elem_positions: list[int]) -> AttentionHeadParams:
    """Layer-(2+i) head: positions of element i are steered to their token
    groups; every other position self-attends and passes through."""
    d = lay.d
    theta = lam + _GAP
    self_logit = np.full(lay.q, theta)
    self_logit[elem_positions] = -theta
    h = np.zeros((d, d))
    h[lay.z, lay.ka] = np.eye(2)
    h[lay.oh, lay.oh] = np.diag(self_logit)
    h[lay.oh, lay.tag] = (theta + lam + _GAP) * np.eye(lay.q)
    return AttentionHeadParams(d=d, H=h, W_V=_restore_payload(lay, _carry_state(lay, np.zeros((d, d)))))


def _kernel_tokens(lay: _Layout, anchors: np.ndarray, value_bank: dict[int, np.ndarray], lam: float) -> PrefixTokens:
    """One bank of (anchor, value) tokens per virtual position in value_bank,
    tagged with that position (encoder: every position with the digit-map
    values; decoder: the element's positions with their coordinate's
    decoder outputs)."""
    n = anchors.shape[0]
    qs = sorted(value_bank)
    tokens = np.zeros((len(qs) * n, lay.d))
    for idx, q0 in enumerate(qs):
        rows = slice(idx * n, (idx + 1) * n)
        tokens[rows, lay.ka] = lam * anchors
        tokens[rows, lay.vb] = value_bank[q0]
        tokens[rows, lay.tag.start + q0] = 1.0
    return PrefixTokens(d=lay.d, tokens=tokens, M=-(lam + _GAP), augmented=False)


# ---------------------------------------------------------------------------
# Oracle stages (hybrid mode)
# ---------------------------------------------------------------------------


def _positions(lay: _Layout, states: np.ndarray) -> list[int]:
    """Each state's virtual position, read from its own one-hot."""
    return np.argmax(states[:, lay.oh], axis=1).tolist()


def _psi_oracle(lay: _Layout, cfg: DigitConfig):
    def fn(states):
        out = states.copy()
        for row, q0 in zip(out, _positions(lay, states)):
            row[lay.val] = 3.0 ** (-q0) * _psi_float(float(row[lay.val]), cfg, lay.q)
        return out

    return OracleStage(fn=fn, label="digit-encoder")


def _decoder_oracles(lay: _Layout, f, t_len: int, m: int, cfg: DigitConfig) -> list[OracleStage]:
    """The T decoder stages, element i0 writing row i0 of f(decoded).

    The summation layer rounds each row's aggregate its own way, but the
    build keeps them all within half a digit gap of the exact aggregate, so
    they round to its ternary mantissa.  The stages share one cache keyed
    by that mantissa: a sequence is decoded, and f applied, once.  A second
    cache keyed by the float skips the rounding for rows that the
    pass-through heads copied bit for bit.
    """
    total = lay.q * cfg.digits

    @functools.lru_cache(maxsize=1)
    def decoded(mantissa: float) -> np.ndarray:
        out = apply_sequence_function(f, decode_sequence(mantissa / 3**total, t_len, m, cfg).elements).view()
        out.setflags(write=False)
        return out

    @functools.lru_cache(maxsize=1)
    def outputs(r: float) -> np.ndarray:
        return decoded(_mantissa(r, total))

    def oracle(i0: int) -> OracleStage:
        def fn(states):
            out = states.copy()
            for row, q0 in zip(out, _positions(lay, states)):
                if q0 // (m + 1) == i0:
                    row[lay.val] = outputs(float(row[lay.val]))[i0, q0 % (m + 1)]
            return out

        return OracleStage(fn=fn, label=f"decoder-{i0}")

    return [oracle(i0) for i0 in range(t_len)]


# ---------------------------------------------------------------------------
# Stack construction and evaluation
# ---------------------------------------------------------------------------


def _once_per_key(keys: np.ndarray, value) -> np.ndarray:
    """np.array([value(i) for i in range(len(keys))]) for a value that
    depends on i only through keys[i]: value runs once per distinct key, at
    its first index, and the results are scattered back."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([value(i) for i in first])[inverse]


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
        stage: scalar chart point or raw scalar, one-hot, constant)."""
        if (s.t_len, s.m) != (self.t_len, self.m):
            raise DomainError("sample shape does not match the built stack")
        lay = self.layout
        states = np.zeros((lay.q, lay.d))
        if self.mode == "full":
            states[:, lay.z] = stereographic_inverse_batch(s.flat()[:, None])
        else:
            states[:, lay.val] = s.flat()
        states[:, lay.oh] = np.eye(lay.q)
        states[:, lay.c1] = 1.0
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
    In full mode they are synthesized kernel prefixes over the circle
    (budget-driven N and lambda), capped to small instances.  Their values
    at the N anchors take psi once per distinct digit string of the
    anchors' chart points and f once per distinct decoded sequence (at most
    3^(T(m+1) digits) of them), not once per anchor.
    """
    t_len, m = _size(t_len, "t_len"), _size(m, "m", 0)
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
        encoder, lookup = _oracle_layer(lay, _psi_oracle(lay, cfg)), []
        decoders = [_oracle_layer(lay, decoder) for decoder in _decoder_oracles(lay, f, t_len, m, cfg)]
    else:
        n_points = _size(n_points, "n_points")
        if not 0 < lam < math.inf:
            raise DomainError("lam must be positive and finite")
        # One partition of S^1 serves every head: its centers are the anchors.
        # psi reads a chart value only through its bit string (_bits) and
        # relaxed_decode only through its rounded ternary mantissa, so each
        # distinct one is computed once and scattered back to its anchors.
        anchors = equal_area_partition(1, n_points).centers()
        chart = np.where(1.0 - anchors[:, 1] < 1e-12, 1.0, np.clip(stereographic_batch(anchors)[:, 0], 0.0, 1.0))
        scale = 2**cfg.digits
        bits = np.minimum((chart * scale).astype(np.int64), scale - 1)
        mantissas = _mantissa(chart, width * cfg.digits)
        psi_values = _once_per_key(bits, lambda i: _psi_float(chart[i], cfg, width))
        outputs = _once_per_key(mantissas, lambda i: apply_sequence_function(f, relaxed_decode(chart[i], t_len, m, cfg)))
        decoder_values = outputs.reshape(n_points, width)
        contraction = np.array([3.0 ** (-(q0 % (m + 1)) - 1) for q0 in range(width)])
        positional = np.array([3.0 * 3.0 ** (-(q0 // (m + 1)) * (m + 1)) for q0 in range(width)])
        encoder = TransformerLayer(
            params=_encoder_layer_params(lay, lam),
            prefix=_kernel_tokens(lay, anchors, dict.fromkeys(range(width), psi_values), lam),
            mlp=tuple(_stage_scale_by_position(lay, contraction) + _stage_scale_by_position(lay, positional)),
        )
        lookup = _stage_sphere_lookup(lay)
        decoders = []
        for i0 in range(t_len):
            elem_positions = [i0 * (m + 1) + p0 for p0 in range(m + 1)]
            value_bank = {q0: decoder_values[:, q0] for q0 in elem_positions}
            decoders.append(
                TransformerLayer(
                    params=_decoder_layer_params(lay, lam, elem_positions),
                    prefix=_kernel_tokens(lay, anchors, value_bank, lam),
                    mlp=(),
                )
            )

    gamma = 4.0
    sum_params, sum_prefix = _summation_layer(lay, gamma)
    summation = TransformerLayer(params=sum_params, prefix=sum_prefix, mlp=tuple(_stage_affine_recover(lay, gamma) + lookup))
    layers = (encoder, summation, *decoders)
    return Seq2SeqStack(transformer=TransformerStack(layers=layers), t_len=t_len, m=m, cfg=cfg, mode=mode, layout=lay)
