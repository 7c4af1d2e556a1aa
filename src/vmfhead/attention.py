"""Attention heads built from exponential kernels on the sphere.

Three head flavors share the same control-point data and one softmax
evaluator (_softmax): the core head (a bare kernel sum), the split head
(softmax-normalized), and the classical head (a softmax over prefix tokens
and inputs, with fixed H and W_V).  A block-structured "universal" head
embeds the sphere, the attention keys, and the values into orthogonal
subspaces of a 3(m+1) (optionally +1) dimensional space so that the classical
head reproduces the split head exactly as the input-input suppression
constant M goes to -inf.  A sharp head skips the anchors certified to carry
under one rounding unit of its softmax (_head_softmax).  A stack is a tuple
of layers, each evaluated by its own attend.  A TransformerLayer is the
classical head over its prefix tokens.  Heads whose token form is certified
evaluate the certified form: a universal artifact its split head times
S / (S + e^M) (universal_head_batch), a full-mode sequence encoder or decoder
the split head over its shared circle anchors with a value column per
bank, each row over the anchors of its own circle window, and a
hybrid-mode pass-through head W_V x.  A TransformerLayer's MLP stages are
affine pairs; a pass-through head's are functions of the state array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, DomainError, _flag, _positive, _real, _reals, _size
from .sphere import (
    Partition,
    _colat_area,
    as_unit_vector,
    cap_colatitude,
    check_finite_unit,
    equal_area_partition,
    surface_area,
)

__all__ = [
    "ControlPoints",
    "AttentionHeadParams",
    "PrefixTokens",
    "TransformerLayer",
    "TransformerStack",
    "core_head",
    "core_head_log",
    "split_head",
    "split_head_batch",
    "log_prefix_mass",
    "universal_head_batch",
    "classical_head",
    "lift",
    "project",
    "build_universal_head",
    "assemble_prefix_tokens",
    "universal_control_points",
    "default_suppression",
    "transformer_eval",
    "export_prefix_artifact",
    "import_prefix_artifact",
]


@dataclass(frozen=True)
class ControlPoints:
    """Kernel control points: unit anchors p_alpha and output values p_beta.

    p_alpha rows live on S^m; p_beta is an (N, k) array for any k >= 1, row
    j the value attached to anchor j (k = m+1 for a map S^m -> R^(m+1), one
    column per bank for heads that share their anchors).  lam is the
    shared concentration.  Both arrays are held C-contiguous (a strided
    view is copied once here), so a pruned group's gather copies only the
    rows it takes.
    """

    m: int
    lam: float
    p_alpha: np.ndarray
    p_beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _size(self.m, "m"))
        object.__setattr__(self, "lam", _positive(self.lam, "lam"))
        pa = np.ascontiguousarray(_reals(self.p_alpha, "p_alpha", None, error=DegenerateInput))
        pb = np.ascontiguousarray(_reals(self.p_beta, "p_beta"))
        if pa.ndim != 2 or pa.shape[0] < 1:
            raise DomainError("control points must be a nonempty (N, m+1) array")
        if pa.shape[1] != self.m + 1:
            raise DimensionMismatch("p_alpha width must be m+1")
        if pb.ndim != 2 or pb.shape[0] != pa.shape[0] or pb.shape[1] < 1:
            raise DimensionMismatch("p_beta must be an (N, k) array, k >= 1, with p_alpha's N rows")
        check_finite_unit(pa)
        pa.setflags(write=False)
        pb.setflags(write=False)
        object.__setattr__(self, "p_alpha", pa)
        object.__setattr__(self, "p_beta", pb)

    @property
    def n_points(self) -> int:
        return self.p_alpha.shape[0]

    @cached_property
    def _blocks(self) -> "_BlockIndex | None":
        """The pruning index of the anchors, or None where pruning cannot
        pay; built on first use and held by this object alone, so it goes
        when the object does."""
        return _block_index(self)

    @cached_property
    def _zero_shift(self) -> bool:
        """Whether this head's softmax needs no max shift (_softmax_rows).
        Its logits lam <x, p> lie in [-lam, lam], queries and anchors being
        unit vectors, so with lam <= 350 every weight e^l is a normal double
        and with lam + ln(N max(1, max |p_beta|)) <= 700 the row sum and the
        weighted sums stay finite."""
        scale = max(1.0, float(np.max(np.abs(self.p_beta))))
        return self.lam <= _ZERO_SHIFT_LAM and self.lam + math.log(self.n_points * scale) <= 700.0


@dataclass(frozen=True)
class AttentionHeadParams:
    """Fixed (pretrained) attention matrices of one head."""

    d: int
    H: np.ndarray
    W_V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _size(self.d, "d"))
        for name in ("H", "W_V"):
            a = _reals(getattr(self, name), name)
            if a.shape != (self.d, self.d):
                raise DimensionMismatch("H and W_V must be d x d")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class PrefixTokens:
    """Assembled prefix tokens plus the suppression constant they assume."""

    d: int
    tokens: np.ndarray
    M: float
    augmented: bool

    def __post_init__(self):
        object.__setattr__(self, "d", _size(self.d, "d"))
        t = _reals(self.tokens, "tokens")
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] != self.d:
            raise DimensionMismatch("tokens must be a nonempty (N, d) array")
        object.__setattr__(self, "M", _suppression(self.M))
        object.__setattr__(self, "augmented", _flag(self.augmented, "augmented"))
        t.setflags(write=False)
        object.__setattr__(self, "tokens", t)

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class TransformerLayer:
    """One prefixed attention head followed by its MLP stages."""

    params: AttentionHeadParams
    prefix: PrefixTokens
    mlp: tuple = ()

    def __post_init__(self):
        if self.prefix.d != self.params.d:
            raise DimensionMismatch("prefix and head parameters disagree on d")
        width = self.params.d
        for stage in self.mlp:
            try:
                a, b = stage
            except (TypeError, ValueError):
                raise DimensionMismatch("an MLP stage must be an affine pair (A, b)") from None
            a, b = _reals(a, "MLP stage A"), _reals(b, "MLP stage b")
            if a.ndim != 2 or a.shape[1] != width or b.shape != (a.shape[0],):
                raise DimensionMismatch("MLP stage shapes do not chain")
            width = a.shape[0]
        if width != self.params.d:
            raise DimensionMismatch("MLP must end back at the head dimension")

    def attend(self, X: np.ndarray) -> np.ndarray:
        """The (T, d) outputs of the head at the (T, d) finite inputs X: the
        one kernel behind classical_head and transformer_eval.

        Position k attends over the N prefix tokens and the T inputs, c
        ranging over [tokens; X], with logits (x_k H) c and value rows
        [W_V c | 1], in one softmax product (_softmax).
        """
        if X.shape[1] != self.params.d:
            raise DimensionMismatch("inputs, prefix, and params disagree on d")
        tokens, W_V = self.prefix.tokens, self.params.W_V
        # np.dot: the BLAS product of @ with less call overhead, felt by tiny heads
        XH = np.dot(X, self.params.H)
        n, t = tokens.shape[0], X.shape[0]
        logits = np.empty((t, n + t))
        np.matmul(XH, tokens.T, out=logits[:, :n])
        logits[:, n:] = np.dot(XH, X.T)
        values = np.empty((n + t, X.shape[1] + 1))
        np.matmul(tokens, W_V.T, out=values[:n, :-1])
        np.matmul(X, W_V.T, out=values[n:, :-1])
        values[:, -1] = 1.0
        return _softmax(logits, values)[0]


@dataclass(frozen=True)
class TransformerStack:
    """Alternating attention heads and element-wise MLP stages; an MLP
    applies ReLU between consecutive affine maps.  A layer is anything with
    attend(X) and mlp: a TransformerLayer, or a sequence-stack layer that
    evaluates its certified form (a full-mode kernel bank or a hybrid-mode
    pass-through head)."""

    layers: tuple

    @property
    def attention_layer_count(self) -> int:
        return len(self.layers)


# ---------------------------------------------------------------------------
# Head evaluation
# ---------------------------------------------------------------------------


# A shifted logit below this floor is raised to it before exp.  e^-700 is
# still a normal double, so exp never takes its slow subnormal path, and a
# raised term weighs under e^-700 of a row sum that is at least 1: all of
# them together move the sum far below one rounding unit.
_LOGIT_FLOOR = -700.0
_FLOOR_WEIGHT = float(np.exp(_LOGIT_FLOOR))

# Largest concentration at which a ControlPoints head may skip the max
# shift (ControlPoints._zero_shift): its weights are then at least e^-350,
# so even their products with values down to 1e-156 stay normal.
_ZERO_SHIFT_LAM = 350.0

# Angular slack added to every block radius.  It covers the rounding of the
# arccos calls behind the pruning bounds (at most about 1e-7 rad, near 0
# and pi), so the bounds hold for the computed angles.
_ANGLE_SLACK = 1e-6

# Anchors per block of the pruning index.
_BLOCK_SIZE = 64

# Cost of pruned evaluation in units of one tiled dense logit and exp: a
# kept anchor costs about _GATHER_COST (gathering its anchor and value rows
# dominates), and each query group a fixed _GROUP_COST of numpy calls.
# Measured with numpy 2.4 on x86-64 over m in {1, 2, 3, 8}, N up to 65536
# and lam from 1.5 to 2000 tau_N, at 64 and 256 queries per call with the
# index build included: the pair with the least mean slowdown against the
# faster path; see _pruning_pays.
_GATHER_COST = 4
_GROUP_COST = 8192

# Bytes of float64 logits in one query tile of _softmax_rows, and of block
# angles in one tile of a pruned head's setup (_head_softmax): small enough
# for a tile to stay in a core's L2 cache through the passes over it, large
# enough that the per-tile numpy calls do not dominate (measured with
# numpy 2.4 on x86-64 with 2 MiB of L2 per core).
_TILE_BYTES = 3 << 18


def _pruning_pays(kept: float, n_points: int) -> bool:
    """Whether evaluating `kept` anchors pruned, per query, beats a dense
    evaluation of all n_points."""
    return _GATHER_COST * kept + _GROUP_COST < n_points


def _softmax(logits: np.ndarray, values: np.ndarray, shift: bool = True) -> tuple:
    """(weighted value mean, row sum, shift) of the softmax rows of an
    (n, K) logit tile over (K, k + 1) value rows [v | 1], or over an
    (n, K, k + 1) stack of them, one per row: the one evaluator behind every
    head.  The logits become the weights e^(logits - shift) in place, and
    one product with [v | 1] gives the weighted sums and the row sum; with a
    stack, each row's product is its own matrix product in a batched
    matmul, so no row's result depends on the other rows.

    shift False means the caller certifies that no shift is needed
    (ControlPoints._zero_shift).  Otherwise each row is shifted by its max
    and the shifted logits are floored at _LOGIT_FLOOR.  A floored term
    weighs exactly 0: the floor's weight is taken off every weight, which
    leaves each weight above 2^-955 (a shifted logit above about -662) bit
    for bit as it was, so no floored weight reaches the product, where its
    products with small values would be subnormal, and a stack head whose
    other terms all sit below the floor passes its inputs through exactly.
    """
    row_max = 0.0
    if shift:
        row_max = logits.max(axis=1)
        logits -= row_max[:, None]
        np.maximum(logits, _LOGIT_FLOOR, out=logits)
    np.exp(logits, out=logits)
    if shift:
        logits -= _FLOOR_WEIGHT
    acc = logits @ values if values.ndim == 2 else np.matmul(logits[:, None], values)[:, 0]
    return acc[:, :-1] / acc[:, -1:], acc[:, -1], row_max


class _BlockIndex(NamedTuple):
    """Anchors grouped by the cells of a coarse zonal partition: block b
    holds the anchors order[offsets[b]:offsets[b+1]], all within radii[b]
    of the unit vector centers[b].  Queries are grouped by the cells of
    `groups`, chosen with the index (_block_index)."""

    groups: Partition
    order: np.ndarray
    offsets: np.ndarray
    centers: np.ndarray
    radii: np.ndarray


def _reach(lam: float, n_points: int, nearest):
    """arccos(cos(nearest) - tau_N / lam) elementwise, tau_N = 53 ln 2 + ln N:
    where an anchor lies within the angle nearest of a row, so its max logit
    is at least lam cos(nearest), the anchors farther than this from the
    row sit more than tau_N below it and carry under 2^-53 of its sum."""
    tau = 53.0 * math.log(2.0) + math.log(n_points)
    return np.arccos(np.clip(np.cos(nearest) - tau / lam, -1.0, 1.0))


def _block_index(cp: ControlPoints) -> _BlockIndex | None:
    """Blocks of about _BLOCK_SIZE anchors from the cells of
    equal_area_partition(m, N/64), a cell no anchor falls in giving no block.

    None where pruning cannot pay.  Where lam <= tau_N the anchors that can
    matter cover at least a hemisphere.  Above it, a query keeps about the
    cap 1 - <x, p> <= tau_N / lam widened by two block radii (estimated as
    the radius of a cap of one block's area): the reach.  The share of N
    equal-measure anchors in that cap must be small enough to beat a dense
    evaluation.

    Queries are grouped by the coarsest cells, of twice, four times, ...
    the block radius up to the reach, whose queries' kept anchors (those
    within reach + r of a cell's center, for cells of radius r) still pass
    _pruning_pays; where none do, by the blocks' own cells.
    """
    n, w = cp.n_points, surface_area(cp.m)
    n_blocks = max(1, round(n / _BLOCK_SIZE))
    block = cap_colatitude(cp.m, w / n_blocks)
    reach = float(_reach(cp.lam, n, 0.0)) + 2.0 * block
    if not reach < 0.5 * math.pi:
        return None
    if not _pruning_pays(n * _colat_area(cp.m, reach) / w, n):
        return None
    cells, width = n_blocks, 2.0 * block
    while width <= reach and _pruning_pays(n * _colat_area(cp.m, reach + width) / w, n):
        cells = max(1, round(w / _colat_area(cp.m, width)))
        width *= 2.0
    part = equal_area_partition(cp.m, n_blocks)
    cell = part._locator.locate_batch(cp.p_alpha)  # checked unit by ControlPoints
    order = np.argsort(cell, kind="stable")
    used, starts = np.unique(cell[order], return_index=True)
    dots = np.einsum("ij,ij->i", cp.p_alpha, part.centers()[cell])
    angle = np.arccos(np.clip(dots, -1.0, 1.0))
    radii = np.maximum.reduceat(angle[order], starts) + _ANGLE_SLACK
    groups = part if cells == n_blocks else equal_area_partition(cp.m, cells)
    return _BlockIndex(groups, order, np.append(starts, n), part.centers()[used], radii)


def _aligned_empty(shape: tuple, order: str = "C") -> np.ndarray:
    """np.empty(shape, order=order) of float64 whose data starts on a 64-byte
    (cache-line) boundary."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size].reshape(shape, order=order)


def _softmax_rows(cp: ControlPoints, pts: np.ndarray, rows: np.ndarray, out: tuple, kept=None) -> None:
    """Write (weighted value mean, row sum, shift) of cp's softmax over the
    anchors kept (all N where kept is None), for the queries pts[rows],
    into rows `rows` of out's three arrays: the one tiled evaluator behind
    _head_softmax.  The log normalizer of a row is shift + ln(row sum).

    The queries are walked in tiles of max(2, _TILE_BYTES // 8K) rows for
    K anchors, so a tile's (rows, K) logits stay in cache through the
    passes over them (_softmax) and no (n, K) array is ever built; where
    cp._zero_shift holds a tile takes three passes.  No tile is
    a single query: a lone query is evaluated as two copies of itself and
    a one-query remainder joins the tile before it, so a query's result
    never comes from numpy's matrix-vector path, which rounds differently
    from its matrix product.

    The tiles' logits share one buffer, allocated once per call.  A call
    of three tiles or more multiplies by a contiguous (m+1, K) copy of the
    anchors' columns, which the gemm reads faster than the transposed view
    of the (K, m+1) anchor rows; with fewer tiles the copy and its
    allocation cost about what they save, and a one- or two-tile call
    (most pruned groups) reads the view.  The two layouts give the same
    bits (TestHeadLayout).  The copy lives for the call only: held by the
    ControlPoints or its index, it would add (m+1) N doubles to every head
    kept alive.

    The logit buffer, the [values | 1] rows and the column copy start on
    64-byte boundaries (_aligned_empty).  Where np.empty put them, at the
    16-byte offsets the heap state left, the same 6 x 16384 tile step (the
    logit gemm, exp and value gemm) took about 10% longer than on a cache-line
    boundary (numpy 2.4, OpenBLAS, x86-64), so a head's speed moved with
    whatever earlier allocations left behind; the bits are the same.
    """
    mean, rowsum, shift = out
    anchors = cp.p_alpha if kept is None else np.take(cp.p_alpha, kept, axis=0)
    size = max(2, _TILE_BYTES // (8 * anchors.shape[0]))
    columns = anchors.T
    if rows.size > 2 * size + 1:
        columns = _aligned_empty(columns.shape)
        columns[...] = anchors.T
    # [values | 1], column-major: the value columns are copied in as long
    # runs, and the gemm reads this layout no slower than a row-major one
    values = _aligned_empty((anchors.shape[0], cp.p_beta.shape[1] + 1), order="F")
    values[:, -1] = 1.0
    values[:, :-1] = cp.p_beta if kept is None else np.take(cp.p_beta, kept, axis=0)
    if rows.size == 1:
        rows = rows[[0, 0]]
    buffer = _aligned_empty((min(rows.size, size + 1), anchors.shape[0]))
    for start, stop in _tiles(rows.size, size):
        tile = rows[start:stop]
        logits = np.matmul(cp.lam * pts[tile], columns, out=buffer[: tile.size])
        mean[tile], rowsum[tile], shift[tile] = _softmax(logits, values, not cp._zero_shift)


def _tiles(n: int, size: int):
    """(start, stop) of the consecutive tiles of `size` rows that cover n
    rows, a one-row remainder joining the tile before it."""
    bounds = [0, *range(size, n - 1, size), n]
    return zip(bounds, bounds[1:])


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The integers of [starts[i], ends[i]) for every i, concatenated."""
    lengths = ends - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(lengths.sum()) + shift


def _head_softmax(cp: ControlPoints, points) -> tuple:
    """((n, k) weighted value means, row sums, shifts) of the softmax head
    at an (n, m+1) batch of unit vectors, the log normalizer being shift +
    ln(row sum): the one kernel behind every ControlPoints head.

    Every evaluation goes through the tiled _softmax_rows, so memory stays
    at one cache-sized tile whatever n and N.  A head without a block index
    (_block_index) evaluates every anchor.  With one, the queries are
    sorted by their cell of the index's query grouping (_BlockIndex.groups)
    and walked in tiles of max(2, _TILE_BYTES // 8B) rows for B blocks.  In
    a tile each query gets a lower bound L on its row max from the blocks
    and keeps only blocks whose best possible logit reaches L - tau_N
    (_reach), so the dropped terms sum to under 2^-53 of the row
    sum.  The tile's queries are evaluated in groups that share their cell,
    each group over the union of the blocks its queries keep, or densely
    where that union is too large for pruning to pay (_pruning_pays); a
    lone query joins the group after it (or, last, the one before), so no
    group is a single row.
    """
    pts = _reals(points, "points", None, error=DegenerateInput)
    if pts.ndim != 2 or pts.shape[1] != cp.m + 1:
        raise DimensionMismatch("points must have shape (n, m+1)")
    check_finite_unit(pts)
    n = pts.shape[0]
    out = np.empty((n, cp.p_beta.shape[1])), np.empty(n), np.empty(n)
    blocks = cp._blocks
    if blocks is None or not n:
        _softmax_rows(cp, pts, np.arange(n), out)
        return out
    cell = blocks.groups._locator.locate_batch(pts)  # checked unit above
    by_cell = np.argsort(cell, kind="stable")
    for start, stop in _tiles(n, max(2, _TILE_BYTES // (8 * blocks.radii.size))):
        tile = by_cell[start:stop]
        theta = np.arccos(np.clip(pts[tile] @ blocks.centers.T, -1.0, 1.0))
        # Every anchor of block b lies within theta_b + r_b of x, so
        # L = lam cos(min_b (theta_b + r_b)) is at most the row max; no anchor
        # of b comes closer than theta_b - r_b, so b can reach L - tau only if
        # theta_b - r_b <= arccos(L / lam - tau / lam) (_reach).
        nearest_far = np.minimum((theta + blocks.radii).min(axis=1), math.pi)
        reach = _reach(cp.lam, cp.n_points, nearest_far)
        keep = theta - blocks.radii <= reach[:, None]
        cuts = [0]
        for cut in np.flatnonzero(np.diff(cell[tile])) + 1:
            if cut - cuts[-1] > 1 and tile.size - cut > 1:
                cuts.append(cut)
        for rows, group_keep in zip(np.split(tile, cuts[1:]), np.split(keep, cuts[1:])):
            used = np.flatnonzero(group_keep.any(axis=0))
            kept = blocks.order[_ranges(blocks.offsets[used], blocks.offsets[used + 1])]
            _softmax_rows(cp, pts, rows, out, kept if _pruning_pays(kept.size, cp.n_points) else None)
    return out


def core_head(cp: ControlPoints, x) -> np.ndarray:
    """Bare kernel sum  sum_k exp(lam <x, p_alpha_k>) p_beta_k.

    Computed as a shifted sum (_head_softmax), so intermediate terms never
    overflow; the returned linear value itself saturates to +-inf once it
    exceeds the double range (use core_head_log then).
    """
    signs, logmag = core_head_log(cp, x)
    with np.errstate(over="ignore"):
        return signs * np.exp(logmag)


def core_head_log(cp: ControlPoints, x):
    """(sign, ln|value|) per component of the core head output."""
    mean, rowsum, shift = _head_softmax(cp, as_unit_vector(x)[None, :])
    with np.errstate(divide="ignore"):
        return np.sign(mean[0]), np.log(np.abs(mean[0])) + (math.log(rowsum[0]) + shift[0])


def split_head(cp: ControlPoints, x) -> np.ndarray:
    """Softmax-weighted value average with logits lam <x, p_alpha_k>."""
    return split_head_batch(cp, as_unit_vector(x)[None, :])[0]


def split_head_batch(cp: ControlPoints, points: np.ndarray) -> np.ndarray:
    """split_head over an (n, m+1) batch of unit vectors; returns (n, m+1)."""
    return _head_softmax(cp, points)[0]


def log_prefix_mass(cp: ControlPoints, points: np.ndarray) -> np.ndarray:
    """ln sum_k exp(lam <x, p_alpha_k>), the log softmax denominator, for
    each row of an (n, m+1) batch of unit vectors."""
    _, rowsum, shift = _head_softmax(cp, points)
    return shift + np.log(rowsum)


def _as_inputs(inputs) -> np.ndarray:
    """A (T, d) array of finite input states, one state possibly a vector."""
    X = np.atleast_2d(_reals(inputs, "input states"))
    if X.ndim != 2:
        raise DimensionMismatch("inputs must be a (T, d) array or one state vector")
    return X


def classical_head(inputs, prefix: PrefixTokens, params: AttentionHeadParams):
    """Dense attention head over prefix tokens and input positions.

    Position k attends over all N prefix tokens and all T input positions
    with logits x_k^T H c and values W_V c.  Returns the (T, d) array of
    per-position outputs, from a transient TransformerLayer's attend.  It
    is the token form against which every certified form is checked: the
    universal head (universal_head_batch) and the sequence-stack layers that
    build their tokens and parameters on demand.
    """
    return TransformerLayer(params=params, prefix=prefix).attend(_as_inputs(inputs))


# ---------------------------------------------------------------------------
# Universal head construction
# ---------------------------------------------------------------------------


def lift(x, augmented: bool = False) -> np.ndarray:
    """Embed a sphere point into the first block of the head space.

    Layout (x, 0, 0) of width 3(m+1); the augmented variant appends a
    constant-1 slot that carries the input-input suppression logit.
    """
    xv, augmented = as_unit_vector(x), _flag(augmented, "augmented")
    b = xv.size
    out = np.zeros(3 * b + augmented)
    out[:b], out[3 * b :] = xv, 1.0
    return out


def project(y, block: int) -> np.ndarray:
    """Read the first block, of width block = m+1, back out of a head-space
    vector; a non-finite y, or a block wider than y, is refused."""
    y = _reals(y, "y")
    if y.ndim != 1 or _size(block, "block") > y.size:
        raise DimensionMismatch("project expects a single vector at least one block wide")
    return y[:block].copy()


def _suppression(M) -> float:
    """The suppression constant M of a universal head: finite and < 0."""
    return _real(M, "suppression constant M", high=0.0)


def build_universal_head(m: int, M: float, augmented: bool = False) -> AttentionHeadParams:
    """Fixed H and W_V whose prefixed classical head realizes any split head.

    Non-augmented (d = 3(m+1)): H has M*I on the sphere-sphere block and I
    coupling the sphere block to the key block; W_V routes the value block
    of a token to the output block and annihilates lifted inputs.  The
    augmented variant (d = 3(m+1)+1) moves the suppression to a constant
    slot so that the input-input logit is M for every input pair, not
    M <x_i, x_j>.
    """
    M, augmented = _suppression(M), _flag(augmented, "augmented")
    b = _size(m, "m") + 1
    d = 3 * b + augmented
    H = np.zeros((d, d))
    W = np.zeros((d, d))
    eye = np.eye(b)
    H[0:b, b : 2 * b] = eye
    if augmented:
        H[d - 1, d - 1] = M
    else:
        H[0:b, 0:b] = M * eye
    W[0:b, 2 * b : 3 * b] = eye
    return AttentionHeadParams(d=d, H=H, W_V=W)


def assemble_prefix_tokens(cp: ControlPoints, M: float, augmented: bool = False) -> PrefixTokens:
    """Tokens (0, lam * p_alpha, p_beta[, 0]) matching the universal head."""
    b, augmented = cp.m + 1, _flag(augmented, "augmented")
    if cp.p_beta.shape[1] != b:
        raise DimensionMismatch("the universal head takes values of width m+1")
    d = 3 * b + augmented
    tokens = np.zeros((cp.n_points, d))
    tokens[:, b : 2 * b] = cp.lam * cp.p_alpha
    tokens[:, 2 * b : 3 * b] = cp.p_beta
    return PrefixTokens(d=d, tokens=tokens, M=M, augmented=augmented)


def universal_control_points(prefix: PrefixTokens, params: AttentionHeadParams, m: int, lam: float) -> ControlPoints:
    """The inverse of assemble_prefix_tokens: p_alpha the key block over lam,
    p_beta the value block.  Refused with DomainError unless (prefix,
    params) is universal: H and W_V are build_universal_head(m, M,
    augmented) bit for bit, and the tokens' query block (and, augmented,
    their last slot) is zero."""
    universal = build_universal_head(m, prefix.M, prefix.augmented)
    matrices = params.H.tobytes(), params.W_V.tobytes()
    if prefix.d != universal.d or matrices != (universal.H.tobytes(), universal.W_V.tobytes()):
        raise DomainError("H and W_V are not the universal head build_universal_head(m, M, augmented)")
    b = m + 1
    if np.any(prefix.tokens[:, :b]) or np.any(prefix.tokens[:, 3 * b :]):
        raise DomainError("prefix tokens are not (0, lam p_alpha, p_beta): a query block or last slot is nonzero")
    key, value = prefix.tokens[:, b : 2 * b], prefix.tokens[:, 2 * b : 3 * b]
    return ControlPoints(m=m, lam=lam, p_alpha=key / _positive(lam, "lam"), p_beta=value)


def universal_head_batch(cp: ControlPoints, points, M: float) -> np.ndarray:
    """The (n, m+1) projected outputs of the universal classical head over
    cp's prefix tokens (assemble_prefix_tokens) at an (n, m+1) batch of
    unit vectors, each its own one-input sequence: split * S / (S + e^M),
    S the prefix mass at x (log_prefix_mass), from one _head_softmax call.
    """
    M = _suppression(M)
    mean, rowsum, shift = _head_softmax(cp, points)
    # e^(M - ln S) overflows only where S e^-M < e^-709; the output is then
    # 0, against an exact value below |mean| e^-709
    with np.errstate(over="ignore"):
        return mean / (1.0 + np.exp(M - shift - np.log(rowsum)))[:, None]


def default_suppression(lam: float, n_points: int, extra: float = 30.0) -> float:
    """Default M = -(lam + extra + ln N): the spurious input mass is then at
    most e^-extra of the smallest possible prefix mass N e^-lam."""
    return -(_positive(lam, "lam") + _positive(extra, "extra") + math.log(_size(n_points, "n_points")))


# ---------------------------------------------------------------------------
# Transformer stacks
# ---------------------------------------------------------------------------

def _apply_mlp(X: np.ndarray, stages) -> np.ndarray:
    """X through the stages: functions of the (T, d) state array (a hybrid
    stack's exact stages) and affine pairs, a ReLU between consecutive pairs."""
    prev_affine = False
    for stage in stages:
        if callable(stage):
            X = np.asarray(stage(X), dtype=np.float64)
            prev_affine = False
            continue
        A, b = stage
        if prev_affine:
            X = np.maximum(X, 0.0)
        X = X @ np.asarray(A).T + np.asarray(b)
        prev_affine = True
    return X


def transformer_eval(stack: TransformerStack, inputs, record: list | None = None) -> np.ndarray:
    """Run inputs through alternating attention heads and element-wise MLPs
    and return the (T, d) array of final states.

    Each head is its layer's attend: for a TransformerLayer the classical
    head over its prefix tokens and the inputs.  When a record list is
    given, one {"attention", "after_mlp"} dict of (T, d) state arrays is
    appended to it per layer.
    """
    X = _as_inputs(inputs)
    for layer in stack.layers:
        X = attention = layer.attend(X)
        if layer.mlp:
            X = _apply_mlp(X, layer.mlp)
        if record is not None:
            record.append({"attention": attention, "after_mlp": X})
    return X


# ---------------------------------------------------------------------------
# Prefix artifact serialization (bit-exact via decimal strings)
# ---------------------------------------------------------------------------


def _enc_mat(a: np.ndarray):
    return [[repr(float(v)) for v in row] for row in np.atleast_2d(a)]


def _dec_mat(rows) -> np.ndarray:
    """A finite 2-D array from artifact rows: a nonempty list of lists of
    decimal strings, the form export_prefix_artifact writes.  A string row,
    or an entry that is a JSON number, bool or null, is refused."""
    if not (isinstance(rows, list) and rows and all(type(r) is list and all(type(v) is str for v in r) for r in rows)):
        raise DomainError("artifact matrices must be nonempty lists of rows of decimal strings")
    try:
        return _reals([[float(v) for v in row] for row in rows], "artifact matrix")
    except ValueError:
        raise DomainError("artifact matrix has non-numeric entries") from None


def export_prefix_artifact(
    prefix: PrefixTokens, params: AttentionHeadParams, m: int, lam: float
) -> str:
    """JSON artifact for a prefix + head pair; doubles are encoded as
    repr strings so the round trip is bit-exact.  m and lam are checked as
    import_prefix_artifact checks them."""
    payload = {
        "schema": "vmfhead-prefix-v1",
        "d": prefix.d,
        "m": _size(m, "m"),
        "lambda": repr(_positive(lam, "lambda")),
        "M": repr(float(prefix.M)),
        "augmented": prefix.augmented,
        "tokens": _enc_mat(prefix.tokens),
        "H": _enc_mat(params.H),
        "W_V": _enc_mat(params.W_V),
    }
    return json.dumps(payload)


def import_prefix_artifact(text: str):
    """Inverse of export_prefix_artifact; returns (prefix, params, m, lam)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"prefix artifact is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != "vmfhead-prefix-v1":
        raise DomainError("unrecognized prefix artifact schema")
    try:
        d, m = _size(payload["d"], "d"), _size(payload["m"], "m")
        rows = payload["tokens"], payload["H"], payload["W_V"], [[payload["M"], payload["lambda"]]]
        augmented = payload["augmented"]
    except KeyError as exc:
        raise DomainError(f"prefix artifact has no {exc.args[0]!r} entry") from None
    tokens, H, W, scalars = map(_dec_mat, rows)
    if tokens.shape[1] != d or H.shape != (d, d) or W.shape != (d, d):
        raise DomainError("artifact dimensions are inconsistent")
    M, lam = scalars[0].tolist()
    prefix = PrefixTokens(d=d, tokens=tokens, M=M, augmented=augmented)
    params = AttentionHeadParams(d=d, H=H, W_V=W)
    return prefix, params, m, _positive(lam, "lambda")
