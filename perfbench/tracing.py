"""Spans around calls into vmfhead's layers, recorded from outside the library.

`bind(tracer)` replaces each traced function, in every loaded ``vmfhead``
module that holds it, by a wrapper that records one span per call: name,
parent span, start, end, an optional work count and an optional tag (the
stack role of a head call, the mode of a build, the suite of a verify run).
Calls one module makes into another (``sphere`` into ``reg_inc_beta``,
``prefix`` into ``TargetFunction.__call__``) are caught because the wrapper
replaces the name the caller looks up.  `unbind` puts every original back;
an untraced run never binds anything.

Spans stay in memory until the run ends; `SpanTable` sums them into the
per-layer metrics and `Tracer.save` writes them as arrays.
"""

from __future__ import annotations

import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, parent, start, end, work, tag)
        self._stack: list[int] = []
        self.head_roles: dict[int, str] = {}  # id(PrefixTokens) -> stack role

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, work=None, tag=None):
        """Wrapper of fn recording a span per call; work(*args, **kw) and
        tag(*args, **kw) are evaluated before the call."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            w = work(*args, **kwargs) if work is not None else 0
            t = tag(*args, **kwargs) if tag is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, start, end, w, t)

        traced.__wrapped__ = fn
        return traced

    def save(self, path):
        """Write the recorded spans as parallel arrays (.npz)."""
        sp = self.spans
        tags = sorted({s[5] for s in sp if s[5] is not None})
        tag_ids = {t: i for i, t in enumerate(tags)}
        np.savez(
            path,
            names=np.array(self.names),
            tags=np.array(tags),
            name_id=np.array([s[0] for s in sp], dtype=np.int32),
            parent=np.array([s[1] for s in sp], dtype=np.int64),
            start=np.array([s[2] for s in sp]),
            end=np.array([s[3] for s in sp]),
            work=np.array([s[4] for s in sp], dtype=np.float64),
            tag_id=np.array([tag_ids[s[5]] if s[5] is not None else -1 for s in sp], dtype=np.int32),
        )


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _rows(points) -> int:
    return np.shape(points)[0] if np.ndim(points) == 2 else 1


def _targets(tracer: Tracer):
    """(owner, attribute, span name, work, tag) for every traced callable."""
    import vmfhead.attention as att
    import vmfhead.bounds as bnd
    import vmfhead.kernel as ker
    import vmfhead.prefix as pfx
    import vmfhead.seq2seq.assembly as asm
    import vmfhead.seq2seq.encoding as enc
    import vmfhead.specialfn as spf
    import vmfhead.sphere as sph
    import vmfhead.verify as vfy

    def head_role(*a, **kw):
        return tracer.head_roles.get(id(_arg(a, kw, 1, "prefix")))

    out = [
        (sph, "equal_area_partition", "sphere.equal_area_partition", None, None),
        (sph, "cap_colatitude", "sphere.cap_colatitude", None, None),
        (sph, "uniform_sphere_sample", "sphere.uniform_sphere_sample", None, None),
        (spf, "reg_inc_beta", "specialfn.reg_inc_beta", None, None),
        (spf, "bessel_ratio", "specialfn.bessel_ratio", None, None),
        (spf, "log_bessel_i", "specialfn.log_bessel_i", None, None),
        (ker, "vmf_log_normalizer", "kernel.vmf_log_normalizer", None, None),
        (ker, "kernel_norm", "kernel.kernel_norm", None, None),
        (ker, "kernel_eigenvalue", "kernel.kernel_eigenvalue", None, None),
        (ker, "convolve_vmf", "kernel.convolve_vmf", None, None),
        (att, "split_head_batch", "attention.split_head_batch",
         lambda *a, **kw: _rows(_arg(a, kw, 1, "points")) * _arg(a, kw, 0, "cp").n_points, None),
        (att, "classical_head", "attention.classical_head", None, head_role),
        (att, "transformer_eval", "attention.transformer_eval", None, None),
        (pfx, "synthesize_prefix", "prefix.synthesize_prefix", None, None),
        (pfx, "sup_error_estimate", "prefix.sup_error_estimate", None, None),
        (pfx.TargetFunction, "__call__", "prefix.target_eval", lambda *a, **kw: _rows(_arg(a, kw, 1, "points")), None),
        (asm, "build_seq2seq_transformer", "seq2seq.build_seq2seq_transformer", None,
         lambda *a, **kw: a[6] if len(a) > 6 else kw.get("mode", "hybrid")),
        (asm.Seq2SeqStack, "evaluate", "seq2seq.evaluate", None, lambda self, *a, **kw: self.mode),
        (enc, "decode_sequence", "seq2seq.decode_sequence", None, None),
        (enc, "psi_strided", "seq2seq.psi_strided", None, None),
        (vfy, "run_suite", "verify.run_suite", None, lambda *a, **kw: _arg(a, kw, 0, "name")),
    ]
    for attr in bnd.__all__:
        fn = getattr(bnd, attr)
        if callable(fn) and not isinstance(fn, type):
            out.append((bnd, attr, f"bounds.{attr}", None, None))
    return out


def bind(tracer: Tracer):
    """Install the wrappers; returns the list of (owner, attr, original)
    replacements that `unbind` restores."""
    modules = [m for name, m in list(sys.modules.items()) if name == "vmfhead" or name.startswith("vmfhead.")]
    replaced = []
    for owner, attr, name, work, tag in _targets(tracer):
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, work, tag)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            replaced.append((owner, attr, orig))
            continue
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                replaced.append((mod, attr, orig))
    return replaced


def unbind(replaced):
    for owner, attr, orig in reversed(replaced):
        setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class SpanTable:
    """Per-name sums over the spans of one traced pass.

    A time (`seconds`) counts only the outermost spans of a name or group,
    so a function that recurses into itself, or a bound that calls another
    bound, is not counted twice; a self time subtracts the time of each
    span's direct children.
    """

    def __init__(self, tracer: Tracer, first: int = 0):
        self.names = tracer.names
        sp = tracer.spans[first:]
        n = len(sp)
        self.name = np.fromiter((s[0] for s in sp), dtype=np.int64, count=n)
        self.parent = np.fromiter((s[1] - first if s[1] >= first else -1 for s in sp), dtype=np.int64, count=n)
        self.dur = np.fromiter((s[3] - s[2] for s in sp), dtype=np.float64, count=n)
        self.work = np.fromiter((s[4] for s in sp), dtype=np.float64, count=n)
        tags = sorted({s[5] for s in sp if s[5] is not None})
        self._tag_ids = {t: i for i, t in enumerate(tags)}
        self.tag = np.fromiter((self._tag_ids[s[5]] if s[5] is not None else -1 for s in sp), dtype=np.int64, count=n)
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child

    def _select(self, names, tag=None):
        ids = [i for i, nm in enumerate(self.names) if nm in names]
        mask = np.isin(self.name, ids)
        if tag is not None:
            mask &= self.tag == self._tag_ids.get(tag, -2)
        return np.flatnonzero(mask), ids

    def _outermost(self, idx, ids):
        keep = np.ones(idx.size, dtype=bool)
        anc = self.parent[idx]
        while np.any(anc >= 0):
            live = anc >= 0
            keep[live] &= ~np.isin(self.name[anc[live]], ids)
            anc = np.where(live, self.parent[np.maximum(anc, 0)], -1)
        return idx[keep]

    def seconds(self, *names, tag=None) -> float:
        idx, ids = self._select(names, tag)
        return float(self.dur[self._outermost(idx, ids)].sum())

    def self_seconds(self, name: str) -> float:
        idx, _ = self._select((name,))
        return float(self.self_dur[idx].sum())

    def calls(self, name: str, tag=None) -> int:
        return int(self._select((name,), tag)[0].size)

    def work_total(self, name: str) -> float:
        idx, _ = self._select((name,))
        return float(self.work[idx].sum())
