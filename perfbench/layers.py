"""Per-layer metrics of a traced round, computed from its span table.

The layers are vmfhead's modules.  `per_layer` computes, for one traced
round, every per-layer metric BENCHMARK.json lists except the three
`trace.*` ones, which run.py takes from whole rounds (a layer the workload
does not reach reads 0).
"""

from __future__ import annotations

from tracing import SpanTable

_TIMES = [
    "sphere.equal_area_partition",
    "sphere.cap_colatitude",
    "specialfn.reg_inc_beta",
    "sphere.uniform_sphere_sample",
    "prefix.synthesize_prefix",
    "prefix.target_eval",
    "prefix.sup_error_estimate",
    "attention.split_head_batch",
    "attention.classical_head",
    "attention.transformer_eval",
    "seq2seq.decode_sequence",
    "seq2seq.psi_strided",
    "specialfn.bessel_ratio",
    "specialfn.log_bessel_i",
    "kernel.kernel_norm",
    "kernel.kernel_eigenvalue",
    "kernel.convolve_vmf",
    "kernel.vmf_log_normalizer",
]
_CALLS = [
    "sphere.equal_area_partition",
    "sphere.cap_colatitude",
    "specialfn.reg_inc_beta",
    "attention.split_head_batch",
    "attention.classical_head",
    "seq2seq.decode_sequence",
    "specialfn.bessel_ratio",
]
_SELF = ["prefix.synthesize_prefix", "prefix.sup_error_estimate"]
# (span name, metric prefix, tags): one time per tag of the span
_TAGGED = [
    ("attention.classical_head", "attention.classical_head", ("encoder", "summation", "decoder")),
    ("seq2seq.build_seq2seq_transformer", "seq2seq.build_seq2seq_transformer", ("full", "hybrid")),
    ("seq2seq.evaluate", "seq2seq.evaluate", ("full", "hybrid")),
    ("verify.run_suite", "verify", ("kernel", "bounds", "attention", "prefix", "seq2seq")),
]

def per_layer(t: SpanTable) -> dict[str, float]:
    out: dict[str, float] = {}
    for n in _TIMES:
        out[f"{n}.s"] = t.seconds(n)
    for n in _CALLS:
        out[f"{n}.calls"] = t.calls(n)
    for n in _SELF:
        out[f"{n}.self_s"] = t.self_seconds(n)
    for n, base, tags in _TAGGED:
        for tag in tags:
            out[f"{base}.{tag}.s"] = t.seconds(n, tag=tag)
    out["prefix.target_eval.points"] = t.work_total("prefix.target_eval")
    head_s = t.seconds("attention.split_head_batch")
    out["attention.split_head_batch.pairs_per_s"] = t.work_total("attention.split_head_batch") / head_s if head_s > 0 else 0.0
    # stack time outside the heads and the oracle stages' decode / encode calls
    out["attention.mlp.self_s"] = t.self_seconds("attention.transformer_eval")
    out["bounds.s"] = t.seconds(*[n for n in t.names if n.startswith("bounds.")])
    return out
