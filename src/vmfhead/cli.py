"""Experiment command line: approximation runs, sweeps, bound tables,
invariant verification, sequence demos, and prefix artifact I/O.

Configuration comes from an optional JSON file plus flag overrides; all
randomness derives from one 64-bit seed split per stage.  Exit codes:
0 success, 2 usage/config error, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import attention as att
from . import bounds as bnd
from . import prefix as pfx
from . import verify as vfy
from .errors import VmfheadError
from .seq2seq import (
    DigitConfig,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    reference_seq2seq,
    sequence_mean,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 4

SWEEP_COLUMNS = pfx.REPORT_COLUMNS[:-1]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _cfg_value(args, cfg: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def _write_prefix_artifact(path: str, cp, augmented: bool) -> att.PrefixTokens:
    """Write the control points as prefix tokens for the universal head at
    the default suppression; returns the tokens."""
    M = att.default_suppression(cp.lam, cp.n_points)
    prefix = att.assemble_prefix_tokens(cp, M, augmented=augmented)
    params = att.build_universal_head(cp.m, M, augmented=augmented)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(att.export_prefix_artifact(prefix, params, cp.m, cp.lam))
    return prefix


def _cmd_approximate(args) -> int:
    cfg = _load_config(args.config)
    name = _cfg_value(args, cfg, "target")
    if name is None:
        print("error: no target given (use --target or a config file)", file=sys.stderr)
        return EXIT_CONFIG
    m = int(_cfg_value(args, cfg, "m", 2))
    lam = float(_cfg_value(args, cfg, "lam", 32.0))
    n_points = int(_cfg_value(args, cfg, "n", 1024))
    samples = int(_cfg_value(args, cfg, "samples", 2048))
    seed = int(_cfg_value(args, cfg, "seed", 0))
    target = pfx.make_target(name, m)
    report, cp = pfx.run_approximation(target, n_points, lam, samples, _stage_seed(seed, 1))
    report = dataclasses.replace(report, seed=seed)
    if args.out_csv:
        new = not os.path.exists(args.out_csv)
        with open(args.out_csv, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(pfx.REPORT_COLUMNS)
            writer.writerow(pfx.report_csv_row(report))
    if args.out_prefix:
        _write_prefix_artifact(args.out_prefix, cp, args.augmented)
    payload = {
        "name": report.name,
        "m": report.m,
        "lambda": report.lam,
        "N": report.n_points,
        "sup_error": report.sup_error,
        "mean_error": report.mean_error,
        "samples": report.samples,
        "seed": seed,
        "wall_time_ms": report.wall_time_ms,
    }
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    name = _cfg_value(args, cfg, "target")
    if name is None:
        print("error: no target given (use --target or a config file)", file=sys.stderr)
        return EXIT_CONFIG
    m = int(_cfg_value(args, cfg, "m", 2))
    lams = _cfg_value(args, cfg, "lambdas", [8.0, 32.0])
    ns = _cfg_value(args, cfg, "ns", [64, 256, 1024])
    if args.lambdas:
        lams = [float(v) for v in args.lambdas.split(",")]
    if args.ns:
        ns = [int(v) for v in args.ns.split(",")]
    samples = int(_cfg_value(args, cfg, "samples", 1024))
    seed = int(_cfg_value(args, cfg, "seed", 0))
    target = pfx.make_target(name, m)
    reports = []
    for lam in sorted(float(v) for v in lams):
        for n_points in sorted(int(v) for v in ns):
            report, _ = pfx.run_approximation(target, n_points, lam, samples, _stage_seed(seed, 1))
            reports.append(dataclasses.replace(report, seed=seed))
    text = pfx.reports_to_csv(reports, include_wall_time=False)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    spec = bnd.SmoothnessSpec(L=args.lipschitz, C_H=args.c_h, C_R=args.c_r, f_sup=args.f_sup)
    eps_list = [float(v) for v in args.eps.split(",")]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epsilon", "lambda", "log10_N"])
    for eps in eps_list:
        lam, nb = bnd.normalized_head_parameters(eps, spec, args.m, strict=not args.permissive)
        writer.writerow([repr(eps), repr(lam), repr(nb.log10_n)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = vfy.run_suite(args.suite)
    if args.json:
        print(vfy.to_json(summary))
    else:
        print(vfy.summary_to_text(summary))
    return EXIT_OK if summary["n_failed"] == 0 else EXIT_VERIFY


def _cmd_seq2seq_demo(args) -> int:
    cfg = DigitConfig(digits=args.digits)
    t_len, m = args.t, args.m

    fns = {"sequence-mean": sequence_mean, "identity": np.copy}
    if args.f not in fns:
        print(f"error: unknown sequence function {args.f!r}", file=sys.stderr)
        return EXIT_CONFIG
    f = fns[args.f]
    stack = build_seq2seq_transformer(f, t_len, m, cfg, n_points=args.n, lam=args.lam, mode=args.mode)
    rng = np.random.default_rng(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["sample", "stage", "position", "values"])
    for idx in range(args.count):
        s = SequenceSample(t_len, m, rng.random((t_len, m + 1)))
        trace = stack.stage_trace(s)
        r = aggregate_R(s, cfg)
        writer.writerow([idx, "input", "-", " ".join(repr(float(v)) for v in s.flat())])
        psi_vals = trace["layers"][0]["after_mlp"][:, stack.layout.val]
        writer.writerow([idx, "digit-encoded", "-", " ".join(repr(float(v)) for v in psi_vals)])
        writer.writerow([idx, "aggregate-ternary", "-", r.ternary_string()])
        writer.writerow([idx, "aggregate-value", "-", repr(r.value)])
        out = trace["outputs"]
        ref = np.stack(reference_seq2seq(f, s, cfg))
        for i in range(t_len):
            writer.writerow([idx, "output", i, " ".join(repr(float(v)) for v in out[i])])
            writer.writerow([idx, "reference", i, " ".join(repr(float(v)) for v in ref[i])])
    return EXIT_OK


def _cmd_export_prefix(args) -> int:
    cfg = _load_config(args.config)
    name = _cfg_value(args, cfg, "target", "identity")
    m = int(_cfg_value(args, cfg, "m", 2))
    lam = float(_cfg_value(args, cfg, "lam", 32.0))
    n_points = int(_cfg_value(args, cfg, "n", 256))
    target = pfx.make_target(name, m)
    prefix = _write_prefix_artifact(args.path, pfx.synthesize_prefix(target, n_points, lam), args.augmented)
    print(json.dumps({"path": args.path, "d": prefix.d, "tokens": prefix.n_tokens}))
    return EXIT_OK


def _cmd_import_prefix(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    prefix, params, m, lam = att.import_prefix_artifact(text)
    payload = {
        "path": args.path,
        "d": prefix.d,
        "m": m,
        "lambda": lam,
        "M": prefix.M,
        "augmented": prefix.augmented,
        "tokens": prefix.n_tokens,
    }
    if args.eval_target:
        target = pfx.make_target(args.eval_target, m)
        seed = _stage_seed(args.seed, 1)

        # Each point is its own one-input sequence (inputs attend to each
        # other); one layer keeps the prefix value rows across them.
        head = att.TransformerStack(layers=(att.TransformerLayer(params=params, prefix=prefix),))

        def approx(pts):
            outs = [att.transformer_eval(head, att.lift(x, prefix.augmented))[0] for x in pts]
            return np.stack([att.project(out, m + 1) for out in outs])

        sup, mean = pfx.sup_error_estimate(target, approx, args.samples, seed)
        payload["sup_error"] = sup
        payload["mean_error"] = mean
    print(json.dumps(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmfhead",
        description="Kernel attention heads on hyperspheres: synthesis, bounds, verification.",
        epilog=(
            "CSV schemas: sweep rows are (name, m, lambda, N, sup_error, mean_error, "
            "samples, seed) sorted by (lambda, N); approximate appends "
            "(..., wall_time_ms); bounds rows are (epsilon, lambda, log10_N)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="synthesize one prefix and report its error")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--target", help="target name (see targets below)")
    p.add_argument("--m", type=int, help="sphere dimension")
    p.add_argument("--lam", type=float, help="concentration")
    p.add_argument("--n", type=int, help="number of control points")
    p.add_argument("--samples", type=int, help="error-estimate sample count")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out-csv", help="append the report row to this CSV")
    p.add_argument("--out-prefix", help="write the prefix artifact JSON here")
    p.add_argument("--augmented", action="store_true", help="use the constant-slot head")
    p.set_defaults(fn=_cmd_approximate)

    p = sub.add_parser("sweep", help="error table over a lambda x N grid")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--target", help="target name")
    p.add_argument("--m", type=int, help="sphere dimension")
    p.add_argument("--lambdas", help="comma-separated concentrations")
    p.add_argument("--ns", help="comma-separated control-point counts")
    p.add_argument("--samples", type=int, help="error-estimate sample count")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bounds", help="accuracy-to-complexity table as CSV")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--eps", default="0.5,0.2,0.1", help="comma-separated accuracies")
    p.add_argument("--lipschitz", type=float, default=1.0, help="geodesic Lipschitz constant")
    p.add_argument("--c-h", type=float, default=1.0, help="harmonic component bound")
    p.add_argument("--c-r", type=float, default=1.0, help="polynomial approximation constant")
    p.add_argument("--f-sup", type=float, default=1.0, help="target sup norm")
    p.add_argument("--permissive", action="store_true", help="allow 2 <= m < 8 with a warning")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all", choices=vfy.SUITE_NAMES)
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("seq2seq-demo", help="trace the sequence pipeline stage by stage")
    p.add_argument("--t", type=int, default=2, help="sequence length")
    p.add_argument("--m", type=int, default=1, help="per-element dimension")
    p.add_argument("--digits", type=int, default=4, help="binary digits per coordinate")
    p.add_argument("--mode", default="hybrid", choices=["hybrid", "full"])
    p.add_argument("--f", default="sequence-mean", help="sequence function (sequence-mean, identity)")
    p.add_argument("--n", type=int, default=4096, help="control points per head (full mode)")
    p.add_argument("--lam", type=float, default=2.0e5, help="concentration (full mode)")
    p.add_argument("--count", type=int, default=3, help="number of sampled sequences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_seq2seq_demo)

    p = sub.add_parser("export-prefix", help="synthesize and write a prefix artifact")
    p.add_argument("path")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--target", help="target name")
    p.add_argument("--m", type=int, help="sphere dimension")
    p.add_argument("--lam", type=float, help="concentration")
    p.add_argument("--n", type=int, help="number of control points")
    p.add_argument("--augmented", action="store_true")
    p.set_defaults(fn=_cmd_export_prefix)

    p = sub.add_parser("import-prefix", help="load an artifact (optionally re-evaluate)")
    p.add_argument("path")
    p.add_argument("--eval-target", help="re-evaluate the error against this target")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_import_prefix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (VmfheadError, ValueError, OSError) as exc:
        # Package errors carry their own exit code; bad files and values
        # (json.JSONDecodeError is a ValueError) are config errors.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
