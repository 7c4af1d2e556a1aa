"""Experiment command line: approximation runs, sweeps, bound tables,
invariant verification, sequence demos, and prefix artifact I/O.

Each setting comes from its flag, else from an optional JSON config file,
else from its default, and reaches the library unconverted, so the scalar
checks refuse what they refuse for any caller.  All randomness derives from
one seed split per stage.  Exit codes:
0 success, 1 stdout closed before the output was written (as by `| head`),
2 usage/config error, 3 numeric failure, 4 verification failure.
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
from .errors import DomainError, VmfheadError, _positive, _size
from .seq2seq import (
    DigitConfig,
    SequenceSample,
    aggregate_R,
    build_seq2seq_transformer,
    reference_seq2seq,
    sequence_mean,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 4


def _settings(args, **defaults) -> list:
    """The named settings, in order: each from its flag, else from the
    --config JSON object, else from its default, where None marks a
    required setting.  Values are passed on as given."""
    cfg = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    values = []
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, default)
        if value is None:
            raise DomainError(f"no {key} given (use --{key} or a config file)")
        values.append(value)
    return values


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence([_size(seed, "seed", 0), stage]).generate_state(1)[0])


def _number_list(kind):
    """argparse type: a comma-separated list of `kind` values."""

    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


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
    name, m, lam, n_points, samples, seed = _settings(
        args, target=None, m=2, lam=32.0, n=1024, samples=2048, seed=0
    )
    target = pfx.make_target(name, m)
    report, cp = pfx.run_approximation(target, n_points, lam, samples, _stage_seed(seed, 1))
    report = dataclasses.replace(report, seed=seed)
    if args.out_csv:
        new = not os.path.exists(args.out_csv)
        text = pfx.reports_to_csv([report])
        with open(args.out_csv, "a", newline="", encoding="utf-8") as fh:
            fh.write(text if new else text.partition("\n")[2])
    if args.out_prefix:
        _write_prefix_artifact(args.out_prefix, cp, args.augmented)
    print(json.dumps(report.row()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    name, m, lams, ns, samples, seed = _settings(
        args, target=None, m=2, lambdas=[8.0, 32.0], ns=[64, 256, 1024], samples=1024, seed=0
    )
    target = pfx.make_target(name, m)
    for key, values in (("lambdas", lams), ("ns", ns)):
        if not isinstance(values, list):
            raise DomainError(f"{key} must be a list, got {values!r}")
    stage_seed = _stage_seed(seed, 1)
    # Each entry is checked before sorting, which needs comparable values.
    reports = [
        dataclasses.replace(pfx.run_approximation(target, n_points, lam, samples, stage_seed)[0], seed=seed)
        for lam in sorted(_positive(v, "lambdas") for v in lams)
        for n_points in sorted(_size(v, "ns") for v in ns)
    ]
    text = pfx.reports_to_csv(reports, include_wall_time=False)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    spec = bnd.SmoothnessSpec(L=args.lipschitz, C_H=args.c_h, C_R=args.c_r, f_sup=args.f_sup)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epsilon", "lambda", "log10_N"])
    for eps in args.eps:
        lam, nb = bnd.normalized_head_parameters(eps, spec, args.m, strict=not args.permissive)
        writer.writerow([repr(eps), repr(lam), repr(nb.log10_n)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = vfy.run_suite(args.suite)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(vfy.summary_to_text(summary))
    return EXIT_OK if summary["n_failed"] == 0 else EXIT_VERIFY


def _cmd_seq2seq_demo(args) -> int:
    cfg = DigitConfig(digits=args.digits)
    t_len, m, count = args.t, args.m, _size(args.count, "count", 0)

    fns = {"sequence-mean": sequence_mean, "identity": np.copy}
    if args.f not in fns:
        print(f"error: unknown sequence function {args.f!r}", file=sys.stderr)
        return EXIT_CONFIG
    f = fns[args.f]
    # Only the sizes given: build_seq2seq_transformer owns the defaults.
    sizes = {key: value for key, value in (("n_points", args.n), ("lam", args.lam)) if value is not None}
    stack = build_seq2seq_transformer(f, t_len, m, cfg, mode=args.mode, **sizes)
    rng = np.random.default_rng(_size(args.seed, "seed", 0))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["sample", "stage", "position", "values"])
    for idx in range(count):
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
    name, m, lam, n_points = _settings(args, target="identity", m=2, lam=32.0, n=256)
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
        samples, seed = _settings(args, samples=1024, seed=0)
        target = pfx.make_target(args.eval_target, m)
        # Each point is its own one-input sequence, evaluated in the
        # certified form of the universal head, all in one batch.
        cp = att.universal_control_points(prefix, params, m, lam)
        sup, mean = pfx.sup_error_estimate(
            target, lambda pts: att.universal_head_batch(cp, pts, prefix.M), samples, _stage_seed(seed, 1)
        )
        payload["sup_error"] = sup
        payload["mean_error"] = mean
    print(json.dumps(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    columns = pfx.REPORT_COLUMNS
    parser = argparse.ArgumentParser(
        prog="vmfhead",
        description="Kernel attention heads on hyperspheres: synthesis, bounds, verification.",
        epilog=(
            f"CSV schemas: sweep rows are ({', '.join(columns[:-1])}) sorted by (lambda, N); "
            f"approximate appends (..., {columns[-1]}); bounds rows are (epsilon, lambda, log10_N)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The settings flags, declared once; each defaults to None so that a
    # --config value or the command's own default can stand in (_settings).
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="JSON config file")
    base.add_argument("--target", help=f"target name ({', '.join(pfx.target_names())})")
    base.add_argument("--m", type=int, help="sphere dimension")
    head = argparse.ArgumentParser(add_help=False)
    head.add_argument("--lam", type=float, help="concentration")
    head.add_argument("--n", type=int, help="number of control points")
    estimate = argparse.ArgumentParser(add_help=False)
    estimate.add_argument("--samples", type=int, help="error-estimate sample count")
    estimate.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("approximate", parents=[base, head, estimate], help="synthesize one prefix and report its error")
    p.add_argument("--out-csv", help="append the report row to this CSV")
    p.add_argument("--out-prefix", help="write the prefix artifact JSON here")
    p.add_argument("--augmented", action="store_true", help="use the constant-slot head")
    p.set_defaults(fn=_cmd_approximate)

    p = sub.add_parser("sweep", parents=[base, estimate], help="error table over a lambda x N grid")
    p.add_argument("--lambdas", type=_number_list(float), help="comma-separated concentrations")
    p.add_argument("--ns", type=_number_list(int), help="comma-separated control-point counts")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bounds", help="accuracy-to-complexity table as CSV")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--eps", type=_number_list(float), default="0.5,0.2,0.1", help="comma-separated accuracies")
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
    p.add_argument("--n", type=int, help="control points per head (full mode; default 2 pi sqrt(lam) up to a power of two)")
    p.add_argument("--lam", type=float, help="concentration (full mode; default 50 9^(T(m+1) digits))")
    p.add_argument("--count", type=int, default=3, help="number of sampled sequences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_seq2seq_demo)

    p = sub.add_parser("export-prefix", parents=[base, head], help="synthesize and write a prefix artifact")
    p.add_argument("path")
    p.add_argument("--augmented", action="store_true")
    p.set_defaults(fn=_cmd_export_prefix)

    p = sub.add_parser("import-prefix", parents=[estimate], help="load an artifact (optionally re-evaluate)")
    p.add_argument("path")
    p.add_argument("--eval-target", help="re-evaluate a universal artifact's error against this target")
    p.set_defaults(fn=_cmd_import_prefix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a pipe closed early raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader left: point stdout at devnull so the interpreter's last
        # flush raises nothing (the SIGPIPE note in Python's signal docs).
        # An in-process stdout, as pytest's capture, has no descriptor.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return EXIT_PIPE
    except (VmfheadError, ValueError, OSError) as exc:
        # Package errors carry their own exit code; bad files and values
        # (json.JSONDecodeError is a ValueError) are config errors.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
