"""vmfhead benchmark: one workload per invocation, timed in whole rounds.

    python3 perfbench/run.py --workload approx-s2 --seed 1 --seconds 25 --trace 0

Runs rounds of the workload until --seconds have passed (at least one),
checks every output against references computed here, and prints as its
last line one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (medians over the rounds);
with --trace 1 untraced and traced rounds alternate and the metrics are the
per-layer ones (medians over the traced rounds) plus the tracing overhead.
`attempted` and `failed` are one round's counts, which every round
shares.  The line before it is the run record (machine, library versions,
BLAS threads, seed, operation counts, rounds).  Metric names and units come
from BENCHMARK.json.  Record, metrics and, for a traced run, every span are
also written under perfbench/out/.

The library is imported from src/ of the checkout this file sits in; the
run exits with status 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BENCHMARK = ROOT / "BENCHMARK.json"


def _import_library():
    # before numpy loads: one BLAS thread, and the library's own default of
    # one error-estimation worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("VMFHEAD_THREADS", None)
    if not (SRC / "vmfhead" / "__init__.py").is_file():
        print(f"perfbench: no vmfhead source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import vmfhead

    if Path(vmfhead.__file__).resolve().parent != SRC / "vmfhead":
        print(f"perfbench: imported vmfhead from {vmfhead.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run_record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _metrics(values: dict, kind: str) -> dict:
    """values as the metrics BENCHMARK.json lists under kind, with their units."""
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics computed and listed in BENCHMARK.json differ: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args) -> tuple[dict, dict]:
    import layers
    import probe
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, tables = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None and len(traced) < len(plain):
            first = len(tracer.spans)
            replaced = tracing.bind(tracer)
            try:
                traced.append(wl.run_round(workloads.Stopwatch(), tracer))
            finally:
                tracing.unbind(replaced)
            tables.append(tracing.SpanTable(tracer, first))
        else:
            # a traced run compares raw times, so it does not probe
            plain.append(wl.run_round(workloads.Stopwatch(None if tracer else probe.slowness)))
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or traced):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = plain + traced
    problems = wl.check(rounds)
    counts = {(r.attempted, r.failed) for r in rounds}
    if len(counts) > 1:
        problems.append(f"rounds differ in (attempted, failed): {sorted(counts)}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median([r.setup_s for r in plain]),
            "wall_s": statistics.median([r.wall_s for r in plain]),
            "head_queries_per_s": statistics.median([r.rate("head_queries_per_s") for r in plain]),
            "sequences_per_s": statistics.median([r.rate("sequences_per_s") for r in plain]),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = _metrics(values, "end_to_end")
    else:
        per_round = [layers.per_layer(t) for t in tables]
        values = {name: statistics.median([m[name] for m in per_round]) for name in per_round[0]}
        untraced = statistics.median([r.raw_wall_s for r in plain])
        traced_wall = statistics.median([r.raw_wall_s for r in traced])
        values.update(
            {
                "trace.untraced_wall_s": untraced,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced,
            }
        )
        metrics = _metrics(values, "per_layer")
    result = {
        "correct": not problems,
        "attempted": rounds[0].attempted,
        "failed": rounds[0].failed,
        "metrics": metrics,
    }
    detail = {
        "rounds": {
            "untraced": len(plain),
            "traced": len(traced),
            "attempted_all_rounds": sum(r.attempted for r in rounds),
            "failed_all_rounds": sum(r.failed for r in rounds),
        },
        "per_round": [
            {"traced": is_traced, "raw_s": r.sw.raw, "scaled_s": r.sw.scaled, "attempted": r.attempted, "failed": r.failed}
            for is_traced, group in ((False, plain), (True, traced))
            for r in group
        ],
        "problems": problems,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    record = run_record(args)
    result, detail = run(args)
    record.update(attempted=result["attempted"], failed=result["failed"], **detail["rounds"])
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "result": result, **detail}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
