"""Steadiness mode: run each workload k times and summarise every metric.

    python3 perfbench/steady.py --runs 10 [--workload seq2seq ...] [--first-seed 1]

Each run is a separate untraced `run.py` process of BENCHMARK.json's
run_seconds with its own seed (first-seed, first-seed+1, ...), one after
another.  For every metric the summary gives
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, which is what the bounds in BENCHMARK.json
are set against; it also gives the failed share of each run.  The summary
is printed as JSON and written to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(results: list[dict]) -> dict:
    names = list(results[0]["metrics"])
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        metrics[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in results}),
        "failed_shares_equal": len({r["failed"] / r["attempted"] for r in results}) == 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", help="repeatable; default: every workload")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    for name in names:
        results = []
        for i in range(args.runs):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name}: run {i} exited with {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        summary = {"workload": name, **summarise(results)}
        for metric, s in summary["metrics"].items():
            if metric in bounds:
                s["bound"] = bounds[metric]
        (HERE / "out" / f"steady-{name}.json").write_text(json.dumps(summary, indent=1))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
