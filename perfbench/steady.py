"""Steadiness check: run one workload k times with different seeds and
report each end-to-end metric's spread against its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload newton --runs 10 [--first-seed 1]

The spread is the distance between the first and third quartiles of the k
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when its spread is within its bound; the target when
tuning the benchmark is a third of the bound.  Every run lasts
BENCHMARK.json's run_seconds.
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


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, rec in result["metrics"].items():
            values.setdefault(name, []).append(rec["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                            for k, v in result["metrics"].items()),
              flush=True)

    steady = True
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, {failed} failed ops")
    for spec in bench["end_to_end"]:
        vals = values[spec["name"]]
        s = spread(vals)
        ok = s <= spec["bound"]
        steady = steady and ok
        verdict = ("ok" if s <= spec["bound"] / 3 else "within bound") if ok else "TOO WIDE"
        print(f"  {spec['name']:16s} median {statistics.median(vals):12.6g} {spec['unit']:5s} "
              f"spread {s:7.4f}  bound {spec['bound']:.3f}  {verdict}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"steady-{args.workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": seconds, "values": values},
                  handle, indent=1)
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
