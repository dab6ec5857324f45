"""Run one dovsolver benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness spawns fresh workers with BLAS pinned to one thread, all on
one CPU.  With ``--trace 0`` it times ``SETUP_SPAWNS`` worker set-ups, lets
one more worker run the closed loop, then prints every end-to-end metric;
with ``--trace 1`` one worker alternates untraced and traced passes and the
per-layer metrics are printed.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from reference import reference_process  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 4
# setup_s is each set-up time over the mean time of the reference processes
# (reference.py) run just before and after it, times this fixed reference
# time (about the reference process's time on a quiet 2-vCPU Xeon host), so
# that a slow spell of the host does not show as slower set-up
REF_NOMINAL_S = 0.22
# every run must end well inside 180 s
DEADLINE_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def metric_specs(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def spawn(args, deadline: float, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; returns the process
    and the set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (exit code {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup_s


def run_workers(args, deadline: float) -> tuple[dict, list[tuple[float, float]]]:
    """Returns the worker's result and, per timed set-up, the set-up time and
    the mean time of the reference processes run just before and after it.
    The timed set-ups use workers that exit when ready; one more worker
    runs the closed loop."""
    def reference() -> float:
        return reference_process(worker_env(), max(deadline - perf_counter(), 0))

    setups = []
    if not args.trace:
        reference()  # the first run pays for a cold file cache
        before = reference()
        for _ in range(SETUP_SPAWNS):
            proc, setup_s = spawn(args, deadline, setup_only=True)
            try:
                proc.communicate(timeout=max(deadline - perf_counter(), 0))
            finally:
                _stop(proc)
            after = reference()
            setups.append((setup_s, 0.5 * (before + after)))
            before = after
    proc, _ = spawn(args, deadline, setup_only=False)
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0))
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = perf_counter() + DEADLINE_S
    # the workers inherit this, so each set-up runs where its reference ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "dovsolver" / "__init__.py").is_file():
        print(f"error: no dovsolver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = metric_specs(bool(args.trace))

    try:
        result, setups = run_workers(args, deadline)
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = REF_NOMINAL_S * statistics.median(s / r for s, r in setups)
        result["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        print(f"error: worker did not report {', '.join(missing)}", file=sys.stderr)
        return 1

    result["env"].update(commit=git_commit(), seed=args.seed)
    result["setup_samples"] = [{"setup_s": s, "ref_s": r} for s, r in setups]
    attempted, failed = result["attempted"], result["failed"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(result | {"metrics": metrics}, handle, indent=1)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {result['passes']} passes, {failed} failed "
          f"(failed_frac {failed / attempted:.4g} of {attempted} attempted)")
    if not args.trace:
        print(f"# op percentiles over {result['samples']} samples, "
              f"{result['beyond_p90']} beyond p90")
    for reason in result["failures"]:
        print(f"# FAILED {reason}")
    for s in specs:
        print(f"{s['name']} = {metrics[s['name']]:.6g} {s['unit']}")
    for name, value in result.get("raw", {}).items():
        print(f"# raw {name}: {value:.6g}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
