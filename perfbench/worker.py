"""One benchmark worker: sets up one workload, runs it as a closed loop
(one client, each op starts when the previous one ends) and prints one JSON
result line.

The worker prints ``ready`` as soon as its inputs are built, which is where
the parent stops the set-up clock.  With ``--setup-only`` it exits there.
The parent (run.py) starts it with BLAS pinned to one thread and on the
parent's single CPU, so that each op and every process it starts run where
the reference-kernel samples around the op ran.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from reference import reference_kernel  # noqa: E402
from workloads import WORKLOADS, csv_failure, solution_failure  # noqa: E402

# the `dov` console script, without needing the package to be installed
DOV = "import sys; from dovsolver.cli import console_main; sys.argv[0] = 'dov'; console_main()"
TRACE_MARK = "PERFBENCH_TRACE "
CLI_TIMEOUT_S = 120
# a reference-kernel sample (see reference.py) is taken before an op once
# this much time has passed since the last one; each op time is divided by
# the mean of the last sample before the op and the first one after it
REF_INTERVAL_S = 0.2


def import_dovsolver():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dovsolver

    if Path(dovsolver.__file__).resolve().parent != src / "dovsolver":
        raise ImportError(f"dovsolver imported from {dovsolver.__file__}, not {src}")
    return dovsolver


class SolveBench:
    """Ops are in-process ``solve()`` calls."""

    def __init__(self, cases):
        from dovsolver import solve
        from dovsolver.registry import EXAMPLES

        self._solve = solve
        self.items = []
        for case in cases:
            entry = EXAMPLES[case.key]
            opts = entry.options
            if case.compute_residual is not None:
                opts = replace(opts, compute_residual=case.compute_residual)
            self.items.append((case, entry.problem(case.N, case.M), opts, entry.exact_fn()))
        self.tracer = None

    def start_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.install()

    def end_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.uninstall()

    def run_op(self, item, traced: bool):
        _, problem, opts, _ = item
        w0, c0 = perf_counter(), process_time()
        try:
            if traced:
                with self.tracer.op():
                    payload = self._solve(problem, opts)
            else:
                payload = self._solve(problem, opts)
        except Exception as exc:  # the loop must go on; the op counts as failed
            payload = exc
        return perf_counter() - w0, process_time() - c0, payload

    def failure(self, item, payload) -> str | None:
        case, _, opts, exact_fn = item
        if isinstance(payload, Exception):
            return f"raised {type(payload).__name__}: {payload}"
        return solution_failure(case, payload, exact_fn, opts.compute_residual)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_totals(self, ops):
        return self.tracer.totals()

    def dump(self, workload: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.tracer.dump(OUT_DIR / f"spans-{workload}.npz")


class CliBench:
    """Ops are fresh `dov run-example <key> --no-timing` processes; traced
    ops run cli_child.py, which times the imports and traces the solve."""

    def __init__(self, cases):
        self.items = list(cases)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.tracer = None

    def start_pass(self, traced: bool) -> None:
        pass

    end_pass = start_pass

    def run_op(self, case, traced: bool):
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), case.key]
        else:
            cmd = [sys.executable, "-c", DOV, "run-example", case.key, "--no-timing"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        w0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            payload = (proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            payload = (None, "", f"timed out after {CLI_TIMEOUT_S} s")
        wall = perf_counter() - w0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return wall, cpu, payload

    def failure(self, case, payload) -> str | None:
        code, out, err = payload
        if code is None:
            return err
        reason = csv_failure(case.key, code, out)
        if reason and code != 0:
            reason += ": " + err.strip()[-300:]
        return reason

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    @staticmethod
    def child_trace(payload) -> dict | None:
        for line in reversed(payload[2].splitlines()):
            if line.startswith(TRACE_MARK):
                return json.loads(line[len(TRACE_MARK):])
        return None

    def layer_totals(self, ops):
        children = [self.child_trace(op.payload) for op in ops if op.traced]
        children = [c for c in children if c is not None]
        totals = tracing.merge_totals([c["totals"] for c in children])
        totals["cli"] = {k: sum(c["cli"][k] for c in children) / max(len(children), 1)
                         for k in ("numpy_s", "scipy_s", "dovsolver_s", "main_s")}
        return totals

    def dump(self, workload: str) -> None:
        pass  # the children summarise their own spans


class Op(NamedTuple):
    index: int
    traced: bool
    wall: float
    cpu: float
    ref_wall: float  # the reference-kernel time around this op
    ref_cpu: float
    payload: object


def closed_loop(bench, seed: int, seconds: float, trace: bool):
    """Run whole passes for about ``seconds``.

    Each pass runs every case once, in an order drawn from the seed, so every
    case has the same weight in the percentiles.  The loop stops at the pass
    boundary nearest to ``seconds``, after at least one pass.  In a traced
    run, passes alternate untraced and traced (at least one each), so both
    sides see the same machine load, after one unrecorded untraced pass
    that pays every first-time cost.  Returns the ops and the pass count.
    """
    rng = random.Random(seed)
    order = list(range(len(bench.items)))
    runs = []  # (index, traced, wall, cpu, payload, last reference sample)
    refs = []
    reference_kernel()  # the first call pays numpy's one-time costs
    if trace:
        for item in bench.items:
            bench.run_op(item, False)
    t0 = perf_counter()
    last_ref = -math.inf
    passes = 0
    while True:
        rng.shuffle(order)
        traced = trace and passes % 2 == 1
        bench.start_pass(traced)
        try:
            for i in order:
                if perf_counter() - last_ref >= REF_INTERVAL_S:
                    refs.append(reference_kernel())
                    last_ref = perf_counter()
                wall, cpu, payload = bench.run_op(bench.items[i], traced)
                runs.append((i, traced, wall, cpu, payload, len(refs) - 1))
        finally:
            bench.end_pass(traced)
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / passes >= seconds and (not trace or passes >= 2):
            break
    refs.append(reference_kernel())
    ops = [Op(i, traced, wall, cpu, 0.5 * (refs[k][0] + refs[k + 1][0]),
              0.5 * (refs[k][1] + refs[k + 1][1]), payload)
           for i, traced, wall, cpu, payload, k in runs]
    return ops, passes


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of all order statistics.  Each pass mixes cases whose times differ by up
    to 100x; the plain sample median of an even number of cases sits on the
    gap between two of them and jumps with the tails of both, which this
    estimator smooths out.  scipy.stats is imported here, not at the top,
    so that it stays out of the worker's set-up time.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q / 100.0])[0])


def blas_info() -> dict:
    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    info["threads"] = {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def environment() -> dict:
    import platform

    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def make_bench(workload: str, trace: bool):
    """Build the workload's inputs; dovsolver must already be imported."""
    cases = WORKLOADS[workload]
    bench = CliBench(cases) if workload == "cli-cold" else SolveBench(cases)
    if trace:
        bench.tracer = tracing.Tracer()
    return bench


def measure(bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops, passes = closed_loop(bench, seed, seconds, trace)
    peak_rss = bench.peak_rss_mb()
    # correctness is checked after the loop, outside every timed window
    failures = []
    for op in ops:
        reason = bench.failure(bench.items[op.index], op.payload)
        if reason:
            failures.append(f"{_label(bench.items[op.index])}: {reason}")
    attempted, failed = len(ops), len(failures)
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "attempted": attempted, "failed": failed, "passes": passes,
              "failures": failures[:10], "env": environment(),
              "ops": [[_label(bench.items[op.index]), op.traced, op.wall, op.cpu,
                       op.ref_wall, op.ref_cpu] for op in ops]}
    if not trace:
        walls = [op.wall for op in ops]
        rel = [op.wall / op.ref_wall for op in ops]
        p90 = percentile(rel, 90)
        result["metrics"] = {
            "ops_per_kref": 1e3 * (attempted - failed) / sum(rel),
            "op_ref.p50": percentile(rel, 50),
            "op_ref.p90": p90,
            "op_cpu_ref.p50": percentile([op.cpu / op.ref_cpu for op in ops], 50),
            "peak_rss_mb": peak_rss,
            "correct_frac": (attempted - failed) / attempted,
        }
        result["raw"] = {
            "ops_per_s": (attempted - failed) / sum(walls),
            "op_ms.p50": 1e3 * percentile(walls, 50),
            "op_ms.p90": 1e3 * percentile(walls, 90),
            "op_cpu_ms.p50": 1e3 * percentile([op.cpu for op in ops], 50),
            "ref_ms.p50": 1e3 * percentile([op.ref_wall for op in ops], 50),
        }
        result["samples"] = attempted
        result["beyond_p90"] = sum(r > p90 for r in rel)
        return result
    traced = [op for op in ops if op.traced]
    totals = bench.layer_totals(ops)
    metrics = tracing.layer_metrics(totals, sum(op.wall for op in traced), len(traced))
    cli = totals.get("cli", {})
    metrics.update({
        "cli.import.numpy_ms": 1e3 * cli.get("numpy_s", 0.0),
        "cli.import.scipy_ms": 1e3 * cli.get("scipy_s", 0.0),
        "cli.import.dovsolver_ms": 1e3 * cli.get("dovsolver_s", 0.0),
        "cli.main.total_ms": 1e3 * cli.get("main_s", 0.0),
        "trace.overhead_frac": (
            percentile([op.wall / op.ref_wall for op in traced], 50)
            / percentile([op.wall / op.ref_wall for op in ops if not op.traced], 50) - 1.0),
    })
    bench.dump(workload)
    result["metrics"] = metrics
    result["samples"] = len(traced)
    return result


def _label(item) -> str:
    case = item[0] if isinstance(item, tuple) else item
    return case.label


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_dovsolver()
    bench = make_bench(args.workload, bool(args.trace))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
