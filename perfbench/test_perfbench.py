"""Tests for the benchmark harness.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker.import_dovsolver()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_benchmark_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS[workload])
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    printed = [line.split(" = ")[0] for line in lines if " = " in line]
    assert printed == [s["name"] for s in specs]
    for s in specs:
        assert result["metrics"][s["name"]]["unit"] == s["unit"]
    if not trace:
        assert all(rec["value"] > 0 for rec in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("newton", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _snapshot():
    out = {}
    for name, mod in sys.modules.items():
        if name == "dovsolver" or name.startswith("dovsolver."):
            for _, attr in tracing.TRACED:
                if hasattr(mod, attr):
                    out[(name, attr)] = getattr(mod, attr)
    return out


@pytest.fixture(scope="module")
def traced_newton():
    bench = worker.make_bench("newton", trace=True)
    bench.dump = lambda workload: None
    before = _snapshot()
    result = worker.measure(bench, "newton", seed=5, seconds=0, trace=True)
    return before, bench, result


def test_traced_run_restores_every_patched_name(traced_newton):
    before, bench, _ = traced_newton
    assert not bench.tracer.installed
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    # the patch did reach the importing modules, not only the defining ones
    names = set(bench.tracer.names)
    assert {"opalg.product_matrix", "expr.evaluate", "solver.residual",
            "oracle.quad_adaptive"} <= names


def test_self_times_sum_to_at_most_op_wall_time(traced_newton):
    _, bench, result = traced_newton
    a = bench.tracer.arrays()
    self_t = bench.tracer.self_times()
    op_nid = bench.tracer.names.index(tracing.OP)
    roots = np.flatnonzero(a["name_id"] == op_nid)
    assert roots.size == result["samples"] > 0
    for root in roots:
        in_op = a["op_id"] == a["op_id"][root]
        wall = a["end"][root] - a["start"][root]
        assert self_t[in_op].sum() <= wall * (1 + 1e-9) + 1e-9
        assert np.all(self_t[in_op] >= -1e-9)
    assert result["metrics"]["solver.newton_solve.calls"] > 0


def test_wrong_ceiling_counts_failures(monkeypatch):
    monkeypatch.setitem(workloads.SEED_E_INF, ("ex2", 1, 10), 1e-30)
    monkeypatch.setattr(workloads, "CEILING_FLOOR", 0.0)
    bench = worker.make_bench("linear-oracle", trace=False)
    result = worker.measure(bench, "linear-oracle", seed=1, seconds=0, trace=False)
    assert result["failed"] == 1 and result["attempted"] == 7
    assert result["metrics"]["correct_frac"] == pytest.approx(6 / 7)
    assert "ex2@1x10: E_inf" in result["failures"][0]


def test_csv_gate():
    header = "N,M,L,E_inf,residual_linf,newton_iters,condition_estimate,wall_ms"
    good = f"{header}\n1,10,10,1e-9,1e-12,0,5.0,0"
    assert workloads.csv_failure("ex2", 0, good) is None
    assert "above ceiling" in workloads.csv_failure("ex2", 0, good.replace("1e-9", "1e-3"))
    assert "residual_linf" in workloads.csv_failure("ex2", 0, good.replace("1e-12", "nan"))
    assert workloads.csv_failure("ex2", 2, good) == "exit code 2"
    assert "no recorded ceiling" in workloads.csv_failure("ex2", 0, good.replace("1,10,10", "1,11,11"))

