"""The benchmark's span tracer patches dovsolver names from outside the
package; a traced run fails if one of them is renamed or deleted.  Its
worker builds each solve from the registry and gates every op on an E_inf
ceiling; an op that fails the gate lowers the benchmark's correct_frac."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dovsolver import solver
from dovsolver.registry import EXAMPLES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    assert tracer.TRACED
    missing = [f"{home}.{attr}" for home, attr in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"dovsolver.{home}"),
                                       attr, None))]
    assert missing == []


def test_traced_solve_matches_untraced():
    # the tracer's wrappers pass every argument through (solve calls
    # equation_residual with its grid) and uninstall puts back each name;
    # ex5 at (2, 4) runs Newton on a two-block stack, whose iteration count
    # and convergence flag the tracer sums as scalars
    tracer_mod = _load("tracer")
    names = {attr for _, attr in tracer_mod.TRACED}
    modules = [m for n, m in sys.modules.items()
               if n == "dovsolver" or n.startswith("dovsolver.")]
    before = {(m.__name__, a): getattr(m, a) for m in modules for a in names
              if hasattr(m, a)}

    for key, size in [("ex3", (1, 6)), ("ex5", (2, 4))]:
        example = EXAMPLES[key]
        problem = example.problem(*size)
        plain = solver.solve(problem)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            assert solver.oracle.equation_residual is not before[
                ("dovsolver.oracle", "equation_residual")]
            with tracer.op():
                traced = solver.solve(problem)
        finally:
            tracer.uninstall()

        totals = tracer.totals()
        assert totals["spans"]["oracle.equation_residual"]["calls"] > 0
        # the polynomial recover step runs its Newton paths through
        # solver.newton_solve, and L and F are built once per solve, not once
        # per ladder rung
        assert type(totals["newton_iters"]) is int
        assert type(totals["newton_converged"]) is int
        assert totals["newton_iters"] == traced.diagnostics.newton_iters
        assert 0 < totals["newton_converged"] <= totals["spans"]["solver.newton_solve"]["calls"]
        assert totals["spans"]["solver.assemble_linear_map"]["calls"] == 1
        # one ladder per start, three starts, rungs 2 .. M: the newton
        # workload's solver.newton_solve.calls counts the paths of the
        # recover step
        assert totals["spans"]["solver.newton_solve"]["calls"] == 3 * (problem.spec.M - 1)
        assert totals["spans"]["opalg.kernel_matrix"]["calls"] == 1
        assert traced.U.c.tobytes() == plain.U.c.tobytes()
        assert traced.diagnostics == plain.diagnostics
        after = {(m.__name__, a): getattr(m, a) for m in modules for a in names
                 if hasattr(m, a)}
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", ["linear-oracle", "newton", "size-ladder"])
def test_every_worker_op_passes_its_gate(monkeypatch, workload):
    # worker.py puts perfbench/ on sys.path to import its siblings; the
    # patched copy keeps that out of the other tests
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load("worker")
    bench = worker.SolveBench(worker.WORKLOADS[workload])
    for item in bench.items:
        payload = bench.run_op(item, False)[2]
        assert bench.failure(item, payload) is None, item[0].label
