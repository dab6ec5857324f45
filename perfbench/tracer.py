"""Span tracer that wraps dovsolver functions from outside the package.

Each traced name is patched in every dovsolver module that holds a
reference to the same function object, so calls made through
``solver.product_matrix`` are seen as well as ``opalg.product_matrix``.
``expr.evaluate`` is left unpatched inside ``expr`` itself: it recurses
through its own global name, and wrapping it there would count every tree
node instead of the top-level calls other modules make.

Spans live in flat typed arrays (name, parent, op, start, end) so that a
traced run of a few million spans stays small in memory; they are written
out once, at the end, by ``dump``.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute) -> span name; newton_solve and quad_adaptive
# get wrappers of their own below.
TRACED = (
    ("expr", "evaluate"),
    ("basis", "project"),
    ("basis", "eval_series"),
    ("opalg", "kernel_matrix"),
    ("opalg", "integration_matrix"),
    ("opalg", "product_matrix"),
    ("opalg", "unit_product_matrix"),
    ("solver", "assemble_linear_map"),
    ("solver", "newton_solve"),
    ("solver", "scalar_invert"),
    ("oracle", "equation_residual"),
    ("oracle", "composite_residual"),
    ("oracle", "quad_adaptive"),
)
# modules that must not see their own function wrapped
_SELF_RECURSIVE = {("expr", "evaluate")}
OP = "op"
RESIDUAL = "solver.residual"
ORACLE_ROOTS = ("oracle.equation_residual", "oracle.composite_residual")


class Tracer:
    """Records nested spans around calls into dovsolver.

    ``install`` patches the package, ``uninstall`` restores every patched
    attribute; ``op`` opens the root span of one operation.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.ops = 0
        self.integrand_evals = 0
        self.newton_iters = 0
        self.newton_converged = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        nid = self._id(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self):
        """Context manager for the root span of one operation."""
        return _OpSpan(self)

    # -- patching -------------------------------------------------------

    def _special(self, name: str, fn):
        if name == "solver.newton_solve":
            inner = self.span(name, fn)
            wrap_residual = self.span

            def newton_solve(residual, *args, **kwargs):
                result = inner(wrap_residual(RESIDUAL, residual), *args, **kwargs)
                self.newton_iters += result.iterations
                self.newton_converged += bool(result.converged)
                return result

            newton_solve.__wrapped__ = fn
            return newton_solve
        if name == "oracle.quad_adaptive":
            inner = self.span(name, fn)

            def quad_adaptive(g, *args, **kwargs):
                def counted(x):
                    self.integrand_evals += 1
                    return g(x)

                return inner(counted, *args, **kwargs)

            quad_adaptive.__wrapped__ = fn
            return quad_adaptive
        return self.span(name, fn)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "dovsolver" or name.startswith("dovsolver.")}
        for home, attr in TRACED:
            original = getattr(modules[f"dovsolver.{home}"], attr)
            wrapped = self._special(f"{home}.{attr}", original)
            for mod_name, mod in modules.items():
                if (mod_name.rpartition(".")[2], attr) in _SELF_RECURSIVE:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # -- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def totals(self) -> dict:
        """Summed calls, total and self seconds per span name, plus the
        counters, over every recorded op (not yet divided by op count)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_t = self.self_times()
        out = {"ops": self.ops,
               "integrand_evals": self.integrand_evals,
               "newton_iters": self.newton_iters,
               "newton_converged": self.newton_converged,
               "spans": {}}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out["spans"][name] = {"calls": int(mask.sum()),
                                  "total_s": float(dur[mask].sum()),
                                  "self_s": float(self_t[mask].sum())}
        return out

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _OpSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        t._op = t.ops
        self.index = t._enter(t._id(OP))
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._exit(self.index)
        t.ops += 1
        t._op = -1
        return False

    @property
    def seconds(self) -> float:
        t = self.tracer
        return t.end[self.index] - t.start[self.index]


def layer_metrics(totals: dict, op_wall_s: float, ops: int) -> dict[str, float]:
    """Per-op averages named as in BENCHMARK.json's per_layer list.

    ``totals`` may sum several tracers (one per CLI child); ``op_wall_s`` is
    the summed wall time of the traced ops as the harness measured them.
    """
    spans = totals["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    per = 1.0 / ops
    ms = 1e3 * per
    newton_calls = get("solver.newton_solve", "calls")
    oracle_s = sum(get(n, "total_s") for n in ORACLE_ROOTS)
    out = {
        "expr.evaluate.calls": get("expr.evaluate", "calls") * per,
        "expr.evaluate.self_ms": get("expr.evaluate", "self_s") * ms,
        "basis.project.calls": get("basis.project", "calls") * per,
        "basis.project.self_ms": get("basis.project", "self_s") * ms,
        "basis.eval_series.calls": get("basis.eval_series", "calls") * per,
        "basis.eval_series.self_ms": get("basis.eval_series", "self_s") * ms,
        "opalg.kernel_matrix.self_ms": get("opalg.kernel_matrix", "self_s") * ms,
        "opalg.integration_matrix.self_ms": get("opalg.integration_matrix", "self_s") * ms,
        "opalg.product_matrix.calls": get("opalg.product_matrix", "calls") * per,
        "opalg.product_matrix.self_ms": get("opalg.product_matrix", "self_s") * ms,
        "opalg.unit_product_matrix.calls": get("opalg.unit_product_matrix", "calls") * per,
        "opalg.unit_product_matrix.self_ms": get("opalg.unit_product_matrix", "self_s") * ms,
        "solver.assemble_linear_map.total_ms": get("solver.assemble_linear_map", "total_s") * ms,
        "solver.assemble_linear_map.self_ms": get("solver.assemble_linear_map", "self_s") * ms,
        "solver.newton_solve.calls": newton_calls * per,
        "solver.newton_solve.total_ms": get("solver.newton_solve", "total_s") * ms,
        "solver.newton_solve.self_ms": get("solver.newton_solve", "self_s") * ms,
        "solver.residual.calls": get(RESIDUAL, "calls") * per,
        "solver.residual.self_ms": get(RESIDUAL, "self_s") * ms,
        "solver.newton.iters": totals["newton_iters"] * per,
        "solver.newton.converged_frac": (totals["newton_converged"] / newton_calls
                                         if newton_calls else 0.0),
        "solver.scalar_invert.calls": get("solver.scalar_invert", "calls") * per,
        "solver.scalar_invert.total_ms": get("solver.scalar_invert", "total_s") * ms,
        "solver.route.self_ms": get(OP, "self_s") * ms,
        "oracle.equation_residual.calls": get("oracle.equation_residual", "calls") * per,
        "oracle.equation_residual.total_ms": get("oracle.equation_residual", "total_s") * ms,
        "oracle.quad_adaptive.calls": get("oracle.quad_adaptive", "calls") * per,
        "oracle.integrand.evals": totals["integrand_evals"] * per,
        "oracle.share": oracle_s / op_wall_s if op_wall_s > 0 else 0.0,
        "op.wall_ms": op_wall_s * ms,
    }
    return out


def merge_totals(items: list[dict]) -> dict:
    """Sum the ``totals`` of several tracers."""
    out = {"ops": 0, "integrand_evals": 0, "newton_iters": 0,
           "newton_converged": 0, "spans": {}}
    for item in items:
        for key in ("ops", "integrand_evals", "newton_iters", "newton_converged"):
            out[key] += item[key]
        for name, rec in item["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k, v in rec.items():
                acc[k] += v
    return out
