"""The benchmark's workloads, their fixed inputs and the per-op correctness
gate.

Each workload is a list of cases; one pass runs every case once, in an
order the seed permutes.  The cases themselves never depend on the seed, so
the error ceilings below always apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the ROADMAP size ladder
LADDER = ((1, 10), (2, 16), (4, 16), (8, 16), (8, 24))


@dataclass(frozen=True)
class Case:
    key: str
    N: int
    M: int
    # None keeps the registry entry's own SolveOptions
    compute_residual: bool | None = None

    @property
    def label(self) -> str:
        return f"{self.key}@{self.N}x{self.M}"


# the registry's recommended (N, M), pinned here so a registry change cannot
# silently change what the benchmark measures
RECOMMENDED = {
    "ex1": (1, 10), "ex2": (1, 10), "ex3": (1, 10), "ex4": (1, 10),
    "ex5": (2, 4), "ex6": (1, 8), "ex7": (1, 3), "ex8": (2, 9),
    "ex9": (2, 8), "ex10": (3, 12),
}


def _recommended(*keys: str) -> tuple[Case, ...]:
    return tuple(Case(k, *RECOMMENDED[k]) for k in keys)


WORKLOADS: dict[str, tuple[Case, ...]] = {
    # derivative, invertible and collocation routes with the oracle on
    "linear-oracle": _recommended("ex1", "ex2", "ex4", "ex6", "ex8", "ex9", "ex10"),
    # polynomial routes: degree-continuation Newton
    "newton": _recommended("ex3", "ex5", "ex7"),
    # linear stage over the size ladder, oracle off
    "size-ladder": tuple(Case(k, n, m, compute_residual=False)
                         for k in ("ex2", "ex8") for n, m in LADDER),
    # one `dov run-example <key> --no-timing` process per op
    "cli-cold": _recommended("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7",
                             "ex8", "ex9", "ex10"),
}

# E_inf on a 1000-point uniform grid, measured on the seed code with BLAS on
# one thread.  A case passes while its E_inf stays within CEILING_FACTOR of
# this value (never below CEILING_FLOOR, so that exact cases such as ex7
# tolerate roundoff).
SEED_E_INF = {
    ("ex1", 1, 10): 1.143e-13,
    ("ex2", 1, 10): 2.071e-09,
    ("ex3", 1, 10): 1.173e-10,
    ("ex4", 1, 10): 6.025e-08,
    ("ex5", 2, 4): 8.152e-13,
    ("ex6", 1, 8): 1.755e-08,
    ("ex7", 1, 3): 6.661e-16,
    ("ex8", 2, 9): 2.874e-10,
    ("ex9", 2, 8): 3.498e-02,
    ("ex10", 3, 12): 2.437e-09,
    ("ex2", 2, 16): 1.006e-12,
    ("ex2", 4, 16): 3.429e-12,
    ("ex2", 8, 16): 3.668e-11,
    ("ex2", 8, 24): 2.540e-11,
    ("ex8", 1, 10): 7.341e-09,
    ("ex8", 2, 16): 1.605e-13,
    ("ex8", 4, 16): 1.658e-12,
    ("ex8", 8, 16): 5.276e-12,
    ("ex8", 8, 24): 1.184e-11,
}
CEILING_FACTOR = 10.0
CEILING_FLOOR = 1e-12

# G(u) = u^2 also has the root -u (ex3) and G(u) = u^2 - u the root 1 - u
# (ex7); the solve must land on the exact solution's branch
BRANCH_KEYS = {"ex3", "ex7"}
GRID_POINTS = 1000


def ceiling(key: str, N: int, M: int) -> float:
    return max(CEILING_FACTOR * SEED_E_INF[(key, N, M)], CEILING_FLOOR)


def error_ceiling_failure(key: str, N: int, M: int, e_inf: float) -> str | None:
    """None when E_inf is within the case's ceiling, else the reason."""
    if (key, N, M) not in SEED_E_INF:
        return f"no recorded ceiling for {key} at N={N} M={M}"
    limit = ceiling(key, N, M)
    if not e_inf <= limit:
        return f"E_inf {e_inf:.3e} above ceiling {limit:.3e}"
    return None


def solution_failure(case: Case, solution, exact_fn, compute_residual: bool) -> str | None:
    """None when an in-process solve passes the gate, else the reason."""
    import numpy as np
    from dovsolver.basis import eval_series

    d = solution.diagnostics
    if not d.converged:
        return "diagnostics.converged is false"
    if compute_residual and not math.isfinite(d.residual_linf):
        return f"residual_linf is {d.residual_linf}"
    iv = solution.U.spec.interval
    t = np.linspace(iv.t0, iv.tf, GRID_POINTS)
    u = eval_series(solution.U, t)
    exact = np.asarray(exact_fn(t), dtype=float)
    reason = error_ceiling_failure(case.key, case.N, case.M,
                                   float(np.max(np.abs(u - exact))))
    if reason or case.key not in BRANCH_KEYS:
        return reason
    mean_u, mean_exact = float(np.mean(u)), float(np.mean(exact))
    if (np.sign(mean_u) != np.sign(mean_exact)
            or abs(mean_u - mean_exact) > 1e-6 * max(1.0, abs(mean_exact))):
        return f"wrong branch: mean {mean_u:.6g}, exact mean {mean_exact:.6g}"
    return None


def csv_failure(key: str, returncode: int, stdout: str) -> str | None:
    """None when one `dov run-example <key> --no-timing` invocation passes
    the gate: exit code 0 and a CSV row with a finite residual and an E_inf
    within the ceiling."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = stdout.strip().splitlines()
    if len(lines) != 2:
        return f"expected a header and one CSV row, got {len(lines)} lines"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    try:
        n, m = int(row["N"]), int(row["M"])
        e_inf, residual = float(row["E_inf"]), float(row["residual_linf"])
    except (KeyError, ValueError) as exc:
        return f"malformed CSV row: {exc}"
    if not math.isfinite(residual):
        return f"residual_linf is {residual}"
    return error_ceiling_failure(key, n, m, e_inf)
