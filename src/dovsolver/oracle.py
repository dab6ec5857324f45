"""Independent reference computations: adaptive quadrature, equation
residuals, max-norm errors and build-time validation of the integration
matrix.

Nothing here reuses the operational-matrix formulas; this module is the
referee that decides disagreements between the algebra and the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .basis import (
    BasisSpec,
    CoeffVector,
    Interval,
    eval_series,
    gauss_chebyshev_nodes,
    hcp_eval,
    project,
)
from .expr import evaluate

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Problem, Solution


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Strictly increasing, finite evaluation points."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.array(self.points, dtype=float)
        if p.ndim != 1:
            raise ValueError(f"grid points must be a 1-D array, not of shape {p.shape}")
        if p.size == 0:
            raise ValueError("empty grid")
        if not np.all(np.isfinite(p)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(p) <= 0):
            raise ValueError("grid points must be strictly increasing")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    def __reduce__(self):  # unpickling skips __post_init__, which seals points
        return Grid, (self.points,)


# grid size of the residual a solve reports, and of a residual given no grid
RESIDUAL_GRID = 200
# quad_adaptive's tolerance for the inner integral of every residual
QUAD_TOL = 1e-12


def uniform_grid(interval: Interval, n: int = 1000) -> Grid:
    """n uniform points including both endpoints."""
    return Grid(np.linspace(interval.t0, interval.tf, n))


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1];
# the embedded Gauss nodes are every second abscissa.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _gk15(g, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 values and |Kronrod - Gauss| estimates on the ranges [lo[i], hi[i]],
    from one call of g on their (P, 15) nodes."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.broadcast_to(np.asarray(g(mid[:, None] + half[:, None] * _XGK), dtype=float),
                         (lo.size, _XGK.size))
    kron = half * (fx @ _WGK)
    with np.errstate(invalid="ignore"):  # inf - inf where g has a pole on a node
        return kron, np.abs(kron - half * (fx[:, 1::2] @ _WG))


def _budget(whole, tol: float):
    """The error budget of a range whose GK15 value is whole: the share
    tol*(1 + |whole|), and a roundoff floor 64*eps*(1 + |whole|), which jump
    discontinuities need for termination, as their local estimate decays only
    like the width, exactly as the width-proportional share does."""
    magnitude = np.where(np.isfinite(whole), np.abs(whole), 0.0)
    return tol * (1.0 + magnitude), 64.0 * np.finfo(float).eps * (1.0 + magnitude)


def _bisect(g, a: float, b: float, whole: float, err: float, tol: float) -> float:
    """Integral of g over [a, b], whose GK15 value and estimate are whole and
    err: ranges are bisected, both halves in one call of g, until each
    estimate fits its width's share of the budget of whole, or the floor."""
    scale, floor = (float(v) for v in _budget(whole, tol))
    stack = [(a, b, whole, err, 0)]
    total = 0.0
    while stack:
        lo, hi, val, err, depth = stack.pop()
        if err <= max(scale * (hi - lo) / (b - a), floor):
            total += val
            continue
        if depth >= 50:
            raise QuadratureError(
                f"subdivision limit exceeded on [{lo}, {hi}] (error estimate {err:g})")
        mid = 0.5 * (lo + hi)
        vals, errs = _gk15(g, np.array([lo, mid]), np.array([mid, hi]))
        stack.append((lo, mid, vals[0], errs[0], depth + 1))
        stack.append((mid, hi, vals[1], errs[1], depth + 1))
    return total


def quad_adaptive(g: Callable, a: float, b: float, tol: float = 1e-12) -> float:
    """Integral of g over [a, b] by adaptive 15-point Gauss-Kronrod.

    Intervals are bisected until the local error estimate fits a
    width-proportional share of tol*(1 + |integral|); abscissae are strictly
    interior, so integrable endpoint behavior is tolerated.  g is called on
    numpy arrays of nodes of shape (P, 15), one row per range: (1, 15) for
    [a, b], then (2, 15) for the two halves of each split.

    The rule is open: a discontinuity hiding in the outer ~1% of a
    subinterval, next to an endpoint, can evade every node and corrupt the
    estimate.  Split the range at known discontinuities (see _blockwise_integrals)
    instead of relying on adaptivity to find them.
    """
    if not a <= b:  # a NaN bound too, which would leave no panel
        raise ValueError(f"reversed integration range: [{a}, {b}]")
    if np.isinf(a) or np.isinf(b):  # GK15 nodes there are not numbers
        raise ValueError(f"infinite integration range: [{a}, {b}]")
    if not tol >= 0:  # a NaN tol would fail every budget down to the depth limit
        raise ValueError(f"tol must be a nonnegative number: {tol!r}")
    return float(_blockwise_integrals(lambda x, _: g(x), np.empty(0), np.array([a], float),
                                      np.array([b], float), np.zeros(1), tol)[0])


# panels per batched GK15 evaluation: bounds the (panels, 15) node arrays and
# what an integrand builds from them, whatever the grid and the basis size
_PANEL_CHUNK = 256


def _block_edges(spec: BasisSpec) -> np.ndarray:
    """The interior block edges, where piecewise series (and hence residual
    integrands) may jump."""
    return spec.interval.t0 + np.arange(1, spec.N) * spec.block_width


def _blockwise_integrals(integrand, edges: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         param: np.ndarray, tol: float) -> np.ndarray:
    """Integral of integrand(x, param[i]) over each range [lo[i], hi[i]],
    split at the increasing edges inside it.

    Piece n of range i is [max(lo[i], e_n), min(hi[i], e_{n+1})], e_n the
    edges with e_0 = -inf and e_N = inf; the pieces of positive width are
    the panels.  integrand takes nodes x of shape (P, 15) with param of
    shape (P, 1) or (1, 1).  One GK15 rule runs on every panel, a chunk of
    panels per call.  A panel whose estimate fits its budget keeps the
    rule's value; any other panel is bisected from that value and estimate.
    """
    left = np.maximum(lo[:, None], np.concatenate(([-np.inf], edges)))
    right = np.minimum(hi[:, None], np.concatenate((edges, [np.inf])))
    live = right > left
    lo, hi = left[live], right[live]
    param = np.broadcast_to(param[:, None], live.shape)[live]
    panels = np.empty(lo.size)
    for s in range(0, lo.size, _PANEL_CHUNK):
        a, b, p = lo[s:s + _PANEL_CHUNK], hi[s:s + _PANEL_CHUNK], param[s:s + _PANEL_CHUNK]
        kron, err = _gk15(lambda x: integrand(x, p[:, None]), a, b)
        panels[s:s + a.size] = kron
        for i in np.flatnonzero(~(err <= np.maximum(*_budget(kron, tol)))).tolist():
            pi = p[i:i + 1, None]
            panels[s + i] = _bisect(lambda x: integrand(x, pi), float(a[i]), float(b[i]),
                                    float(kron[i]), float(err[i]), tol)
    pieces = np.zeros(live.shape)
    pieces[live] = panels
    return pieces.sum(axis=1)


def _points_inside(grid: Grid, interval: Interval) -> np.ndarray:
    """The grid's points; a ValueError naming the first one off the interval."""
    points = grid.points
    outside = points[(points < interval.t0) | (points > interval.tf)]
    if outside.size:
        raise ValueError(
            f"grid point t = {float(outside[0])} lies outside the problem interval "
            f"[{interval.t0}, {interval.tf}]")
    return points


def _residual(problem, g, grid: Grid | None) -> float:
    """Max over the grid of |f(t) - int_{t0}^t K(x,t) g(x) dx| with the
    inner integrals of all grid points taken at once by _blockwise_integrals.
    A NaN anywhere gives NaN."""
    if grid is None:
        grid = uniform_grid(problem.spec.interval, RESIDUAL_GRID)
    kern = problem.kernel
    spec = problem.spec
    points = _points_inside(grid, spec.interval)
    # f once on the whole grid (a constant f evaluates to one number)
    f_values = np.broadcast_to(np.asarray(evaluate(problem.f, {"t": points}),
                                          dtype=float), points.shape)

    def integrand(x, t):
        return np.asarray(evaluate(kern, {"x": x, "t": t}), dtype=float) * g(x)

    # [t0, t0] has no panel: the integral at t = t0 is 0 without a node
    inner = _blockwise_integrals(integrand, _block_edges(spec),
                                 np.full(points.size, spec.interval.t0), points, points, QUAD_TOL)
    return float(np.max(np.abs(f_values - inner)))


def equation_residual(problem, U: CoeffVector, grid: Grid | None = None) -> float:
    """Residual of the integral equation with G(u(x)) composed pointwise
    from the series U."""
    return _residual(problem, problem.nonlinearity.g_from_coeffs(U), grid)


def residual_linf(problem: "Problem", solution: "Solution",
                  grid: Grid | None = None) -> float:
    """Oracle residual of the integral equation for a computed solution."""
    return equation_residual(problem, solution.U, grid)


def composite_residual(problem, Z: CoeffVector, grid: Grid | None = None) -> float:
    """Residual with G(u(x)) taken as the series Z produced by a linear
    stage, bypassing the pointwise composition through U."""
    return _residual(problem, lambda x: eval_series(Z, x), grid)


def max_error_fn(solution_or_cv, exact: Callable, grid: Grid) -> float:
    """Max absolute pointwise error against a callable reference; a grid
    point off the series' interval raises ValueError, as in _residual."""
    cv = getattr(solution_or_cv, "U", solution_or_cv)
    points = _points_inside(grid, cv.spec.interval)
    approx = eval_series(cv, points)
    target = np.asarray(exact(points), dtype=float)
    return float(np.max(np.abs(target - approx)))


def weighted_l2_error(f: Callable, cv: CoeffVector) -> float:
    """Weighted L2 norm of f minus its series, by per-block Gauss-Chebyshev
    quadrature with 256 nodes."""
    spec = cv.spec
    x = gauss_chebyshev_nodes(256)
    total = 0.0
    w = np.pi / (256 * spec.interval.A * spec.N)
    for n0 in range(spec.N):
        tq = spec.block_nodes(n0, x)
        diff = np.asarray(f(tq), dtype=float) - eval_series(cv, tq)
        total += w * float(diff @ diff)
    return float(np.sqrt(total))


@dataclass(frozen=True)
class IntegrationMatrixReport:
    """Max coefficient deviation of the matrix route from the quadrature
    route, with the inherent last-row truncation listed separately."""

    spec: BasisSpec
    max_deviation: float
    truncated_mass: float


def _cumulative_values(g, spec: BasisSpec, nodes: np.ndarray, tol: float) -> np.ndarray:
    """Integrals of g from t0 to each node: the gaps between the sorted
    nodes, split at block edges where g may jump, by one
    _blockwise_integrals pass, summed in node order (errors add up across at
    most len(nodes) + N short segments)."""
    order = np.argsort(nodes)
    ends = nodes[order]
    starts = np.concatenate(([spec.interval.t0], ends[:-1]))
    gaps = _blockwise_integrals(lambda x, _: g(x), _block_edges(spec), starts, ends, ends, tol)
    out = np.empty(nodes.size)
    out[order] = np.cumsum(gaps)
    return out


def validate_integration_matrix(spec: BasisSpec) -> IntegrationMatrixReport:
    """Compare every row of the integration matrix against projections of
    independently integrated basis functions."""
    from .opalg import integration_matrix  # oracle stays import-light

    qa = integration_matrix(spec)
    worst = 0.0
    for r in range(1, spec.dim + 1):
        def antiderivative(t, _r=r):
            ta = np.atleast_1d(np.asarray(t, dtype=float))
            return _cumulative_values(
                lambda x: hcp_eval(spec, _r, x), spec, ta, 1e-13)

        actual = project(antiderivative, spec).c
        worst = max(worst, float(np.max(np.abs(qa[r - 1] - actual))))
    truncated = 1.0 / (2.0 * spec.M * spec.interval.A * spec.N)
    return IntegrationMatrixReport(spec, worst, truncated)
