import ast
import math
import pickle
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from dovsolver import oracle
from dovsolver.basis import BasisSpec, CoeffVector, Interval, eval_series, hcp_eval, project
from dovsolver.expr import evaluate, parse
from dovsolver.oracle import (
    Grid,
    IntegrationMatrixReport,
    QuadratureError,
    composite_residual,
    equation_residual,
    max_error_fn,
    quad_adaptive,
    residual_linf,
    uniform_grid,
    validate_integration_matrix,
    weighted_l2_error,
)
from dovsolver.registry import EXAMPLES
from dovsolver.solver import (
    Collocation,
    Derivative,
    Invertible,
    Polynomial,
    Problem,
    SolveOptions,
    solve,
)


def test_quad_constant():
    assert quad_adaptive(lambda x: np.ones_like(x), 0, 1) == pytest.approx(1.0, abs=1e-14)


def test_quad_cubic():
    assert quad_adaptive(lambda x: x**3, 0, 1) == pytest.approx(0.25, abs=1e-14)


def test_quad_degree_two_chebyshev():
    assert quad_adaptive(lambda x: 2 * x**2 - 1, -1, 1) == pytest.approx(-2 / 3, abs=1e-12)


def test_quad_rule_exactness_degree_22():
    # the embedded 15-point Kronrod rule integrates degree <= 22 exactly,
    # which validates the hard-coded nodes and weights
    for k in (10, 15, 22):
        exact = (1 - (-1) ** (k + 1)) / (k + 1)
        assert quad_adaptive(lambda x, k=k: x**k, -1, 1, 1e-13) == pytest.approx(
            exact, abs=1e-13)


def test_quad_against_scipy():
    cases = [
        (lambda x: np.exp(x) * np.sin(5 * x), -1.0, 2.0),
        (lambda x: 1.0 / (1.0 + 25.0 * x**2), -1.0, 1.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
    ]
    for g, a, b in cases:
        ref = scipy.integrate.quad(g, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
        assert quad_adaptive(g, a, b, 1e-12) == pytest.approx(ref, abs=1e-10)


def test_quad_jump_integrand():
    got = quad_adaptive(lambda x: np.where(x < 1 / 3, 0.0, 2.0), 0, 1, 1e-12)
    assert got == pytest.approx(4 / 3, abs=1e-12)


def test_quad_bounded_endpoint_singularity():
    # bounded integrands with singular endpoint derivatives resolve through
    # the roundoff floor; the endpoints themselves are never evaluated
    got = quad_adaptive(lambda x: np.sqrt(x), 0, 1, 1e-12)
    assert got == pytest.approx(2 / 3, abs=1e-10)


def test_quad_reversed_range_rejected():
    with pytest.raises(ValueError):
        quad_adaptive(lambda x: x, 1, 0)


def test_quad_rejects_a_nan_bound():
    # [nan, 1] has no panel, so without the check it would integrate to 0
    for a, b in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="integration range"):
            quad_adaptive(lambda x: x, a, b)


def test_quad_rejects_an_infinite_bound():
    # used to warn three times and then bisect to the depth limit, naming
    # [inf, inf] for (0, inf)
    for a, b in ((-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^infinite integration range: \["):
                quad_adaptive(np.exp, a, b)


def test_quad_rejects_a_nan_or_negative_tol():
    # a NaN tol used to bisect to the depth limit, a negative one passed
    for tol in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            quad_adaptive(np.sin, 0.0, 1.0, tol=tol)
    assert quad_adaptive(lambda x: 2.0 * x, 0.0, 1.0, tol=0.0) == pytest.approx(1.0, abs=1e-14)


def test_quad_subdivision_limit():
    # unbounded behavior exhausts the depth budget
    with np.errstate(divide="ignore"):
        with pytest.raises(QuadratureError, match="subdivision"):
            quad_adaptive(lambda x: 1.0 / np.abs(x - 0.5), 0, 1, 1e-12)


def test_quad_calls_g_on_the_range_then_on_both_halves_of_each_split():
    # the first rule on [a, b] as one (1, 15) array, then each split's two
    # halves in one call
    shapes = []

    def g(x):
        shapes.append(np.shape(x))
        return np.sqrt(x)

    assert quad_adaptive(g, 0, 1) == pytest.approx(2 / 3, abs=1e-10)
    assert shapes[0] == (1, 15)
    assert len(shapes) > 1 and set(shapes[1:]) == {(2, 15)}


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(np.array([]))
    g = uniform_grid(Interval(0, 1), 11)
    assert g.points[0] == 0.0 and g.points[-1] == 1.0 and g.points.size == 11


def test_grid_rejects_points_that_are_not_one_dimensional():
    # a 2-D array once passed every check and failed deep in the integrator
    # with an IndexError
    for bad in ([[0.0, 0.5], [0.6, 1.0]], 0.5):
        with pytest.raises(ValueError, match="1-D"):
            Grid(np.array(bad))


def test_grid_pickles_read_only():
    # unpickling skips __post_init__, which marks the points read-only
    g = uniform_grid(Interval(0, 1), 11)
    back = pickle.loads(pickle.dumps(g))
    assert np.array_equal(back.points, g.points)
    assert not back.points.flags.writeable


def test_grid_rejects_non_finite_points():
    # np.diff of a NaN compares False against 0, so monotonicity alone
    # would let these through
    for bad in ([0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array(bad))


def test_residual_rejects_points_outside_the_interval():
    # beyond tf the series would be clamped to its end value and the
    # residual would look like a wrong answer instead of a wrong grid
    e7 = EXAMPLES["ex7"]
    p = e7.problem(1, 3)
    U = project(lambda t: t, p.spec)
    for points, bad in (([1.0, 3.0], "3.0"), ([-0.5, 1.0], "-0.5")):
        with pytest.raises(ValueError, match=f"t = {bad} lies outside"):
            equation_residual(p, U, Grid(np.array(points)))


def _quad_blockwise(g, spec, lo, hi, tol):
    # quad_adaptive over [lo, hi] split at the block edges inside it, one
    # scalar call per piece: the oracle's inner integral before its first
    # GK15 pass was batched over all panels
    edges = [spec.interval.t0 + n * spec.block_width for n in range(1, spec.N)]
    pts = [lo, *(e for e in edges if lo < e < hi), hi]
    return sum(quad_adaptive(g, a, b, tol) for a, b in zip(pts[:-1], pts[1:]))


def _per_point_residual(problem, U, grid, quad_tol=1e-12):
    # the oracle's residual as a plain loop: f evaluated at each grid point
    # on its own
    g = problem.nonlinearity.g_from_coeffs(U)
    t0 = problem.spec.interval.t0
    worst = 0.0
    for t in grid.points:
        t = float(t)
        ft = float(evaluate(problem.f, {"t": t}))
        if t == t0:
            worst = max(worst, abs(ft))
            continue

        def integrand(x, _t=t):
            return np.asarray(evaluate(problem.kernel, {"x": x, "t": _t}), dtype=float) * g(x)

        worst = max(worst, abs(ft - _quad_blockwise(integrand, problem.spec, t0, t, quad_tol)))
    return worst


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_residual_matches_per_point_reference(key):
    # f evaluated once on the whole grid gives the per-point loop's residual
    e = EXAMPLES[key]
    p = e.problem()
    U = solve(p, SolveOptions(compute_residual=False)).U
    grid = uniform_grid(p.spec.interval, 200)
    want = _per_point_residual(p, U, grid)
    assert abs(equation_residual(p, U, grid) - want) <= 1e-13
    assert want > 0.0


_KINDS = {
    "derivative": Derivative(2),
    "invertible": Invertible(G=parse("exp(u)"), Ginv=parse("ln(u)")),
    "collocation": Collocation(G=parse("u^3 + u"), bracket=(-2.0, 2.0)),
    "polynomial": Polynomial((0.5, -1.0, 2.0)),
}


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 4), M=st.integers(2, 8), kind=st.sampled_from(sorted(_KINDS)),
       kernel=st.sampled_from(["exp(t-x)", "1", "cos(t*x) + x", "t - x"]),
       interval=st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
       inner=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_batched_residual_matches_per_point_reference(N, M, kind, kernel, interval, coeffs,
                                                      inner):
    # grids holding t0, tf and every block edge, where segments start,
    # end or vanish, besides points in between
    spec = BasisSpec(Interval(*interval), N, M)
    t0, width = spec.interval.t0, spec.interval.width
    edges = [t0 + n * spec.block_width for n in range(1, N)]
    grid = Grid(np.unique([t0, spec.interval.tf, *edges, *(t0 + width * a for a in inner)]))
    p = Problem(parse(kernel), parse("t - t"), _KINDS[kind], spec)
    U = CoeffVector(spec, np.array(coeffs[:spec.dim]) / np.arange(1, spec.dim + 1))
    assert abs(equation_residual(p, U, grid) - _per_point_residual(p, U, grid)) <= 1e-13


def _unit_problem(kernel, f, N, M, interval=(0.0, 1.0)):
    # G(u) = u with U = 1 on every block, so the inner integral is that of K
    spec = BasisSpec(Interval(*interval), N, M)
    p = Problem(parse(kernel), parse(f), Invertible(G=parse("u"), Ginv=parse("u")), spec)
    return p, CoeffVector(spec, np.tile(np.eye(1, M)[0], N))


def test_residual_skips_the_empty_panel_at_t0():
    # ln(x) is undefined at x = t0 = 0, where the panel [t0, t0] has width 0:
    # it is 0 without a node being evaluated, and |t ln t| peaks at 1/e
    p, U = _unit_problem("ln(x) + 2", "t", 2, 4)
    grid = uniform_grid(p.spec.interval, 41)
    got = equation_residual(p, U, grid)
    assert got == pytest.approx(1 / math.e, abs=1e-4)
    assert abs(got - _per_point_residual(p, U, grid)) <= 1e-13


def test_residual_is_nan_where_f_is_nan():
    # exp(1000 t)*0 is NaN past t = 0.71, at 58 of the 200 grid points; the
    # grid max once kept the finite values only
    p, U = _unit_problem("1", "t + exp(1000*t)*0", 1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(equation_residual(p, U))


def test_failing_panels_are_bisected_from_their_first_rule(monkeypatch):
    # ln(x) is singular at t0 = 0, so every panel [0, min(t, 1/2)] fails the
    # first pass; no panel's nodes are evaluated twice at one grid point,
    # and every kernel evaluation after the first pass is one split's halves
    p, U = _unit_problem("ln(x) + 2", "t", 2, 4)
    grid = uniform_grid(p.spec.interval, 41)
    calls = []

    def recording(e, bindings):
        if "x" in bindings:
            x = np.asarray(bindings["x"])
            t = np.broadcast_to(bindings["t"], x.shape)
            calls.append((x.reshape(-1, 15), t.reshape(-1, 15)))
        return evaluate(e, bindings)

    monkeypatch.setattr(oracle, "evaluate", recording)
    got = equation_residual(p, U, grid)
    assert abs(got - _per_point_residual(p, U, grid)) <= 1e-13
    # one first pass: 40 points past t0, and 20 of them past the edge 1/2
    assert calls[0][0].shape == (60, 15)
    assert len(calls) > 1 and {x.shape for x, _ in calls[1:]} == {(2, 15)}
    rows = [(x.tobytes(), t.tobytes()) for xs, ts in calls for x, t in zip(xs, ts)]
    assert len(set(rows)) == len(rows)


def test_nan_integrand_raises_quadrature_error_through_the_refinement():
    # a panel whose first GK15 value is NaN fails the first test, and the
    # scalar refinement reaches its subdivision limit
    p, U = _unit_problem("exp(1000*x)*0 + 1", "t", 1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="subdivision"):
            equation_residual(p, U)


def test_residual_memory_is_bounded_by_the_panel_chunk():
    # 200 grid points over 256 blocks are 25,600 panels; their GK15 nodes
    # against 16 degrees in eval_series would be 49 MB per temporary at once
    p, U = _unit_problem("exp(t-x)", "exp(t) - 1", 256, 16)
    tracemalloc.start()
    try:
        got = equation_residual(p, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got <= 1e-12
    assert peak < 64 * 2**20


def test_cumulative_values_match_per_gap_reference():
    # every gap between sorted nodes, split at block edges, by scalar calls
    spec = BasisSpec(Interval(0.0, 1.0), 3, 4)
    nodes = np.array([0.9, 0.1, 1 / 3, 0.5, 0.0, 2 / 3, 1.0])
    for r in (1, 6, 12):
        g = lambda x, r=r: hcp_eval(spec, r, x)  # noqa: E731
        got = oracle._cumulative_values(g, spec, nodes, 1e-13)
        order = np.argsort(nodes)
        starts = np.concatenate(([0.0], nodes[order][:-1]))
        want = np.cumsum([_quad_blockwise(g, spec, float(a), float(b), 1e-13)
                          for a, b in zip(starts, nodes[order])])
        assert np.max(np.abs(got[order] - want)) <= 1e-14


def test_residual_of_planted_exact_solution():
    e7 = EXAMPLES["ex7"]
    p = e7.problem(1, 3)
    U = project(lambda t: t, p.spec)
    assert equation_residual(p, U, grid=uniform_grid(p.spec.interval, 40)) <= 1e-11


def test_residual_of_zero_solution_is_f():
    e7 = EXAMPLES["ex7"]
    p = e7.problem(1, 3)
    U = CoeffVector(p.spec, np.zeros(3))
    got = equation_residual(p, U, grid=Grid(np.array([2.0])))
    assert got == pytest.approx(2 / 3, abs=1e-12)


def test_residual_of_projected_exponential():
    e3 = EXAMPLES["ex3"]
    p = e3.problem(1, 12)
    U = project(np.exp, p.spec)
    assert equation_residual(p, U, grid=uniform_grid(p.spec.interval, 40)) <= 1e-9


def test_residual_linf_takes_solution():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(EXAMPLES["ex1"].problem(1, 8),
                               SolveOptions(compute_residual=False))
    p = EXAMPLES["ex1"].problem(1, 8)
    assert residual_linf(p, sol, uniform_grid(p.spec.interval, 60)) < 1e-7


def test_composite_residual_uses_z_series():
    e2 = EXAMPLES["ex2"]
    p = e2.problem(1, 10)
    Z = project(lambda t: t, p.spec)  # G(u) = ln(exp(t)) = t exactly
    assert composite_residual(p, Z, uniform_grid(p.spec.interval, 40)) < 1e-10


def test_max_error_of_series_against_itself():
    spec = BasisSpec(Interval(0, 1), 1, 5)
    cv = project(np.exp, spec)
    g = uniform_grid(spec.interval, 300)
    assert max_error_fn(cv, lambda t: eval_series(cv, t), g) < 1e-15


def test_max_error_exact_polynomial():
    spec = BasisSpec(Interval(0, 1), 1, 6)
    cv = project(lambda t: t**3, spec)
    g = uniform_grid(spec.interval, 1000)
    assert max_error_fn(cv, lambda t: evaluate(parse("t^3"), {"t": t}), g) <= 1e-13


def test_max_error_rejects_points_outside_the_interval():
    # off its interval a series is clamped to its end value, so an error
    # there measures the grid, not the solution; the residual rejects the
    # same points with the same message
    e2 = EXAMPLES["ex2"]
    p = e2.problem(1, 10)
    sol = solve(p, SolveOptions(compute_residual=False))
    grid = Grid(np.array([2.0, 3.0]))
    for measure in (lambda: max_error_fn(sol, e2.exact_fn(), grid),
                    lambda: residual_linf(p, sol, grid)):
        with pytest.raises(ValueError, match=r"t = 2.0 lies outside the problem interval \[0"):
            measure()


def test_weighted_l2_error_of_self_is_zero():
    spec = BasisSpec(Interval(0, 1), 2, 5)
    cv = project(np.exp, spec)
    assert weighted_l2_error(lambda t: eval_series(cv, t), cv) <= 1e-13


def test_weighted_l2_error_of_unit_weight_mass():
    spec = BasisSpec(Interval(-1, 1), 1, 4)
    zero = CoeffVector(spec, np.zeros(4))
    assert weighted_l2_error(lambda t: np.ones_like(t), zero) == pytest.approx(
        math.sqrt(math.pi), abs=1e-10)


def test_weighted_l2_error_within_smoothness_bound():
    spec = BasisSpec(Interval(0, 1), 2, 4)
    err = weighted_l2_error(np.exp, project(np.exp, spec))
    bound = math.e / (2**3 * math.factorial(4)) * math.sqrt(math.pi / 4)
    assert err <= bound


@pytest.mark.parametrize("N,M", [(1, 6), (3, 4), (1, 2)])
def test_validate_integration_matrix(N, M):
    report = validate_integration_matrix(BasisSpec(Interval(-1, 1), N, M))
    assert isinstance(report, IntegrationMatrixReport)
    assert report.max_deviation <= 1e-10
    a_n = 1.0 * N  # A = 1 on [-1, 1]
    assert report.truncated_mass == pytest.approx(1.0 / (2 * M * a_n))


def test_validate_integration_matrix_off_reference_interval():
    report = validate_integration_matrix(BasisSpec(Interval(0, 1), 3, 4))
    assert report.max_deviation <= 1e-10


def _imports(node, where="module"):
    """(imported dotted name, enclosing function or TYPE_CHECKING) of every
    import under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = node.name
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        for child in node.body:
            yield from _imports(child, "TYPE_CHECKING")
        for child in node.orelse:
            yield from _imports(child, where)
        return
    if isinstance(node, ast.Import):
        yield from ((alias.name, where) for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield from ((f"{node.module or ''}.{alias.name}".lstrip("."), where)
                    for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, where)


def test_oracle_imports_no_operational_matrix_formulas():
    # the referee stays independent of the algebra it checks: of opalg and
    # solver it imports only the matrix it validates, inside the validator,
    # and the two types its signatures name
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    touching = {(name, where) for name, where in _imports(tree)
                if {"opalg", "solver"} & set(name.split("."))}
    assert touching == {
        ("opalg.integration_matrix", "validate_integration_matrix"),
        ("solver.Problem", "TYPE_CHECKING"),
        ("solver.Solution", "TYPE_CHECKING"),
    }
