"""Every registry entry must satisfy its own equation: the stored f has to
match the direct quadrature of K(x,t) G(u_exact(x)) from t0 to t."""

import numpy as np
import pytest

from dovsolver.expr import evaluate, parse
from dovsolver.registry import EXAMPLES

from test_oracle import _quad_blockwise

# G(u_exact(x)) written out by hand, independently of the registry entries
_G_OF_EXACT = {
    "ex1": lambda x: 6.0 * x,                                   # (t^3)''
    "ex2": lambda x: x,                                         # ln(e^x)
    "ex3": lambda x: np.exp(2 * x),                             # (e^x)^2
    "ex4": lambda x: np.cos(x),                                 # cos(t)
    "ex5": lambda x: np.abs(x - 0.5) ** 3,
    "ex6": lambda x: np.exp(-x),
    "ex7": lambda x: x * x - x,
    "ex8": lambda x: np.sin(x),                                 # e^(ln sin t)
    "ex9": lambda x: np.where(x < 0, np.abs(x), (x * (1 - x)) ** 2),
    "ex10": lambda x: np.where(x < 0, np.exp(-x),
                               np.where(x < 0.5, np.abs(x), 1 / np.sqrt(np.abs(x) + 1e-300))),
}


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_f_matches_quadrature_of_exact_solution(key):
    entry = EXAMPLES[key]
    problem = entry.problem(*entry.recommended)
    kern = parse(entry.kernel)
    f_expr = parse(entry.f)
    g = _G_OF_EXACT[key]
    t0 = problem.spec.interval.t0
    spec = problem.spec
    for t in np.linspace(t0, problem.spec.interval.tf, 17):
        ft = float(evaluate(f_expr, {"t": float(t)}))
        if t == t0:
            assert abs(ft) < 1e-12
            continue
        integral = _quad_blockwise(
            lambda x: np.asarray(evaluate(kern, {"x": x, "t": float(t)}), dtype=float) * g(x),
            spec, t0, float(t), 1e-13)
        assert abs(ft - integral) < 1e-10, f"{key} at t={t}"


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_exact_solution_matches_g_composition(key):
    # G applied to the stored exact solution reproduces the hand-written
    # composition except at isolated non-differentiable/jump points
    entry = EXAMPLES[key]
    exact = entry.exact_fn()
    nl = entry.nonlinearity
    lo, hi = entry.interval
    x = np.linspace(lo + 1e-6, hi - 1e-6, 211)
    if key == "ex1":
        return  # derivative kind: composition is u'', checked via f above
    got = np.array([float(evaluate(nl.G, {"u": float(exact(xi))})) for xi in x]) \
        if hasattr(nl, "G") else None
    if hasattr(nl, "alpha"):
        u = np.array([float(exact(xi)) for xi in x])
        got = np.polynomial.polynomial.polyval(u, np.asarray(nl.alpha))
    assert got is not None
    assert np.max(np.abs(got - _G_OF_EXACT[key](x))) < 1e-12


def test_recommended_sizes_cover_paper_tables():
    assert EXAMPLES["ex5"].recommended == (2, 4)
    assert EXAMPLES["ex10"].recommended == (3, 12)
    assert EXAMPLES["ex8"].interval == (1.0, 2.0)


def test_paper_reference_errors_present():
    assert EXAMPLES["ex1"].reference_errors[(1, 10)] == pytest.approx(1.24e-11)
    assert EXAMPLES["ex10"].reference_errors[(3, 12)] == pytest.approx(9.74e-11)
    assert EXAMPLES["ex6"].reference_errors[(1, 8)] == pytest.approx(1.29e-8)


def test_piecewise_exact_solution_is_nan_off_its_pieces():
    # each piece's own expression on its half-open range (the last closed),
    # bit for bit; off the interval there is no piece, so NaN, not whatever
    # an uninitialised array held
    entry = EXAMPLES["ex10"]
    exact = entry.exact_fn()
    t = np.array([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    want = np.array([float(evaluate(parse(text), {"t": ti}))
                     for ti in t for lo, hi, text in entry.exact
                     if lo <= ti < hi or (hi == entry.interval[1] and ti == hi)])
    assert np.array_equal(exact(t), want)
    assert [exact(float(ti)) for ti in t] == want.tolist()
    assert np.isnan(exact(2.0)) and np.isnan(exact(-1.0))
    got = exact(np.array([-1.0, 0.25, 2.0]))
    assert np.isnan(got[[0, 2]]).all() and got[1] == 0.0625
