"""Manufactured solutions: pick u and a kernel, build f exactly with
numpy.polynomial, solve, and compare with u.

Every u, G(u) and kernel here is a polynomial that the basis holds at
M = 16, so the solve reproduces u up to roundoff on any block count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from dovsolver.basis import BasisSpec, Interval
from dovsolver.expr import parse
from dovsolver.oracle import max_error_fn, uniform_grid
from dovsolver.solver import Collocation, Derivative, Invertible, Problem, SolveOptions, solve

X = Polynomial([0.0, 1.0])


def _text(p: Polynomial) -> str:
    """p as expression text in t."""
    return "+".join(f"({float(c)!r})*t^{k}" for k, c in enumerate(p.coef))


# each kind: (nonlinearity, u from two parameters in [-0.3, 0.3], G as a
# polynomial map)
_KINDS = {
    "derivative": (Derivative(order=2), lambda p, q: X**2 * (p + q * X),
                   lambda u: u.deriv(2)),
    "invertible": (Invertible(G=parse("u^3"), Ginv=parse("pow(u,1/3)")),
                   lambda p, q: 1.0 + p * X + q * X**2,  # u >= 0.4 on [0, 1]
                   lambda u: u**3),
    "collocation": (Collocation(G=parse("u+u^3"), bracket=(-1.0, 4.0)),
                    lambda p, q: 1.0 + p * X + q * X**2,
                    lambda u: u + u**3),
}

coef = st.floats(-0.3, 0.3)


def manufactured(kind, difference, a, b, c, p, q):
    """(u, f, build) of one manufactured problem on [0, 1]: u and f as
    polynomials, and build(N, M) its Problem at that size."""
    nonlinearity, make_u, G = _KINDS[kind]
    u = make_u(p, q)
    g = G(u)
    if difference:  # k = 1 + c (t - x)
        kernel = f"1+({c!r})*(t-x)"
        f = Polynomial([1.0, c]) * g.integ(lbnd=0.0) - c * (X * g).integ(lbnd=0.0)
    else:  # k = (1 + a x)(1 + b t)
        kernel = f"(1+({a!r})*x)*(1+({b!r})*t)"
        f = Polynomial([1.0, b]) * (Polynomial([1.0, a]) * g).integ(lbnd=0.0)
    k_expr, f_expr = parse(kernel), parse(_text(f))
    return u, f, lambda N, M: Problem(k_expr, f_expr, nonlinearity,
                                      BasisSpec(Interval(0.0, 1.0), N, M))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), difference=st.booleans(),
       N=st.integers(1, 4), a=coef, b=coef, c=coef, p=coef, q=coef)
def test_manufactured_solution_is_recovered(kind, difference, N, a, b, c, p, q):
    u, _, build = manufactured(kind, difference, a, b, c, p, q)
    problem = build(N, 16)
    spec = problem.spec
    sol = solve(problem, SolveOptions(compute_residual=False))
    assert max_error_fn(sol, u, uniform_grid(spec.interval, 1000)) <= 1e-9
