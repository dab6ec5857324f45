"""Metamorphic properties: what every solve must keep under a change of
variables (ROADMAP item 15).

Mapping [t0, tf] onto [a, b] by phi(s) = t0 + sigma (s - a), sigma =
(tf - t0)/(b - a), turns int_{t0}^{t} k(x, t) G(u(x)) dx = f(t) into the
same equation for v = u o phi on [a, b], with kernel
sigma^(1-n) k(phi(y), phi(s)) and right-hand side f o phi, n the derivative
order (n = 0 for the kinds where G acts pointwise).  The basis maps affinely
with the interval, so v has u's coefficients.

Scaling the kernel and f by the same c != 0 leaves the equation, and so U,
as it is.  Where G(u) is linear in u (G = u, and the Derivative kind) the
solution is linear in f: (k, c f) gives c U, and f1 + f2 gives U1 + U2.

Refining the basis keeps what it held: a solve that is exact at (N, M) is
exact at (2N, M), whose block edges include those of N, and at (N, M + 2).
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dovsolver.basis import BasisSpec, Interval, project
from dovsolver.expr import Bin, Call, Neg, Num, Var, parse
from dovsolver.registry import EXAMPLES
from dovsolver.solver import Derivative, Invertible, Problem, SolveOptions, solve
from test_manufactured import _KINDS as _MANUFACTURED_KINDS
from test_manufactured import coef, manufactured

FAST = SolveOptions(compute_residual=False)
EPS = np.finfo(float).eps

# max |dU| over the ten examples and the three intervals measured 16.7
# eps*condition_estimate at most (ex4 onto [10, 10.25]; ex9 moves 6.7e-10
# at 3.8); 64 leaves a factor of about 4 over that.  Scaling k and f by c
# (40 random c with |c| in [1e-3, 1e3] per example) measured 15.3 at most,
# relative to max(1, max |U|) (ex4; ex9 6.3, every other example below 0.5),
# inside the same multiple
EPS_COND_MULTIPLE = 64.0

# the linearity of the linear kinds in f, relative to max(1, max |U|) over
# the U involved, measured 0.27 eps*condition_estimate at most (G = u and
# Derivative orders 1 and 2 on every registry kernel, f and size; 20 random
# c per case); 2 leaves a factor of about 7 over that
LINEAR_EPS_COND_MULTIPLE = 2.0

# the error of U against the coefficients of an exact solution that the
# basis holds, relative to max(1, max |U|), measured at most 5.9
# eps*condition_estimate over every registry size drawn below (ex5 at
# (2, 4); ex7 1.4) and 0.51 over 600 drawn manufactured problems; 32 leaves
# a factor of about 5
REFINEMENT_EPS_COND_MULTIPLE = 32.0

# c = +-10^e, e in [-3, 3]
_SCALES = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                    st.floats(-3.0, 3.0))
_LINEAR_KINDS = {"G=u": Invertible(G=parse("u"), Ginv=parse("u")),
                 "u'": Derivative(order=1), "u''": Derivative(order=2)}


def _substitute(e, env):
    """e with each variable named in env replaced by env's expression."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, Neg):
        return replace(e, operand=_substitute(e.operand, env))
    if isinstance(e, Bin):
        return replace(e, lhs=_substitute(e.lhs, env), rhs=_substitute(e.rhs, env))
    if isinstance(e, Call):
        return replace(e, args=tuple(_substitute(arg, env) for arg in e.args))
    return e


def _mapped(problem: Problem, a: float, b: float) -> Problem:
    """problem on [a, b] by the affine change of variables above."""
    t0, tf = problem.spec.interval.t0, problem.spec.interval.tf
    sigma = (tf - t0) / (b - a)
    n = problem.nonlinearity.order if isinstance(problem.nonlinearity, Derivative) else 0
    env = {v: Bin("+", Num(t0), Bin("*", Num(sigma), Bin("-", Var(v), Num(a)))) for v in "xt"}
    return Problem(Bin("*", Num(sigma ** (1 - n)), _substitute(problem.kernel, env)),
                   _substitute(problem.f, env), problem.nonlinearity,
                   BasisSpec(Interval(a, b), problem.spec.N, problem.spec.M))


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_affine_interval_map_keeps_the_coefficients(key):
    problem = EXAMPLES[key].problem(*EXAMPLES[key].recommended)
    ref = solve(problem, FAST)
    tol = EPS_COND_MULTIPLE * np.finfo(float).eps * ref.diagnostics.condition_estimate
    for a, b in ((2.0, 4.0), (-3.0, 0.5), (10.0, 10.25)):
        got = solve(_mapped(problem, a, b), FAST)
        assert np.max(np.abs(got.U.c - ref.U.c)) <= tol, (a, b)
        assert got.diagnostics.newton_iters == ref.diagnostics.newton_iters, (a, b)


@functools.cache
def _solved(key: str, kind: str | None = None):
    """The registry example key at its recommended size, solved with the
    oracle off; kind swaps in one of _LINEAR_KINDS."""
    problem = EXAMPLES[key].problem(*EXAMPLES[key].recommended)
    if kind is not None:
        problem = replace(problem, nonlinearity=_LINEAR_KINDS[kind])
    return problem, solve(problem, FAST)


def _tol(multiple: float, condition: float, *coeffs: np.ndarray) -> float:
    return multiple * EPS * condition * max(1.0, *(np.max(np.abs(c)) for c in coeffs))


@pytest.mark.parametrize("key", sorted(EXAMPLES))
@settings(max_examples=4, deadline=None)
@given(c=_SCALES)
def test_scaling_kernel_and_f_together_keeps_the_coefficients(key, c):
    problem, ref = _solved(key)
    got = solve(replace(problem, kernel=Bin("*", Num(c), problem.kernel),
                        f=Bin("*", Num(c), problem.f)), FAST)
    tol = _tol(EPS_COND_MULTIPLE, ref.diagnostics.condition_estimate, ref.U.c)
    assert np.max(np.abs(got.U.c - ref.U.c)) <= tol


@pytest.mark.parametrize("kind", sorted(_LINEAR_KINDS))
@pytest.mark.parametrize("key", sorted(EXAMPLES))
@settings(max_examples=3, deadline=None)
@given(c=_SCALES)
def test_a_linear_kind_scales_u_with_f(key, kind, c):
    problem, ref = _solved(key, kind)
    got = solve(replace(problem, f=Bin("*", Num(c), problem.f)), FAST)
    expected = c * ref.U.c
    tol = _tol(LINEAR_EPS_COND_MULTIPLE, ref.diagnostics.condition_estimate, expected)
    assert np.max(np.abs(got.U.c - expected)) <= tol


@pytest.mark.parametrize("kind", sorted(_LINEAR_KINDS))
@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_a_linear_kind_adds_the_solutions_of_two_f(key, kind):
    # f2 = (1 + t - t0) f keeps what the kernel asks of f (f(t0) = 0, and
    # the factor t of ex9 and ex10's f) without being a multiple of f
    problem, sol1 = _solved(key, kind)
    f2 = Bin("*", parse(f"1+t-({problem.spec.interval.t0})"), problem.f)
    sol2 = solve(replace(problem, f=f2), FAST)
    got = solve(replace(problem, f=Bin("+", problem.f, f2)), FAST)
    expected = sol1.U.c + sol2.U.c
    tol = _tol(LINEAR_EPS_COND_MULTIPLE, sol1.diagnostics.condition_estimate,
               sol1.U.c, sol2.U.c)
    assert np.max(np.abs(got.U.c - expected)) <= tol


def _assert_exact_when_refined(build, u, N: int, M: int) -> None:
    """The solve of build(n, m) has u's coefficients to roundoff at (N, M),
    (2N, M) and (N, M + 2)."""
    for n, m in ((N, M), (2 * N, M), (N, M + 2)):
        problem = build(n, m)
        sol = solve(problem, FAST)
        tol = _tol(REFINEMENT_EPS_COND_MULTIPLE, sol.diagnostics.condition_estimate, sol.U.c)
        assert np.max(np.abs(sol.U.c - project(u, problem.spec).c)) <= tol, (n, m)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(sorted(_MANUFACTURED_KINDS)), difference=st.booleans(),
       N=st.integers(1, 3), extra=st.integers(0, 2), a=coef, b=coef, c=coef, p=coef, q=coef)
def test_refinement_keeps_a_manufactured_solution_exact(kind, difference, N, extra,
                                                        a, b, c, p, q):
    # the least M holds u and f, and so G(u) and every product the linear
    # stage forms, and is at least the Derivative kind's order 2 (u = 0 when
    # p = q = 0)
    u, f, build = manufactured(kind, difference, a, b, c, p, q)
    _assert_exact_when_refined(build, u, N, max(u.degree() + 1, f.degree() + 1, 2) + extra)


# the registry examples whose exact solution the basis holds, with their N
# step and least M: ex5's |t - 1/2| at even N, which puts the kink on a block
# edge, and M >= 4 for u^3; ex7's u = t at M >= 3 for u^2 - u
_IN_BASIS = {"ex5": (2, 4), "ex7": (1, 3)}


@settings(max_examples=10, deadline=None)
@given(key=st.sampled_from(sorted(_IN_BASIS)), k=st.integers(1, 3), extra=st.integers(0, 4))
def test_refinement_keeps_a_registry_solution_exact(key, k, extra):
    entry = EXAMPLES[key]
    step, least_m = _IN_BASIS[key]
    _assert_exact_when_refined(entry.problem, entry.exact_fn(), step * k, least_m + extra)
