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
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dovsolver.basis import BasisSpec, Interval
from dovsolver.expr import Bin, Call, Neg, Num, Var, parse
from dovsolver.registry import EXAMPLES
from dovsolver.solver import Derivative, Invertible, Problem, SolveOptions, solve

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
    problem = EXAMPLES[key].problem()
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
    problem = EXAMPLES[key].problem()
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
