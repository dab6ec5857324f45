"""Metamorphic properties: what every solve must keep under a change of
variables (ROADMAP item 15).

Mapping [t0, tf] onto [a, b] by phi(s) = t0 + sigma (s - a), sigma =
(tf - t0)/(b - a), turns int_{t0}^{t} k(x, t) G(u(x)) dx = f(t) into the
same equation for v = u o phi on [a, b], with kernel
sigma^(1-n) k(phi(y), phi(s)) and right-hand side f o phi, n the derivative
order (n = 0 for the kinds where G acts pointwise).  The basis maps affinely
with the interval, so v has u's coefficients.
"""

from dataclasses import replace

import numpy as np
import pytest

from dovsolver.basis import BasisSpec, Interval
from dovsolver.expr import Bin, Call, Neg, Num, Var
from dovsolver.registry import EXAMPLES
from dovsolver.solver import Derivative, Problem, SolveOptions, solve

FAST = SolveOptions(compute_residual=False)

# max |dU| over the ten examples and the three intervals measured 16.7
# eps*condition_estimate at most (ex4 onto [10, 10.25]; ex9 moves 6.7e-10
# at 3.8); 64 leaves a factor of about 4 over that
EPS_COND_MULTIPLE = 64.0


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
