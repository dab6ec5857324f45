import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from dovsolver.basis import (
    BasisSpec,
    CoeffVector,
    Interval,
    chebyshev_eval,
    chebyshev_vandermonde,
    eval_series,
    gauss_chebyshev_nodes,
    gauss_chebyshev_transform,
    hcp_eval,
    project,
    projection_rule_size,
    series_derivative,
)
from dovsolver.expr import EvalError, evaluate, parse
from dovsolver.oracle import weighted_l2_error
from paper_matrices import basis_matrix, block_index, constant_coeffs, local_coord


def test_interval_scaling():
    iv = Interval(0.0, 1.0)
    assert iv.A == 2.0
    assert Interval(-1.0, 1.0).A == 1.0
    for t0, tf in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            Interval(t0, tf)


def test_chebyshev_eval_examples():
    assert chebyshev_eval(0, 0.3) == 1.0
    assert chebyshev_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    assert chebyshev_eval(5, math.cos(0.7)) == pytest.approx(math.cos(3.5), abs=1e-12)


def test_chebyshev_eval_clamps_roundoff():
    assert chebyshev_eval(3, 1.0 + 5e-13) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chebyshev_eval(3, 1.1)


def test_hcp_eval_examples():
    spec = BasisSpec(Interval(0, 1), 1, 4)
    assert hcp_eval(spec, 1, 0.37) == 1.0

    spec = BasisSpec(Interval(0, 1), 2, 3)
    assert hcp_eval(spec, 4, 0.25) == 0.0
    # local argument 4*0.75 - 3 = 0 and phi_1(0) = 0
    assert hcp_eval(spec, 5, 0.75) == pytest.approx(0.0, abs=1e-15)


def test_hcp_eval_index_range():
    spec = BasisSpec(Interval(0, 1), 2, 3)
    with pytest.raises(IndexError):
        hcp_eval(spec, 0, 0.5)
    with pytest.raises(IndexError):
        hcp_eval(spec, 7, 0.5)


def test_block_ownership_half_open():
    spec = BasisSpec(Interval(0, 1), 2, 2)
    assert block_index(spec, 0.5) == 1  # boundary belongs to the right block
    assert block_index(spec, 1.0) == 1  # last block closed
    assert block_index(spec, 0.0) == 0


def test_project_constant():
    for spec in (BasisSpec(Interval(0, 1), 1, 4), BasisSpec(Interval(-1, 2), 3, 5)):
        cv = project(lambda t: np.ones_like(t), spec)
        expected = constant_coeffs(spec, 1.0)
        assert np.allclose(cv.c, expected.c, atol=1e-14)


def test_project_linear_on_reference():
    cv = project(lambda t: t, BasisSpec(Interval(-1, 1), 1, 4))
    assert np.allclose(cv.c, [0, 1, 0, 0], atol=1e-14)


def test_project_quadratic_coeffs():
    cv = project(lambda t: t**2, BasisSpec(Interval(0, 1), 1, 5))
    assert np.allclose(cv.c, [3 / 8, 1 / 2, 1 / 8, 0, 0], atol=1e-14)


def test_eval_series_examples():
    spec = BasisSpec(Interval(0, 1), 1, 4)
    cv = project(lambda t: np.ones_like(t), spec)
    assert eval_series(cv, 0.42) == pytest.approx(1.0, abs=1e-14)

    cv = CoeffVector(BasisSpec(Interval(-1, 1), 1, 4), [0, 1, 0, 0])
    assert eval_series(cv, 0.3) == pytest.approx(0.3, abs=1e-15)

    cv = project(lambda t: t**3, BasisSpec(Interval(0, 1), 1, 6))
    assert eval_series(cv, 0.5) == pytest.approx(0.125, abs=1e-12)


def test_coeff_vector_validation():
    spec = BasisSpec(Interval(0, 1), 2, 3)
    with pytest.raises(ValueError):
        CoeffVector(spec, [1.0, 2.0])


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("M", [2, 4, 6, 8])
def test_orthogonality(N, M):
    # independent quadrature: Gauss-Legendre in theta, where the weighted
    # inner product per block becomes a plain integral of cos products
    spec = BasisSpec(Interval(0.0, 1.5), N, M)
    theta, wq = np.polynomial.legendre.leggauss(200)
    theta = 0.5 * math.pi * (theta + 1.0)
    wq = wq * 0.5 * math.pi
    x = np.cos(theta)
    gram = np.zeros((spec.dim, spec.dim))
    for n0 in range(N):
        t = spec.block_nodes(n0, x)
        H = basis_matrix(spec, t)
        gram += (H * wq[:, None]).T @ H / (spec.interval.A * N)
    a_n = spec.interval.A * N
    expected = np.zeros_like(gram)
    for r in range(spec.dim):
        m = r % M
        expected[r, r] = math.pi / a_n if m == 0 else math.pi / (2 * a_n)
    assert np.max(np.abs(gram - expected)) < 1e-10


@pytest.mark.parametrize("N,M", [(1, 3), (2, 4), (3, 6)])
def test_projection_exactness_for_polynomials(N, M):
    rng = np.random.default_rng(42)
    spec = BasisSpec(Interval(-0.5, 2.0), N, M)
    coeffs = rng.normal(size=M)  # global polynomial of degree M-1
    p = np.polynomial.Polynomial(coeffs)
    # the L2 rule and interpolation at the M nodes both reproduce degree M-1
    for rule in (None, M):
        cv = project(p, spec, rule=rule)
        for n0 in range(N):
            t = spec.block_nodes(n0, rng.uniform(-1, 1, 100))
            assert np.max(np.abs(eval_series(cv, t) - p(t))) < 1e-12


@pytest.mark.parametrize("N,M", [(1, 1), (1, 7), (3, 5), (4, 12)])
def test_project_with_rule_m_interpolates_at_the_nodes(N, M):
    spec = BasisSpec(Interval(-0.5, 2.0), N, M)
    f = lambda t: np.exp(np.sin(3.0 * t))  # noqa: E731
    cv = project(f, spec, rule=M)
    for n0 in range(N):
        t = spec.block_nodes(n0, gauss_chebyshev_nodes(M))
        assert np.max(np.abs(eval_series(cv, t) - f(t))) < 1e-13


def test_project_samples_every_block_in_one_call():
    spec = BasisSpec(Interval(0.0, 1.0), 4, 6)
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return np.cos(t)

    t = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(eval_series(project(f, spec), t) - np.cos(t))) < 1e-9
    assert calls == [(spec.N * projection_rule_size(spec.M),)]
    calls.clear()
    assert np.max(np.abs(eval_series(project(f, spec, rule=spec.M), t) - np.cos(t))) < 1e-9
    assert calls == [(spec.dim,)]
    # a constant result is broadcast to the nodes, not sampled point by point
    calls.clear()

    def zero(t):
        calls.append(np.shape(t))
        return 0

    assert not project(zero, spec).c.any()
    assert calls == [(spec.N * projection_rule_size(spec.M),)]


def test_project_calls_f_once_when_it_raises():
    # f must accept arrays: an EvalError on the array is not retried point
    # by point, it propagates from the one call
    spec = BasisSpec(Interval(0.0, 1.0), 1, 10)
    expr = parse("sqrt(t-0.5)")
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return evaluate(expr, {"t": t})

    with pytest.raises(EvalError, match="sqrt"):
        project(f, spec)
    assert calls == [(projection_rule_size(spec.M),)]


def test_best_approximation_beats_taylor():
    # weighted L2 error of the projection never exceeds the same-degree
    # Taylor polynomial anchored at each block's left endpoint
    for N, M in [(1, 4), (2, 3), (2, 5)]:
        spec = BasisSpec(Interval(0, 1), N, M)
        cv = project(np.exp, spec)
        err_proj = weighted_l2_error(np.exp, cv)

        def taylor_piece(t):
            t = np.asarray(t, dtype=float)
            idx = np.atleast_1d(block_index(spec, t))
            left = spec.interval.t0 + idx * spec.block_width
            out = np.zeros_like(np.atleast_1d(t))
            for d in range(M):
                out += np.exp(left) * (np.atleast_1d(t) - left) ** d / math.factorial(d)
            return out

        err_taylor = weighted_l2_error(
            lambda t: np.exp(t) - taylor_piece(t), CoeffVector(spec, np.zeros(spec.dim)))
        assert err_proj <= err_taylor + 1e-14


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("M", [2, 3, 4, 5, 6, 7, 8])
def test_truncation_bound_for_exp(N, M):
    # smoothness-based bound with gamma = max |f^(M)| = e on [0, 1]
    spec = BasisSpec(Interval(0, 1), N, M)
    err = weighted_l2_error(np.exp, project(np.exp, spec))
    a_n = spec.interval.A * N
    bound = math.e / (N ** (M - 1) * math.factorial(M)) * math.sqrt(math.pi / a_n)
    assert err <= bound


def test_series_derivative_matches_analytic():
    spec = BasisSpec(Interval(0, 2), 2, 8)
    cv = project(lambda t: t**3, spec)
    d2 = series_derivative(cv, 2)
    t = np.linspace(0.05, 1.95, 50)
    assert np.max(np.abs(eval_series(d2, t) - 6 * t)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 32), order=st.integers(0, 33),
       t0=st.floats(-2.0, 2.0), width=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_series_derivative_matches_chebder(n, m, order, t0, width, seed):
    order = min(order, m + 1)
    spec = BasisSpec(Interval(t0, t0 + width), n, m)
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, m))
    got = series_derivative(CoeffVector(spec, c.ravel()), order).c.reshape(n, m)
    scale = spec.interval.A * n
    for n0 in range(n):
        ref = np.zeros(m)
        d = cheb.chebder(c[n0], m=order, scl=scale) if order < m else []
        ref[:len(d)] = d
        tol = 1e-13 * (1.0 + np.max(np.abs(ref)))
        assert np.max(np.abs(got[n0] - ref)) <= tol


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 32), t0=st.floats(-2.0, 2.0),
       width=st.floats(0.25, 4.0),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6 * 32, max_size=6 * 32),
       inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_eval_series_matches_blockwise_chebval(n, m, t0, width, coeffs, inner):
    spec = BasisSpec(Interval(t0, t0 + width), n, m)
    c = np.array(coeffs[:n * m]).reshape(n, m)
    cv = CoeffVector(spec, c.ravel())
    w = spec.block_width
    t = np.array([t0 - 1e-3, t0, *(t0 + k * w for k in range(1, n)), t0 + width,
                  t0 + width + 1e-3, *(t0 + x * width for x in inner)])
    got = eval_series(cv, t)
    for ti, value in zip(t, got):
        # the owner block (an interior edge belongs to the right block, the
        # last block is closed, points off the interval go to the nearest
        # block) and its clamped reference coordinate; the reference runs in
        # extended precision so that its own roundoff does not count
        n0 = min(max(math.floor((ti - t0) / w), 0), n - 1)
        xi = np.clip(local_coord(spec, n0, ti), -1.0, 1.0)
        ref = float(cheb.chebval(np.longdouble(xi), c[n0].astype(np.longdouble)))
        assert abs(value - ref) <= 1e-14 * (1.0 + np.sum(np.abs(c[n0])))
        scalar = eval_series(cv, float(ti))
        assert type(scalar) is float
        assert abs(scalar - ref) <= 1e-14 * (1.0 + np.sum(np.abs(c[n0])))


def test_gauss_chebyshev_rule_is_interior():
    x = gauss_chebyshev_nodes(64)
    assert np.all(np.abs(x) < 1.0)
    # integrates x^2 / sqrt(1-x^2) to pi/2
    assert np.pi / 64 * np.sum(x**2) == pytest.approx(np.pi / 2, abs=1e-13)


@pytest.mark.parametrize("M, Q", [(1, 64), (10, 10), (24, 96)])
def test_gauss_chebyshev_transform_is_cached_read_only_and_unchanged(M, Q):
    # one shared pair per (M, Q), bitwise the (2/Q) T_m(x_q) it is built from
    x, a = gauss_chebyshev_transform(M, Q)
    again = gauss_chebyshev_transform(M, Q)
    assert again[0] is x and again[1] is a
    assert not x.flags.writeable and not a.flags.writeable
    fresh = chebyshev_vandermonde(M, gauss_chebyshev_nodes(Q)) * (2.0 / Q)
    fresh[0] *= 0.5
    assert np.array_equal(x, gauss_chebyshev_nodes(Q)) and np.array_equal(a, fresh)
