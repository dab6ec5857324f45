import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from dovsolver.basis import BasisSpec, CoeffVector, Interval, eval_series, project
from dovsolver import opalg
from dovsolver.expr import EvalError, evaluate, is_difference_kernel, parse, unparse
from dovsolver.opalg import (
    integration_blocks,
    integration_matrix,
    kernel_matrix,
    polynomial,
    product_matrix,
    product_tensor,
    unit_product_matrix,
)
from paper_matrices import (
    basis_matrix,
    block_index,
    constant_coeffs,
    einsum_polynomial,
    hat_truncation_bound,
    hat_vector,
    local_coord,
    pairwise_integration_matrix,
    per_pair_kernel_matrix,
    power_vector,
)


def test_integration_matrix_published_rows():
    p3 = integration_matrix(BasisSpec(Interval(-1, 1), 1, 3))
    assert np.allclose(p3[1], [-0.25, 0.0, 0.25])
    p4 = integration_matrix(BasisSpec(Interval(-1, 1), 1, 4))
    assert np.allclose(p4[2], [-1 / 3, -1 / 2, 0.0, 1 / 6])


def test_integration_matrix_first_row_from_antiderivative():
    # int_{-1}^{x} T_0 = x + 1 = T_0 + T_1 (the displayed variant 1,0,1,0...
    # fails the quadrature cross-check below)
    p3 = integration_matrix(BasisSpec(Interval(-1, 1), 1, 3))
    assert np.allclose(p3[0], [1.0, 1.0, 0.0])


def test_hybrid_integration_block_structure():
    spec = BasisSpec(Interval(0, 1), 2, 2)
    q = integration_matrix(spec)
    # cross-block coupling of the constant: whole-block integral 1/2
    assert np.allclose(q[0:2, 2:4], [[0.5, 0.0], [0.0, 0.0]])
    # diagonal blocks are the one-block matrix scaled into the half-width block
    assert np.allclose(q[0:2, 0:2], [[0.25, 0.25], [-0.0625, 0.0]])
    assert np.allclose(q[2:4, 0:2], 0.0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 24),
       t0=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
def test_integration_matrix_is_the_pairwise_reference_bitwise(n, m, t0, width):
    # Q placed from its two distinct blocks is bitwise the block-pair loop,
    # and those blocks are Q's diagonal block and column 0 of block (0, 1)
    spec = BasisSpec(Interval(t0, t0 + width), n, m)
    Q = integration_matrix(spec)
    assert Q.tobytes() == pairwise_integration_matrix(spec).tobytes()
    P, e = integration_blocks(spec)
    q4 = Q.reshape(n, m, n, m)
    assert P.tobytes() == np.ascontiguousarray(q4[0, :, 0, :]).tobytes()
    if n > 1:
        assert e.tobytes() == np.ascontiguousarray(q4[0, :, 1, 0]).tobytes()


def _analytic_running_integral(cv):
    """Independent oracle: per-block chebint plus accumulated block masses."""
    spec = cv.spec
    scale = 1.0 / (spec.interval.A * spec.N)
    blocks = cv.c.reshape(spec.N, spec.M)

    def F(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        idx = np.atleast_1d(block_index(spec, t))
        masses = []
        for n0 in range(spec.N):
            anti = cheb.chebint(blocks[n0], lbnd=-1.0) * scale
            masses.append(cheb.chebval(1.0, anti))
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        for n0 in np.unique(idx):
            mask = idx == n0
            anti = cheb.chebint(blocks[n0], lbnd=-1.0) * scale
            xi = np.clip(local_coord(spec, n0, t[mask]), -1, 1)
            out[mask] = cum[n0] + cheb.chebval(xi, anti)
        return out

    return F


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("M", [3, 5, 8])
def test_integration_contract_random_polynomials(N, M):
    rng = np.random.default_rng(7 * N + M)
    spec = BasisSpec(Interval(-0.5, 1.5), N, M)
    Q = integration_matrix(spec)
    for _ in range(25):
        c = np.zeros(spec.dim)
        for n0 in range(N):
            c[n0 * M:n0 * M + M - 1] = rng.normal(size=M - 1)  # degree <= M-2
        cv = CoeffVector(spec, c)
        through_matrix = Q.T @ cv.c
        reference = project(_analytic_running_integral(cv), spec)
        assert np.max(np.abs(through_matrix - reference.c)) < 1e-10


@pytest.mark.parametrize("M", range(1, 25))
def test_product_tensor_matches_chebmul(M):
    C = product_tensor(M)
    eye = np.eye(M)
    for p in range(M):
        for q in range(M):
            full = cheb.chebmul(eye[p], eye[q])
            expected = np.zeros(M)
            expected[:min(M, full.size)] = full[:M]
            assert np.array_equal(C[p, q], expected)
    assert not C.flags.writeable


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_product_and_hat_algebra(n, m, seed, a, b):
    # W is bilinear and commutative (W(x)^T y = W(y)^T x); hat is linear
    rng = np.random.default_rng(seed)
    spec = BasisSpec(Interval(0, 1), n, m)
    x, y, z = (rng.normal(size=spec.dim) for _ in range(3))

    def W(c):
        return product_matrix(CoeffVector(spec, c))

    tol = 1e-13 * (1.0 + abs(a) + abs(b))
    assert np.max(np.abs(W(a * x + b * y) - (a * W(x) + b * W(y)))) <= tol
    assert np.max(np.abs(W(x).T @ y - W(y).T @ x)) <= 1e-13
    B1, B2 = rng.normal(size=(2, spec.dim, spec.dim))
    combined = hat_vector(spec, a * B1 + b * B2)
    split = a * hat_vector(spec, B1) + b * hat_vector(spec, B2)
    assert np.max(np.abs(combined - split)) <= tol * m


def test_product_matrix_of_one_is_identity():
    for spec in (BasisSpec(Interval(0, 1), 1, 5), BasisSpec(Interval(0, 1), 3, 4)):
        W = product_matrix(constant_coeffs(spec, 1.0))
        assert np.allclose(W, np.eye(spec.dim))


def test_product_matrix_linearization_rows():
    spec = BasisSpec(Interval(-1, 1), 1, 3)
    W = product_matrix(CoeffVector(spec, [0, 1, 0]))
    assert np.allclose(W, [[0, 1, 0], [0.5, 0, 0.5], [0, 0.5, 0]])


def test_product_matrix_pointwise_property():
    rng = np.random.default_rng(5)
    spec = BasisSpec(Interval(0, 1), 1, 6)
    t = rng.uniform(0, 1, 50)
    for _ in range(20):
        deg_c, deg_v = rng.integers(0, 3, size=2)  # deg(c) + deg(v) <= M-1
        c = np.zeros(6)
        c[:deg_c + 1] = rng.normal(size=deg_c + 1)
        v = np.zeros(6)
        v[:deg_v + 1] = rng.normal(size=deg_v + 1)
        cv, vv = CoeffVector(spec, c), CoeffVector(spec, v)
        prod = CoeffVector(spec, product_matrix(cv).T @ v)
        direct = eval_series(cv, t) * eval_series(vv, t)
        assert np.max(np.abs(eval_series(prod, t) - direct)) < 1e-12


def test_hat_vector_identity():
    spec = BasisSpec(Interval(-1, 1), 1, 4)
    assert np.allclose(hat_vector(spec, np.eye(4)), [2.5, 0, 0.5, 0])


def test_hat_vector_single_entries():
    spec = BasisSpec(Interval(-1, 1), 1, 5)
    b = np.zeros((5, 5))
    b[0, 0] = 1.0
    assert np.allclose(hat_vector(spec, b), [1, 0, 0, 0, 0])
    b = np.zeros((5, 5))
    b[0, 1] = 1.0
    assert np.allclose(hat_vector(spec, b), [0, 1, 0, 0, 0])


def test_hat_contract_with_truncation_bound():
    rng = np.random.default_rng(11)
    for N, M in [(1, 5), (2, 4), (3, 3)]:
        spec = BasisSpec(Interval(0, 2), N, M)
        t = rng.uniform(0, 2, 100)
        H = basis_matrix(spec, t)
        for _ in range(10):
            B = rng.normal(size=(spec.dim, spec.dim))
            lhs = np.einsum("ij,jk,ik->i", H, B, H)
            rhs = H @ hat_vector(spec, B)
            assert np.max(np.abs(lhs - rhs)) <= hat_truncation_bound(spec, B) + 1e-12


def test_hat_contract_exact_on_low_degree_support():
    rng = np.random.default_rng(12)
    spec = BasisSpec(Interval(0, 1), 2, 6)
    t = rng.uniform(0, 1, 100)
    H = basis_matrix(spec, t)
    # support restricted to p + q <= M - 1 inside each diagonal block
    B = np.zeros((spec.dim, spec.dim))
    for n0 in range(2):
        for p in range(6):
            for q in range(6 - p):
                B[n0 * 6 + p, n0 * 6 + q] = rng.normal()
    lhs = np.einsum("ij,jk,ik->i", H, B, H)
    rhs = H @ hat_vector(spec, B)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hat_vector_linearity():
    rng = np.random.default_rng(13)
    spec = BasisSpec(Interval(0, 1), 2, 4)
    B1 = rng.normal(size=(8, 8))
    B2 = rng.normal(size=(8, 8))
    a, b = 1.7, -0.3
    combined = hat_vector(spec, a * B1 + b * B2)
    split = a * hat_vector(spec, B1) + b * hat_vector(spec, B2)
    assert np.array_equal(combined, split) or np.max(np.abs(combined - split)) < 1e-15


def test_power_vector_of_constant_one():
    spec = BasisSpec(Interval(0, 1), 2, 4)
    U = constant_coeffs(spec, 1.0)
    assert np.allclose(power_vector(U, 7).c, U.c)


def test_power_vector_square_of_t():
    spec = BasisSpec(Interval(-1, 1), 1, 4)
    U = project(lambda t: t, spec)
    assert np.allclose(power_vector(U, 2).c, [0.5, 0, 0.5, 0], atol=1e-13)


def test_power_vector_cube_pointwise():
    spec = BasisSpec(Interval(0, 1), 1, 6)
    U = project(lambda t: t, spec)
    assert eval_series(power_vector(U, 3), 0.4) == pytest.approx(0.064, abs=1e-12)


def test_power_vector_consistency_under_degree_condition():
    rng = np.random.default_rng(21)
    for N, M, r in [(1, 7, 2), (2, 7, 3), (1, 9, 4)]:
        spec = BasisSpec(Interval(0, 1), N, M)
        deg = (M - 1) // r
        c = np.zeros(spec.dim)
        for n0 in range(N):
            c[n0 * M:n0 * M + deg + 1] = rng.normal(size=deg + 1)
        U = CoeffVector(spec, c)
        t = rng.uniform(0, 1, 60)
        assert np.max(np.abs(eval_series(power_vector(U, r), t)
                             - eval_series(U, t) ** r)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 8),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_polynomial_jacobian_matches_central_differences(n, m, alpha, seed):
    # the (n, m, m) diagonal blocks, placed on the diagonal of the full
    # Jacobian, against central differences in every coefficient of u
    u = np.random.default_rng(seed).uniform(-1.5, 1.5, (n, m))
    P, J = polynomial(u, alpha)
    assert P.shape == (n, m) and J.shape == (n, m, m)
    full = np.zeros((n, m, n, m))
    full[np.arange(n), :, np.arange(n), :] = J
    h = 1e-6
    fd = np.empty_like(full)
    for k in range(n):
        for j in range(m):
            e = np.zeros((n, m))
            e[k, j] = h
            fd[:, :, k, j] = (polynomial(u + e, alpha)[0]
                              - polynomial(u - e, alpha)[0]) / (2.0 * h)
    scale = 1.0 + np.max(np.abs(P)) + np.max(np.abs(J))
    assert np.max(np.abs(full - fd)) <= 1e-7 * scale


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), m=st.integers(1, 8),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_polynomial_matches_the_einsum_reference(shape, m, alpha, seed):
    # the matrix-product recurrence against the einsum contraction of the
    # product tensor, on (..., N, M) stacks of one to three leading axes
    u = np.random.default_rng(seed).uniform(-1.5, 1.5, (*shape, m))
    P, J = polynomial(u, alpha)
    P_ref, J_ref = einsum_polynomial(u, alpha)
    assert P.shape == P_ref.shape and J.shape == J_ref.shape
    assert np.all(np.abs(P - P_ref) <= 1e-13 * (1.0 + np.abs(P_ref)))
    assert np.all(np.abs(J - J_ref) <= 1e-13 * (1.0 + np.abs(J_ref)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(1, 8),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       block=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_polynomial_blocks_are_independent(n, m, alpha, block, seed):
    # changing block k of u leaves every other block of P and of dP/du
    # unchanged
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.5, 1.5, (n, m))
    k = block % n
    v = u.copy()
    v[k] = rng.uniform(-1.5, 1.5, m)
    P, J = polynomial(u, alpha)
    P_changed, J_changed = polynomial(v, alpha)
    others = np.arange(n) != k
    assert np.array_equal(P[others], P_changed[others])
    assert np.array_equal(J[others], J_changed[others])


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 4), n=st.integers(1, 3), m=st.integers(1, 12),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_polynomial_on_a_stack_equals_separate_calls(s, n, m, alpha, seed):
    # an (s, n, m) stack gives, slice by slice, what s separate (n, m) calls
    # give, and power_vector is the same contraction on a CoeffVector
    u = np.random.default_rng(seed).uniform(-1.5, 1.5, (s, n, m))
    P, J = polynomial(u, alpha)
    assert P.shape == (s, n, m) and J.shape == (s, n, m, m)
    for i in range(s):
        p, j = polynomial(u[i], alpha)
        assert np.array_equal(P[i], p) and np.array_equal(J[i], j)
    U = CoeffVector(BasisSpec(Interval(0, 1), n, m), u[0].ravel())
    assert np.array_equal(power_vector(U, 2).c,
                          polynomial(u[0], (0.0, 0.0, 1.0))[0].ravel())


def test_unit_product_matrix_matches_generic():
    # the r-th unit vector's product matrix is the slice C[:, m, :] of the
    # product tensor in its own diagonal block, bit for bit
    for n, m in [(1, 1), (2, 3), (3, 8), (2, 24)]:
        spec = BasisSpec(Interval(0, 1), n, m)
        for r in range(1, spec.dim + 1):
            n0, deg = (r - 1) // m, (r - 1) % m
            ref = np.zeros((spec.dim, spec.dim))
            ref[n0 * m:(n0 + 1) * m, n0 * m:(n0 + 1) * m] = product_tensor(m)[:, deg, :]
            assert np.array_equal(unit_product_matrix(spec, r), ref)
        for r in (0, spec.dim + 1):
            with pytest.raises(IndexError, match="basis index out of range"):
                unit_product_matrix(spec, r)


_DIFFERENCE_KERNELS = ("exp(t-x)", "cos(t-x)", "sin(t-x)+1", "pow(t-x,2)", "1")
_OTHER_KERNELS = ("t*x", "exp(t+x)", "exp(x-t)+x*t", "cos(t)-x")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 12),
       source=st.sampled_from(_DIFFERENCE_KERNELS + _OTHER_KERNELS),
       interval=st.sampled_from([(0.0, 1.0), (0.0, 2.0), (-0.5, 1.0), (-1.0, 1.0)]))
def test_kernel_matrix_matches_per_pair_projection(n, m, source, interval):
    # a difference kernel projects block row 0 through the per-pair loop, so
    # that row is the per-pair projection bit for bit, and every other
    # block is a copy along its block diagonal that agrees with the per-pair
    # projection to roundoff; any other kernel is projected pair by pair,
    # bit for bit
    spec = BasisSpec(Interval(*interval), n, m)
    k = parse(source)
    K = kernel_matrix(k, spec).reshape(n, m, n, m)
    ref = per_pair_kernel_matrix(k, spec).reshape(n, m, n, m)
    causal = np.triu(np.ones((n, n), dtype=bool))[:, None, :, None]
    assert not K[~np.broadcast_to(causal, K.shape)].any()
    ref = np.where(causal, ref, 0.0)
    if is_difference_kernel(k):
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(K[0], ref[0])
        for d in range(n):
            for ns in range(n - d):
                assert np.array_equal(K[ns, :, ns + d], K[0, :, d])
    else:
        assert np.array_equal(K, ref)


@pytest.mark.parametrize("N", [1, 3, 8])
@pytest.mark.parametrize("source, projections", [
    ("exp(t-x)", lambda N: N), ("t*x", lambda N: N * (N + 1) // 2)])
def test_kernel_matrix_projection_count(monkeypatch, N, source, projections):
    # a difference kernel is evaluated once per block of row 0 and copied
    # down its diagonals; any other kernel once per causal block pair
    calls = []

    def counted(e, env):
        calls.append(e)
        return evaluate(e, env)

    monkeypatch.setattr(opalg, "evaluate", counted)
    kernel_matrix(parse(source), BasisSpec(Interval(0, 1), N, 4))
    assert len(calls) == projections(N)


def test_kernel_matrix_constant():
    # only the causal block pairs, s-block <= t-block, are projected: block
    # (1, 0) of k = 1 is 0
    spec = BasisSpec(Interval(0, 1), 2, 3)
    K = kernel_matrix(parse("1"), spec)
    expected = np.zeros((6, 6))
    expected[0, 0] = expected[0, 3] = expected[3, 3] = 1.0
    assert np.max(np.abs(K - expected)) < 1e-13


@pytest.mark.parametrize("N", [2, 3, 8])
def test_kernel_matrix_projects_exactly_the_causal_block_pairs(N):
    # a kernel that is nonzero for x > t: each causal block equals the
    # per-pair projection bit for bit, every other block is exactly 0
    spec = BasisSpec(Interval(0, 1.5), N, 5)
    k = parse("exp(x-t)+x*t")
    K = kernel_matrix(k, spec).reshape(N, 5, N, 5)
    full = per_pair_kernel_matrix(k, spec).reshape(N, 5, N, 5)
    for ns in range(N):
        for nt in range(N):
            if ns <= nt:
                assert np.array_equal(K[ns, :, nt], full[ns, :, nt])
                assert np.all(full[ns, :, nt] != 0.0)
            else:
                assert not K[ns, :, nt].any()


@pytest.mark.parametrize("source", ["sqrt(t-x)", "1/(t-x)", "(t-x)^(-0.5)"])
def test_kernel_undefined_for_x_above_t_says_why(source):
    # each whole diagonal block is sampled, x > t included, so a kernel
    # defined only for x < t fails there; the error names the kernel, says
    # why, and keeps the node of the evaluation that failed
    k = parse(source)
    with pytest.raises(EvalError) as info:
        kernel_matrix(k, BasisSpec(Interval(0, 1), 2, 4))
    message = str(info.value)
    assert f"kernel {unparse(k)!r}" in message
    assert "each whole diagonal block is sampled" in message
    assert "smooth extension" in message and "weakly singular (Abel)" in message
    assert info.value.node is info.value.__cause__.node


def test_kernel_matrix_separable_bilinear():
    K = kernel_matrix(parse("t*x"), BasisSpec(Interval(-1, 1), 1, 3))
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.max(np.abs(K - expected)) < 1e-14


def test_kernel_matrix_smooth_kernel_grid_error():
    # measured truncation of the degree-7x7 expansion of cos(t-x) on [0,1]^2
    # is 1.5e-9 on this grid
    spec = BasisSpec(Interval(0, 1), 1, 8)
    K = kernel_matrix(parse("cos(t-x)"), spec)
    g = np.linspace(0, 1, 20)
    H = basis_matrix(spec, g)
    approx = H @ K @ H.T
    exact = np.cos(g[None, :] - g[:, None])
    assert np.max(np.abs(approx - exact)) < 2e-9
