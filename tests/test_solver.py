import ast
import math
import pickle
import typing
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dovsolver.basis import BasisSpec, CoeffVector, Interval, eval_series, project
from dovsolver.expr import evaluate, parse
from dovsolver.opalg import (
    integration_matrix,
    kernel_matrix,
    polynomial,
    product_matrix,
    product_tensor,
    unit_product_matrix,
)
from dovsolver import oracle
from dovsolver.oracle import Grid, max_error_fn, residual_linf, uniform_grid
from dovsolver.registry import EXAMPLES
from dovsolver.solver import (
    Collocation,
    Derivative,
    Invertible,
    Nonlinearity,
    Polynomial,
    Problem,
    SolveOptions,
    SolverError,
    assemble_linear_map,
    newton_solve,
    scalar_invert,
    solve,
)
from dovsolver import solver
from dovsolver.solver import (
    _block_lstsq,
    _block_solve,
    _march,
    _polynomial_system,
    _scan_constant,
)
from paper_matrices import (
    constant_coeffs,
    hat_vector,
    per_pair_kernel_matrix,
    per_start_ladder,
    power_vector,
)

FAST = SolveOptions(compute_residual=False)


# ---------------------------------------------------------------------------
# newton_solve

def test_newton_linear_single_iteration():
    c = np.array([3.0, -1.0, 0.5])
    res = newton_solve(lambda u: (u - c, np.eye(3)), np.zeros(3))
    assert res.converged and res.iterations == 1
    assert np.allclose(res.x, c, atol=1e-12)


def test_newton_scalar_quadratic():
    res = newton_solve(lambda u: (u * u - 4.0, np.diag(2.0 * u)), np.array([3.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_circle_line_system():
    def system(u):
        return (np.array([u[0] ** 2 + u[1] ** 2 - 1.0, u[0] - u[1]]),
                np.array([[2.0 * u[0], 2.0 * u[1]], [1.0, -1.0]]))

    res = newton_solve(system, np.array([1.0, 0.0]))
    assert res.converged
    assert np.allclose(res.x, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-10)


@pytest.mark.parametrize("solve_blocks", [_block_lstsq, _block_solve])
@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 6), ranks=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_newton_step_matches_dense_block_diagonal_lstsq(solve_blocks, m, ranks, seed):
    # each block X Y has rank min(k, m) exactly (small integer factors); the
    # stacked step is lstsq's minimum-norm solution of the block-diagonal
    # system, rank-deficient blocks included
    rng = np.random.default_rng(seed)
    blocks = np.array([rng.integers(-3, 4, (m, min(k, m))) @ rng.integers(-3, 4, (min(k, m), m))
                       for k in ranks], dtype=float)
    r = rng.uniform(-1.0, 1.0, (len(ranks), m))
    step = solve_blocks(blocks, r)
    ref = np.linalg.lstsq(scipy.linalg.block_diag(*blocks), r.ravel(), rcond=None)[0]
    assert step.shape == r.shape
    assert np.max(np.abs(step.ravel() - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def test_newton_step_takes_lstsq_at_its_cut(monkeypatch):
    # diag(1, 1e-13) sits above lstsq's cut (singular values up to eps m
    # times the largest count as zero) and steps by LU, diag(1, 1e-17) below
    # it and steps by _block_lstsq, which drops its zero singular value
    seen = []

    def recording_lstsq(a, b):
        seen.append(a.copy())
        return _block_lstsq(a, b)

    monkeypatch.setattr(solver, "_block_lstsq", recording_lstsq)
    blocks = np.array([np.diag([1.0, 1e-13]), np.diag([1.0, 1e-17])])
    b = np.array([[1.0, 1e-13], [1.0, 1e-17]])
    step = _block_solve(blocks, b)
    assert len(seen) == 1 and np.array_equal(seen[0], blocks[1:])
    assert np.allclose(step, [[1.0, 1.0], [1.0, 0.0]], rtol=1e-15, atol=0.0)


def test_newton_step_whose_sum_overflows_keeps_its_lu_step(monkeypatch):
    # every x is finite but their sum is inf, so the one-sum test of the
    # common case fails; the block-by-block test keeps every LU step
    monkeypatch.setattr(solver, "_block_lstsq", lambda a, b: pytest.fail("lstsq called"))
    blocks, b = np.array([np.eye(2), 2.0 * np.eye(2)]), np.full((2, 2), 1e308)
    with np.errstate(over="ignore"):
        step = _block_solve(blocks, b)
    assert step.tobytes() == np.array([[1e308, 1e308], [5e307, 5e307]]).tobytes()


def test_one_singular_block_leaves_the_others_steps_bitwise():
    # np.linalg.inv raises on the stack once one block is exactly singular
    # (a zero row); only that block steps by _block_lstsq
    rng = np.random.default_rng(5)
    blocks, b = rng.normal(size=(12, 3, 3)), rng.normal(size=(12, 3))
    singular = blocks.copy()
    singular[7, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    step = _block_solve(singular, b)
    others = np.delete(np.arange(12), 7)
    assert step[others].tobytes() == _block_solve(blocks[others], b[others]).tobytes()
    assert step[7].tobytes() == _block_lstsq(singular[7:8], b[7:8])[0].tobytes()
    # the path axes of a stacked solve leave the blocks as they are
    assert step.tobytes() == _block_solve(singular.reshape(3, 4, 3, 3),
                                          b.reshape(3, 4, 3)).reshape(12, 3).tobytes()


def _assert_paths_match_separate_calls(system, starts):
    stacked = newton_solve(system, starts)
    alone = [newton_solve(system, start) for start in starts]
    assert stacked.x.shape == starts.shape
    for s, res in enumerate(alone):
        assert stacked.x[s].tobytes() == res.x.tobytes()
        assert stacked.path_iterations[s] == res.iterations == res.path_iterations
        assert stacked.path_converged[s] == res.converged == res.path_converged
    assert type(stacked.iterations) is int and type(stacked.converged) is bool
    assert stacked.iterations == sum(res.iterations for res in alone)
    assert stacked.converged == all(res.converged for res in alone)
    assert stacked.residual_norm == max(res.residual_norm for res in alone)
    return stacked


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), m=st.integers(1, 4), paths=st.integers(1, 4),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_paths_match_separate_newton_calls(n, m, paths, alpha, seed):
    rng = np.random.default_rng(seed)
    Z = CoeffVector(BasisSpec(Interval(0, 1), n, m), rng.uniform(-2.0, 2.0, n * m))
    # a trial point far out can overflow P; its path rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_paths_match_separate_calls(_polynomial_system(Z, tuple(alpha)),
                                           rng.uniform(-2.0, 2.0, (paths, n, m)))


def test_rootless_paths_fail_both_ways():
    # P(u) = 1 + u^2 = 0 has no real root: from these starts one path
    # exhausts its line search after 32 steps, one after 4, and one runs
    # NEWTON_MAX_ITER steps, stepping on after the other two drop out
    system = _polynomial_system(CoeffVector(BasisSpec(Interval(0, 1), 1, 3), np.zeros(3)),
                                (1.0, 0.0, 1.0))
    starts = np.array([[[0.5, 0.1, 0.0]], [[0.5, 0.0, 0.0]], [[-0.3, 0.1, 0.0]]])
    stacked = _assert_paths_match_separate_calls(system, starts)
    assert stacked.path_iterations.tolist() == [32, 4, solver.NEWTON_MAX_ITER]
    assert not stacked.path_converged.any()


def test_newton_never_writes_into_the_arrays_system_returns():
    # a system may hand out read-only arrays.  Each path solves v^2 = c with
    # its own c in u's second entry, which no step moves (R_2 = 0 and
    # J = [[2v, -1], [0, 1]]): from these starts the first path takes full
    # steps, the second halves its first, and the third (v^2 + 1 = 0)
    # exhausts its line search on step 4 while the second steps on
    def system(u):
        v, c = u[..., 0], u[..., 1]
        r = np.stack([v * v - c, np.zeros_like(v)], axis=-1)
        jac = np.zeros(u.shape + (2,))
        jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 1] = 2.0 * v, -1.0, 1.0
        r.setflags(write=False)
        jac.setflags(write=False)
        return r, jac

    starts = np.array([[[2.5, 4.0]], [[0.1, 4.0]], [[0.5, -1.0]]])
    stacked = _assert_paths_match_separate_calls(system, starts)
    assert stacked.path_iterations.tolist() == [4, 5, 4]
    assert stacked.path_converged.tolist() == [True, True, False]
    assert np.allclose(stacked.x[:2, 0], [[2.0, 4.0], [2.0, 4.0]], rtol=0.0, atol=1e-12)


def test_a_path_whose_jacobian_is_not_finite_fails_alone():
    # the second start overflows dP/du (2 u = 2e308); its step is NaN, its
    # line search runs out on the first step, and the other two paths
    # converge as they do alone.  No numpy warning either: it used to reach
    # pinv, whose SVD raised LinAlgError for every path
    system = _polynomial_system(CoeffVector(BasisSpec(Interval(0, 1), 1, 2),
                                            np.array([1.0, 0.5])), (0.0, 1.0, 1.0))
    starts = np.array([[[0.5, 0.0]], [[1e308, 0.0]], [[2.0, 0.1]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _assert_paths_match_separate_calls(system, starts)
    assert stacked.path_iterations.tolist() == [4, 1, 6]
    assert stacked.path_converged.tolist() == [True, False, True]
    assert stacked.x[1].tobytes() == starts[1].tobytes()


def test_newton_returns_best_iterate_on_failure():
    res = newton_solve(lambda u: (np.array([u[0] ** 2 + 1.0]), np.diag(2.0 * u)),
                       np.array([0.5]))
    assert not res.converged
    assert np.isfinite(res.residual_norm)


# ---------------------------------------------------------------------------
# scalar_invert

def test_scalar_invert_examples():
    assert scalar_invert(parse("ln(u)"), 1.0, (0.1, 10)) == pytest.approx(math.e, abs=1e-12)
    assert scalar_invert(parse("u^3"), -0.008, (-1, 1)) == pytest.approx(-0.2, abs=1e-12)
    assert scalar_invert(parse("cos(u)"), 0.5, (0, 3)) == pytest.approx(math.pi / 3, abs=1e-12)


def test_scalar_invert_residual_tolerance():
    for target in (0.3, 1.7, 5.0):
        w = scalar_invert(parse("exp(u)+u"), target, (-5, 5))
        assert abs(math.exp(w) + w - target) <= 1e-13 * (1 + abs(target))


def test_scalar_invert_bracket_scan():
    # endpoints agree in sign; an interior subdivision finds the crossing
    w = scalar_invert(parse("u^2"), 4.0, (-5, 5))
    assert abs(w) == pytest.approx(2.0, abs=1e-12)


def test_scalar_invert_no_sign_change():
    with pytest.raises(SolverError, match="no sign change"):
        scalar_invert(parse("u^2"), -1.0, (-2, 2))


def test_scalar_invert_converges_fast_at_a_flat_end(monkeypatch):
    # cos'(0) = 0 at the root's end of the bracket; regula falsi used to
    # take 37 evaluations after the scan here.  No numpy warning either
    calls = []

    def counting(expr, env):
        calls.append(1)
        return evaluate(expr, env)

    monkeypatch.setattr(solver, "evaluate", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = scalar_invert(parse("cos(u)"), math.cos(1e-4), (0.0, 3.0))
    assert len(calls) - 1 <= 16  # the first call is the scan
    assert abs(w - 1e-4) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([("exp(u)+u", (-5.0, 5.0)), ("u^3", (-1.0, 1.0)),
                             ("ln(u)", (0.1, 10.0))]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_scalar_invert_array_matches_brentq(case, fractions):
    # targets spread over G's range on the bracket; brentq per target is the
    # reference, at the tolerances scalar_invert stops at
    G, (lo, hi) = parse(case[0]), case[1]
    glo, ghi = evaluate(G, {"u": lo}), evaluate(G, {"u": hi})
    targets = np.clip(glo + np.array(fractions) * (ghi - glo), min(glo, ghi), max(glo, ghi))
    w = scalar_invert(G, targets, (lo, hi))
    ref = [scipy.optimize.brentq(lambda v, z=z: evaluate(G, {"u": v}) - z, lo, hi,
                                 xtol=1e-15, rtol=8.9e-16) for z in targets]
    assert w.shape == targets.shape
    assert np.all(np.abs(w - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


# ---------------------------------------------------------------------------
# linear map

def test_assemble_linear_map_constant_kernel():
    spec = BasisSpec(Interval(0, 1), 1, 2)
    L = assemble_linear_map(kernel_matrix(parse("1"), spec), spec)
    lhs = L @ np.array([1.0, 0.0])
    assert np.allclose(lhs, project(lambda t: t, spec).c, atol=1e-13)


def test_assemble_linear_map_zero_kernel():
    spec = BasisSpec(Interval(0, 1), 1, 4)
    L = assemble_linear_map(kernel_matrix(parse("0*x"), spec), spec)
    assert np.max(np.abs(L)) < 1e-14


def test_assemble_linear_map_nonsymmetric_orientation():
    # k(x,t) = x with G(u) = 1 integrates to t^2/2; fixes the transpose
    # convention of the assembled map
    spec = BasisSpec(Interval(0, 1), 1, 6)
    L = assemble_linear_map(kernel_matrix(parse("x"), spec), spec)
    Z = project(lambda t: np.ones_like(t), spec).c
    assert np.allclose(L @ Z, project(lambda t: t**2 / 2, spec).c, atol=1e-13)


def test_assemble_linear_map_is_linear():
    rng = np.random.default_rng(3)
    spec = BasisSpec(Interval(0, 1), 2, 3)
    L = assemble_linear_map(kernel_matrix(parse("exp(t-x)"), spec), spec)
    z1, z2 = rng.normal(size=6), rng.normal(size=6)
    assert np.allclose(L @ (2.0 * z1 - 0.5 * z2), 2.0 * (L @ z1) - 0.5 * (L @ z2),
                       atol=1e-12)


@pytest.mark.parametrize("N, M", [(1, 10), (2, 16), (4, 16), (8, 8)])
def test_assemble_linear_map_matches_columnwise_reference(N, M):
    # column r of L is hat(K^T W_r Q) for the r-th unit coefficient vector;
    # the reference takes K on every block pair, the map only the causal
    # ones, so agreement shows the other blocks are never read
    spec = BasisSpec(Interval(0, 1.5), N, M)
    k = parse("exp(x-t)+x*t")
    K = kernel_matrix(k, spec)
    kt, qa = per_pair_kernel_matrix(k, spec).T, integration_matrix(spec)
    reference = np.column_stack([
        hat_vector(spec, kt @ unit_product_matrix(spec, r) @ qa)
        for r in range(1, spec.dim + 1)])
    L = assemble_linear_map(K, spec)
    assert np.max(np.abs(L - reference)) <= 1e-14 * np.max(np.abs(reference))


def block_by_block_linear_map(K: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """L built block by block, every causal block from its own K block: the
    off-diagonal blocks K_jn^T (C e), the diagonal ones by the full
    contraction with C, Q's diagonal block and C."""
    N, M = spec.N, spec.M
    C = product_tensor(M)
    k4 = K.reshape(N, M, N, M)
    q4 = integration_matrix(spec).reshape(N, M, N, M)
    L = np.zeros((N, M, N, M))
    for n in range(N):
        for j in range(n):
            L[n, :, j, :] = k4[j, :, n, :].T @ (C @ q4[0, :, 1, 0])
        kcq = np.tensordot(k4[n, :, n, :], C, (0, 0)) @ q4[n, :, n, :]
        L[n, :, n, :] = np.tensordot(C, kcq, ([0, 1], [0, 2]))
    return L.reshape(spec.dim, spec.dim)


@pytest.mark.parametrize("source", ["exp(t-x)", "1", "sin(t-x)+1", "exp(x-t)+x*t", "t*x"])
@pytest.mark.parametrize("N, M", [(1, 10), (2, 16), (3, 5), (3, 19), (8, 16), (8, 24),
                                  (32, 16)])
def test_assemble_linear_map_block_reuse_is_bitwise(source, N, M):
    # the blocks below the diagonal come from one batched product of M x M
    # slices, and a diagonal block whose K block equals the one before it
    # copies that L block; both must give L bit for bit, on the block-Toeplitz
    # K of a difference kernel and on any other K.  At M = 19 a product of
    # (N, M) by (M, M) slices would be 1 ulp off
    spec = BasisSpec(Interval(0, 1.5), N, M)
    K = kernel_matrix(parse(source), spec)
    assert np.array_equal(assemble_linear_map(K, spec), block_by_block_linear_map(K, spec))


@pytest.mark.parametrize("N, M", [(1, 7), (3, 19), (6, 12)])
def test_assemble_linear_map_never_reads_the_non_causal_blocks(N, M):
    # K with random blocks below its block diagonal gives bitwise the L of its
    # causal part, the blocks on and above that diagonal
    rng = np.random.default_rng(N * 100 + M)
    spec = BasisSpec(Interval(-0.5, 2.0), N, M)
    K = rng.uniform(-1.0, 1.0, (spec.dim, spec.dim))
    causal = np.zeros((N, M, N, M))
    for j in range(N):
        causal[j, :, j:, :] = K.reshape(N, M, N, M)[j, :, j:, :]
    causal = causal.reshape(spec.dim, spec.dim)
    L = assemble_linear_map(K, spec)
    assert L.tobytes() == assemble_linear_map(causal, spec).tobytes()
    assert L.tobytes() == block_by_block_linear_map(K, spec).tobytes()


# ---------------------------------------------------------------------------
# the march through the block lower-triangular L

def _orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_march_matches_lstsq_on_block_lower_triangular(n, m, seed):
    # diagonal blocks with singular values in [1, 10], blocks below the
    # diagonal of norm about 1, blocks above it exactly 0
    rng = np.random.default_rng(seed)
    L = np.zeros((n, m, n, m))
    for i in range(n):
        L[i, :, i, :] = (_orthogonal(rng, m) * rng.uniform(1.0, 10.0, m)) @ _orthogonal(rng, m)
        L[i, :, :i, :] = rng.uniform(-1.0, 1.0, (m, i, m)) / m
    L = L.reshape(n * m, n * m)
    F = rng.uniform(-1.0, 1.0, n * m)
    z, rank, cond = _march(L, F, m)
    ref, _, ref_rank, sv = np.linalg.lstsq(L, F, rcond=None)
    assert rank == ref_rank == n * m
    assert cond == pytest.approx(sv[0] / sv[-1], rel=1e-9)
    assert np.linalg.norm(z - ref) <= 1e-12 * cond * np.linalg.norm(ref)


def test_march_takes_lstsq_on_a_rank_deficient_block():
    # a diagonal block of rank m - 2: the march cannot run, lstsq's
    # minimum-norm solution and rank come back instead
    rng = np.random.default_rng(7)
    n, m = 3, 4
    L = np.tril(rng.uniform(-1.0, 1.0, (n * m, n * m))) + 4.0 * np.eye(n * m)
    a = rng.uniform(1.0, 2.0, (m, m - 2))
    L[m:2 * m, m:2 * m] = a @ a.T
    F = rng.uniform(-1.0, 1.0, n * m)
    ref, _, ref_rank, _ = np.linalg.lstsq(L, F, rcond=None)
    z, rank, cond = _march(L, F, m)
    assert rank == ref_rank == n * m - 2
    assert np.array_equal(z, ref)


def test_solve_with_zero_kernel_takes_the_minimum_norm_z_and_warns():
    spec = BasisSpec(Interval(0, 1), 2, 4)
    problem = Problem(parse("0"), parse("t^2"), Invertible(G=parse("u"), Ginv=parse("u")), spec)
    with pytest.warns(UserWarning, match=r"rank-deficient linear stage: rank 0 of 8"):
        sol = solve(problem, FAST)
    L = assemble_linear_map(kernel_matrix(problem.kernel, spec), spec)
    F = project(lambda t: t * t, spec).c
    assert np.array_equal(sol.Z.c, np.linalg.lstsq(L, F, rcond=None)[0])
    assert sol.diagnostics.condition_estimate == math.inf


@pytest.mark.parametrize("kernel, f, n, tf, stage", [
    # f overflows on every block, or only on the second, where exp(800 t) does
    ("exp(t-x)", "t*exp(800)", 1, 1,
     r"projection F of f holds a non-finite value on t in \[0, 1\]"),
    ("exp(t-x)", "t*exp(800*t)", 2, 1,
     r"projection F of f holds a non-finite value on t in \[0.5, 1\]"),
    ("exp(t-x)*exp(800)", "t", 1, 1,
     r"kernel projection K holds a non-finite value on x in \[0, 1\], t in \[0, 1\]$"),
    # L and F are finite, but Z = L^-1 F overflows
    ("1e-300", "t*1e300", 2, 1,
     r"linear-stage solution Z holds a non-finite value on t in \[0, 0.5\]"),
    # a finite interval too wide for the kernel: exp of a lag of ~1e300
    ("exp(t-x)", "t", 1, 1e300,
     r"kernel projection K holds a non-finite value on x in \[0, 1e\+300\], "
     r"t in \[0, 1e\+300\]$"),
    # only lags t - x near 1 overflow, so only the pair of x block 0, t block 1
    ("exp(800*(t-x))", "t", 2, 1,
     r"kernel projection K holds a non-finite value on x in \[0, 0.5\], t in \[0.5, 1\]$"),
], ids=["F", "F-second-block", "K", "Z", "K-wide-interval", "K-off-diagonal"])
def test_non_finite_stage_raises_naming_it(kernel, f, n, tf, stage):
    # the SolverError is the only report: numpy prints no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=stage):
            solve(Problem(parse(kernel), parse(f), Derivative(order=1),
                          BasisSpec(Interval(0, tf), n, 4)), FAST)


def test_overflowing_polynomial_raises_naming_the_recover_step():
    # G = u + 1e308 u^2: P overflows at every scanned constant and on both
    # slopes, so no start keeps a finite residual.  It used to print numpy's
    # RuntimeWarnings and raise LinAlgError from pinv's SVD
    problem = Problem(parse("1"), parse("t"), Polynomial(alpha=(0.0, 1.0, 1e308)),
                      BasisSpec(Interval(0, 1), 1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"^recover step P\(U\) = Z holds a non-finite "
                                              r"value on every Newton path$"):
            solve(problem)


# ---------------------------------------------------------------------------
# pipelines on small problems

def test_solve_derivative_first_order():
    # int_0^t u'(x) dx = t^2/2 forces u'(x) = x, hence u(t) = t^2/2
    p = Problem(parse("1"), parse("t^2/2"), Derivative(order=1),
                BasisSpec(Interval(0, 1), 1, 4))
    sol = solve(p, FAST)
    g = uniform_grid(p.spec.interval, 200)
    assert max_error_fn(sol, lambda t: t**2 / 2, g) < 1e-12
    assert residual_linf(p, sol, Grid(np.linspace(0, 1, 20))) < 1e-11


def test_solve_invertible_identity_nonlinearity():
    p = Problem(parse("1"), parse("t^2/2"), Invertible(G=parse("u"), Ginv=parse("u")),
                BasisSpec(Interval(0, 1), 1, 4))
    sol = solve(p, FAST)
    assert max_error_fn(sol, lambda t: t, uniform_grid(p.spec.interval, 200)) < 1e-12


def test_solve_invertible_without_ginv_uses_bracket():
    # an invertible G given only a bracket is a Collocation kind
    # G(u) = u^3 with u = t integrates to t^4/4; the bracket must extend a
    # little below zero because the solved series for G(u) grazes it
    # the cube root is flat at u = 0, so solve noise in G(u) near t = 0 comes
    # back amplified to its cube root
    p = Problem(parse("1"), parse("t^4/4"),
                Collocation(G=parse("u^3"), bracket=(-1.0, 2.0)),
                BasisSpec(Interval(0, 1), 1, 6))
    sol = solve(p, FAST)
    assert max_error_fn(sol, lambda t: t, uniform_grid(p.spec.interval, 200)) < 1e-7


def test_polynomial_linear_reduction_single_newton_iteration():
    # G(u) = u makes the recover residual P(U) - Z = U - Z affine; Newton
    # lands in one step from any start
    rng = np.random.default_rng(9)
    Z = CoeffVector(BasisSpec(Interval(0, 1), 1, 4), rng.normal(size=4))
    system = _polynomial_system(Z, (0.0, 1.0))
    for _ in range(3):
        res = newton_solve(system, rng.normal(size=(1, 4)))
        assert res.converged
        assert res.iterations == 1


def test_newton_rejects_residual_of_another_shape():
    # the recover residual has Z's (N, m) block shape, so a plain (m,) start
    # used to come back as a (1, m) iterate
    Z = CoeffVector(BasisSpec(Interval(0, 1), 1, 4), np.arange(4.0))
    with pytest.raises(ValueError, match=r"\(1, 4\).*\(4,\)"):
        newton_solve(_polynomial_system(Z, (0.0, 1.0)), np.ones(4))


def test_continuation_exact_cubic_case():
    e7 = EXAMPLES["ex7"]
    sol = solve(e7.problem(1, 3), FAST)
    g = uniform_grid(Interval(0, 2), 500)
    assert max_error_fn(sol, lambda t: t, g) < 1e-10
    assert sol.diagnostics.converged


def _g_deviation(problem, Z, U):
    # the recover step's score: max |G(u(t)) - z(t)| over 33 uniform points
    t = np.linspace(problem.spec.interval.t0, problem.spec.interval.tf, 33)
    return float(np.max(np.abs(problem.nonlinearity.g_from_coeffs(U)(t) - eval_series(Z, t))))


def test_continuation_rejects_spurious_algebraic_roots():
    # direct Newton from the best constant converges to an exact root of
    # P(U) = Z whose oracle residual is O(1e-2); the recover step must not
    # return it, and G(u) = z pointwise tells the two apart without the oracle
    e7 = EXAMPLES["ex7"]
    p = e7.problem(1, 3)
    picked = solve(p)
    assert p.nonlinearity.scan_range == (0.5, 2.0)
    alpha = p.nonlinearity.alpha
    start = np.zeros((p.spec.N, p.spec.M))
    system = _polynomial_system(picked.Z, alpha)
    start[:, :1] = _scan_constant(system, p.spec, p.nonlinearity.scan_range)
    spurious = newton_solve(system, start)
    assert spurious.converged
    assert oracle.equation_residual(p, CoeffVector(p.spec, spurious.x.ravel()),
                                    uniform_grid(p.spec.interval, 33)) > 1e-3
    assert picked.diagnostics.residual_linf < 1e-10
    assert _g_deviation(p, picked.Z, CoeffVector(p.spec, spurious.x.ravel())) > 1e-3
    assert _g_deviation(p, picked.Z, picked.U) < 1e-10


@pytest.mark.parametrize("key, n, m", [("ex3", 1, 4), ("ex5", 2, 4), ("ex7", 1, 3),
                                        ("ex7", 3, 3)])
def test_recover_step_runs_without_the_oracle(monkeypatch, key, n, m):
    # the root is picked by G(u) = z pointwise; the oracle only grades the
    # result, so a solve without the residual never reaches it
    e = EXAMPLES[key]
    plain = solve(e.problem(n, m), FAST)

    def refuse(*args, **kwargs):
        raise AssertionError("the recover step called the oracle")

    monkeypatch.setattr(oracle, "_residual", refuse)
    guarded = solve(e.problem(n, m), FAST)
    assert guarded.U.c.tobytes() == plain.U.c.tobytes()


def test_single_root_is_not_scored(monkeypatch):
    # ex5 at its recommended size keeps one distinct converged root; the
    # only oracle residual left is the solve's final one, on the full grid
    e5 = EXAMPLES["ex5"]
    p = e5.problem(2, 4)
    plain = solve(p)
    scored, inside = oracle.equation_residual, oracle._points_inside
    calls, grids = [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return scored(*args, **kwargs)

    def sizing(grid, interval):
        grids.append(grid.points.size)
        return inside(grid, interval)

    monkeypatch.setattr(oracle, "equation_residual", counting)
    monkeypatch.setattr(oracle, "_points_inside", sizing)
    counted = solve(p)
    assert len(calls) == 1 and grids == [oracle.RESIDUAL_GRID]
    assert counted.U.c.tobytes() == plain.U.c.tobytes()
    assert counted.diagnostics == plain.diagnostics


@pytest.mark.parametrize("n, m", [(1, 3), (1, 10), (1, 12), (2, 3), (3, 3), (3, 4), (4, 3)])
def test_ex7_picks_the_exact_branch(n, m):
    # G(u) = u^2 - u = G(1 - u): u = 1 - t on some blocks and t on the
    # others also solves the equation, so the oracle cannot tell them apart;
    # the recover step has to land on u = t in every block
    e7 = EXAMPLES["ex7"]
    p = e7.problem(n, m)
    sol = solve(p, FAST)
    assert max_error_fn(sol, lambda t: t, uniform_grid(p.spec.interval, 1000)) <= 1e-10


# E_inf of each case when the recover step also ran direct Newton from five
# starts; the three-start ladder must reach a root as good (within 2x, or
# below 1e-12 outright).  The ex3 winners come from the constant start.
_LADDER_CASES = {
    ("ex3", 1, 10): 1.173e-10, ("ex3", 2, 8): 4.691e-10, ("ex3", 4, 12): 1.703e-13,
    ("ex5", 2, 4): 9.712e-13, ("ex5", 4, 8): 1.458e-12, ("ex5", 2, 12): 9.629e-13,
}


def _case_error(key, n, m):
    """E_inf of a registry example's recover step at (N, M) with the oracle
    off, on 1000 points."""
    e = EXAMPLES[key]
    p, exact = e.problem(n, m), e.exact_fn()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(p, FAST)
    return max_error_fn(sol, exact, uniform_grid(p.spec.interval, 1000))


@pytest.mark.parametrize("key, n, m", sorted(_LADDER_CASES))
def test_ladder_reaches_the_exact_branch(key, n, m):
    err = _case_error(key, n, m)
    assert err <= 2.0 * _LADDER_CASES[key, n, m] or err < 1e-12


# E_inf of the polynomial recover step over ex3, ex5 and ex7 at N in
# {1, 2, 4, 8} and M in {3, 4, 6, 10, 16} and ex7 at (8, 24), pinned from
# the dense-SVD Newton step.  ex5 at M = 3 and N = 1 cannot resolve the
# kink; ex7 at N = 8 and M >= 10 has a kinked root u = 1/2 + |t - 1/2| as
# well, which the smoothness rule of the root selection passes over.
_SWEEP = {("ex3",) + k: v for k, v in {
    (1, 3): 0.0326, (1, 4): 0.00509, (1, 6): 2.45e-05, (1, 10): 1.17e-10,
    (1, 16): 2.84e-13, (2, 3): 0.00346, (2, 4): 0.000791, (2, 6): 9.97e-07,
    (2, 10): 1.68e-13, (2, 16): 9.44e-14, (4, 3): 0.000456, (4, 4): 0.000111,
    (4, 6): 3.48e-08, (4, 10): 2.59e-13, (4, 16): 1.34e-12, (8, 3): 5.98e-05,
    (8, 4): 1.48e-05, (8, 6): 1.14e-09, (8, 10): 1.81e-12, (8, 16): 5.2e-12,
}.items()} | {("ex5",) + k: v for k, v in {
    (1, 3): 0.154, (1, 4): 0.167, (1, 6): 0.0965, (1, 10): 0.0546, (1, 16): 0.0334,
    (2, 3): 0.253, (2, 4): 9.71e-13, (2, 6): 1.02e-12, (2, 10): 1.03e-12,
    (2, 16): 9.14e-13, (4, 3): 0.025, (4, 4): 1.07e-12, (4, 6): 9.11e-13,
    (4, 10): 1.32e-12, (4, 16): 4.48e-12, (8, 3): 0.0124, (8, 4): 5.53e-12,
    (8, 6): 3.72e-12, (8, 10): 3.2e-11, (8, 16): 5.06e-11,
}.items()} | {("ex7",) + k: v for k, v in {
    (1, 3): 1.21e-15, (1, 4): 9.41e-15, (1, 6): 5.3e-15, (1, 10): 2.11e-14,
    (1, 16): 8.52e-15, (2, 3): 1.54e-15, (2, 4): 2.22e-16, (2, 6): 8.88e-16,
    (2, 10): 3e-15, (2, 16): 6e-15, (4, 3): 1.11e-14, (4, 4): 3.9e-14, (4, 6): 9.77e-15,
    (4, 10): 2.58e-14, (4, 16): 6.19e-13, (8, 3): 9.15e-14, (8, 4): 2.38e-13,
    (8, 6): 2.92e-13, (8, 10): 8.54e-13, (8, 16): 1.16e-12, (8, 24): 1.38e-12,
}.items()}


@pytest.mark.parametrize("key, n, m", sorted(_SWEEP))
def test_recover_step_sweep(key, n, m):
    err = _case_error(key, n, m)
    assert err <= 2.0 * _SWEEP[key, n, m] or err < 1e-12


@pytest.mark.parametrize("key, n, m", sorted(set(_SWEEP) | {("ex3", 8, 24), ("ex5", 8, 24)}))
def test_stacked_ladder_matches_the_per_start_ladder(monkeypatch, key, n, m):
    # the three starts climb each rung as one newton_solve call; one start
    # at a time, each rung its own single-path Newton, gives the same bits
    p = EXAMPLES[key].problem(n, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stacked = solve(p, FAST)
        monkeypatch.setattr(solver, "_run_ladder", per_start_ladder)
        reference = solve(p, FAST)
    assert stacked.U.c.tobytes() == reference.U.c.tobytes()
    assert stacked.diagnostics.newton_iters == reference.diagnostics.newton_iters
    assert stacked.diagnostics.converged == reference.diagnostics.converged
    assert (stacked.diagnostics.condition_estimate
            == reference.diagnostics.condition_estimate)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: M = 2 stays open (no real root of "
                   "block 0 at N = 3, 4; a wrong converged root at N = 2)")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_recover_step_finds_ex7_at_m2(n):
    # at (3,2) and (4,2) block 0 of P(U) = Z has no real root and the shared
    # line search stalls every block; at (2,2) the solve reports converged
    # far from u = t
    assert _case_error("ex7", n, 2) < 0.1


@pytest.mark.parametrize("m", [10, 16, 24])
def test_recover_step_takes_the_smooth_root_of_ex7(m):
    # the kinked root u = 1/2 + |t - 1/2| solves the equation as well and
    # sits nearer the branch hint; the smoothness rule passes over it
    assert _case_error("ex7", 8, m) < 1e-11


@pytest.mark.parametrize("n, m", [
    pytest.param(n, m, marks=[pytest.mark.xfail(
        strict=True, reason="ROADMAP item 17, second cause: the start that reaches u = t "
        "stops short of it in the block ending at t = 1/2, where P'(u) = 2u - 1 = 0, and "
        "the kinked root max(t, 1 - t) wins")] if n >= 20 else [])
    for n in (16, 20, 24, 32, 64) for m in (3, 8, 16)])
def test_recover_step_finds_ex7_beyond_n12(n, m):
    # at (16,3) u = t scored 2.1e-13 on max |G(u) - z| and a kinked root
    # 2.0e-14; without the selection window's absolute floor u = t fell out
    # of it, and the kinked root max(t, 1 - t) came back as converged
    assert _case_error("ex7", n, m) <= 1e-9


@pytest.mark.parametrize("key, n, m, steps, evaluations, iters", [
    ("ex3", 1, 10, 44, 56, 107), ("ex3", 8, 24, 101, 129, 216),
    ("ex5", 2, 4, 21, 30, 57), ("ex5", 8, 24, 29, 74, 77),
    ("ex7", 1, 3, 13, 17, 24), ("ex7", 8, 24, 10, 36, 23)])
def test_polynomial_solves_keep_their_newton_work(monkeypatch, key, n, m, steps,
                                                  evaluations, iters):
    # the lockstep steps (one _block_solve call each), the system evaluations
    # (the ladder's start of each rung and every line-search trial) and the
    # iterations summed over the paths, at the recommended size and at
    # (8,24).  They pin the iteration a rewrite of the Newton loop must keep
    counts = {"steps": 0, "evaluations": 0}
    block_solve, inner = solver._block_solve, solver.newton_solve

    def counting_block_solve(a, b):
        counts["steps"] += 1
        return block_solve(a, b)

    def counting_newton_solve(system, u0):
        def counting_system(u):
            counts["evaluations"] += 1
            return system(u)

        return inner(counting_system, u0)

    monkeypatch.setattr(solver, "_block_solve", counting_block_solve)
    monkeypatch.setattr(solver, "newton_solve", counting_newton_solve)
    solution = solve(EXAMPLES[key].problem(n, m), FAST)
    assert (counts["steps"], counts["evaluations"], solution.diagnostics.newton_iters) == (
        steps, evaluations, iters)


@pytest.mark.parametrize("big", [
    1e20,
    pytest.param(1e30, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 20: the step test is absolute (step norm "
        "<= 1e-14), and near the root, of order 1e-15, every step passes it while "
        "the residual is 3.05")),
])
def test_a_converged_polynomial_solve_has_a_small_residual(big):
    # G = u + big u^2, kernel 1, f = t: u solves u + big u^2 = 1, of order
    # big^(-1/2).  At 1e20 the residual is 2.2e-16; at 1e30 every rung stops
    # on the step test with ||P(U) - Z||_inf between 3 and 54
    solution = solve(Problem(parse("1"), parse("t"), Polynomial(alpha=(0.0, 1.0, big)),
                             BasisSpec(Interval(0, 1), 1, 4)))
    assert solution.diagnostics.converged
    assert solution.diagnostics.residual_linf <= 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(2, 8),
       alpha=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_polynomial_residual_is_linear_map_of_powers(n, m, alpha, seed):
    # L P(U) - F against the direct form sum_r alpha_r hat(K^T W_{U^r} Q) - F:
    # L Z = F with Z = P(U) is the integral equation, so P(U) = Z recovers u
    spec = BasisSpec(Interval(0, 1.5), n, m)
    p = Problem(parse("exp(x-t)+x*t"), parse("sin(t)"), Derivative(order=1), spec)
    U = CoeffVector(spec, np.random.default_rng(seed).uniform(-1.5, 1.5, spec.dim))
    kt, qa = kernel_matrix(p.kernel, spec).T, integration_matrix(spec)
    F = project(lambda t: np.sin(t), spec).c
    terms = []
    for r, a in enumerate(alpha):
        power = constant_coeffs(spec, 1.0) if r == 0 else power_vector(U, r)
        hat = hat_vector(spec, kt @ product_matrix(power) @ qa)
        terms.append(a * hat)
    expected = sum(terms) - F
    scale = sum(np.max(np.abs(t)) for t in terms) + np.max(np.abs(F))
    P = polynomial(U.c.reshape(n, m), alpha)[0].ravel()
    got = assemble_linear_map(kernel_matrix(p.kernel, spec), spec) @ P - F
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_collocation_hybrid_linear_plant():
    p = Problem(parse("1"), parse("cos(1)-cos(t)"),
                Collocation(G=parse("exp(u)"), bracket=(-4, 1)),
                BasisSpec(Interval(1, 2), 1, 8))
    sol = solve(p, FAST)
    g = uniform_grid(p.spec.interval, 500)
    assert max_error_fn(sol, lambda t: np.log(np.sin(t)), g) < 1e-5


def test_collocation_unbracketed_root_reports_point():
    p = Problem(parse("1"), parse("t^2/2"),
                Collocation(G=parse("u^2+10"), bracket=(-1, 1)),
                BasisSpec(Interval(0, 1), 1, 3))
    with pytest.raises(SolverError, match="collocation point t = ") as caught:
        solve(p, FAST)
    # scalar_invert's message names the bracket, which the kind stores as
    # floats; the point is all that is added
    assert str(caught.value).count("(-1.0, 1.0)") == 1


@pytest.mark.parametrize("n, m", [(1, 4), (2, 8), (4, 16), (8, 24)])
def test_pointwise_kinds_agree(n, m):
    # ex8's data with G = exp(u) inverted by Ginv = ln(u) and by root finding
    # in a bracket: both kinds interpolate at the same Chebyshev-Gauss
    # points, so their U differ only by the root finder's tolerance
    spec = BasisSpec(Interval(1, 2), n, m)
    kernel, f, G = parse("1"), parse("cos(1)-cos(t)"), parse("exp(u)")
    by_ginv = solve(Problem(kernel, f, Invertible(G=G, Ginv=parse("ln(u)")), spec), FAST)
    by_root = solve(Problem(kernel, f, Collocation(G=G, bracket=(-4, 1)), spec), FAST)
    assert np.max(np.abs(by_ginv.U.c - by_root.U.c)) <= 1e-14


def test_derivative_order_above_m_raises():
    # series_derivative stops after M differentiations, so a larger order
    # would change no residual and only add integrations
    p = Problem(parse("1"), parse("t^2/2"), Derivative(order=5),
                BasisSpec(Interval(0, 1), 1, 4))
    with pytest.raises(SolverError, match="derivative order 5 exceeds M = 4"):
        solve(p, FAST)


@pytest.mark.parametrize("n, m", [(1, 4), (3, 7), (8, 24), (64, 16)])
def test_derivative_recover_integrates_as_the_dense_q(n, m):
    # block by block with P and e, against the referee: Q^T applied order
    # times, Q the dense integration matrix
    spec = BasisSpec(Interval(-0.5, 1.0), n, m)
    Z = CoeffVector(spec, np.random.default_rng(n * 100 + m).uniform(-1.0, 1.0, spec.dim))
    qt = integration_matrix(spec).T
    for order in (1, 2, m):
        ref = Z.c
        for _ in range(order):
            ref = qt @ ref
        U = Derivative(order).recover(Z)[0]
        assert U.spec == spec
        assert np.max(np.abs(U.c - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))


def test_derivative_order_equal_to_m_solves():
    # ex1 is G(u) = u'' at (1, 2), order = M = 2
    e1 = EXAMPLES["ex1"]
    assert e1.nonlinearity == Derivative(order=2)
    sol = solve(e1.problem(1, 2))
    assert sol.diagnostics.converged
    assert math.isfinite(sol.diagnostics.residual_linf)


def test_derivative_order_must_be_an_integer():
    # a float order once constructed, and solve() ran the whole linear stage
    # before recover failed with a TypeError from range()
    for order in (2.0, 2.5):
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            Derivative(order=order)
    # numpy integers are orders too
    p = EXAMPLES["ex1"].problem(1, 6)
    by_int = solve(p, FAST)
    by_numpy = solve(replace(p, nonlinearity=Derivative(order=np.int64(2))), FAST)
    assert by_numpy.U.c.tobytes() == by_int.U.c.tobytes()


@pytest.mark.parametrize("field, value", [
    ("newton_tol", -1.0), ("newton_tol", math.nan), ("newton_tol", math.inf),
    ("newton_max_iter", 0), ("residual_grid", 1),
])
def test_solve_options_validation(field, value):
    # newton_tol, newton_max_iter and residual_grid are fields no longer (the
    # Newton defaults and oracle.RESIDUAL_GRID are fixed), so naming one is a
    # TypeError
    with pytest.raises(TypeError, match=field):
        SolveOptions(**{field: value})


@pytest.mark.parametrize("value", [(2.0, 2.0), (-math.inf, 1.0), (0.0, 1.0, 2.0), 1.0,
                                   "03", b"03", bytearray(b"03"), memoryview(b"12")],
                         ids=["empty", "infinite", "triple", "scalar", "str", "bytes",
                              "bytearray", "memoryview"])
def test_polynomial_scan_range_validation(value):
    # scan_range is the polynomial kind's own field, checked by value; a
    # triple used to say only "too many values to unpack (expected 2)", and
    # "03" was the range (0.0, 3.0), b"03" and bytearray(b"03") the range
    # (48.0, 51.0), memoryview(b"12") the range (49.0, 50.0)
    with pytest.raises(ValueError, match="scan_range"):
        Polynomial(alpha=(0.0, 0.0, 1.0), scan_range=value)
    with pytest.raises(ValueError, match="bracket"):
        Collocation(G=parse("u"), bracket=value)


def test_kinds_store_their_ranges_as_float_tuples():
    # a list used to be kept as given, so the frozen kind was unhashable and
    # its range could be changed after construction
    poly = Polynomial(alpha=(0, 1), scan_range=[0, 1])
    coll = Collocation(G=parse("u"), bracket=[-1, np.float32(2.5)])
    for got, want in ((poly.scan_range, (0.0, 1.0)), (coll.bracket, (-1.0, 2.5))):
        assert type(got) is tuple and [type(v) for v in got] == [float, float]
        assert got == want
    assert hash(poly) == hash(Polynomial(alpha=(0.0, 1.0), scan_range=(0.0, 1.0)))
    assert hash(coll) == hash(Collocation(G=parse("u"), bracket=(-1.0, 2.5)))


def test_solve_options_holds_only_what_a_caller_sets():
    # the size-ladder benchmark turns compute_residual off; a branch
    # selector belongs to the kind (Polynomial.scan_range)
    assert [f.name for f in fields(SolveOptions)] == ["compute_residual"]


def test_inconsistent_data_warns():
    with pytest.warns(UserWarning, match="inconsistent first-kind data"):
        Problem(parse("1"), parse("t+1"), Derivative(order=1),
                BasisSpec(Interval(0, 1), 1, 3))


def test_unbound_variable_in_f_skips_consistency_check():
    # f naming the integration variable cannot be evaluated at t0 alone; the
    # check is skipped instead of failing construction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Problem(parse("1"), parse("x+t"), Derivative(order=1),
                BasisSpec(Interval(0, 1), 1, 3))


def test_dispatch_by_kind():
    # every kind solves L Z = F and carries Z
    problems = [EXAMPLES[k].problem(1, 4) for k in ("ex1", "ex2", "ex3", "ex4")]
    kinds = [type(p.nonlinearity) for p in problems]
    assert kinds == [Derivative, Invertible, Polynomial, Collocation]
    assert set(kinds) == set(typing.get_args(Nonlinearity))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in problems:
            sol = solve(p, FAST)
            assert sol.U.spec == p.spec
            assert sol.Z.spec == p.spec
    with pytest.raises(SolverError, match="unknown nonlinearity"):
        solve(replace(problems[0], nonlinearity=parse("u")), FAST)


def test_polynomial_kind_validation():
    with pytest.raises(ValueError):
        Polynomial(alpha=(1.0,))
    # text used to be read digit by digit: "12" as alpha (1.0, 2.0), b"12"
    # as (49.0, 50.0)
    for text in ("12", b"12", bytearray(b"12"), memoryview(b"12")):
        with pytest.raises(ValueError, match="alpha must be a sequence of numbers"):
            Polynomial(alpha=text)
    # a non-finite coefficient used to reach the solve and give a NaN row
    with pytest.raises(ValueError, match="alpha must be finite"):
        Polynomial(alpha=(0.0, -1.0, math.inf))
    with pytest.raises(ValueError):
        Derivative(order=0)


def test_solution_carries_z_for_linear_stages():
    e2 = EXAMPLES["ex2"]
    sol = solve(e2.problem(1, 6), FAST)
    assert sol.Z is not None
    # Z approximates G(u) = ln(exp(t)) = t
    g = np.linspace(0, 1, 50)
    assert np.max(np.abs(eval_series(sol.Z, g) - g)) < 1e-3


def test_solution_is_slotted_and_pickles():
    sol = solve(EXAMPLES["ex2"].problem(1, 6))
    for obj in (sol, sol.U, sol.diagnostics):
        assert not hasattr(obj, "__dict__")
    back = pickle.loads(pickle.dumps(sol))
    assert back.diagnostics == sol.diagnostics
    for a, b in ((back.U, sol.U), (back.Z, sol.Z)):
        assert a.spec == b.spec and np.array_equal(a.c, b.c)
        # unpickling skips __post_init__; the coefficients stay read-only
        assert not a.c.flags.writeable


def test_condition_estimate_reported():
    sol = solve(EXAMPLES["ex2"].problem(1, 6), FAST)
    assert np.isfinite(sol.diagnostics.condition_estimate)
    assert sol.diagnostics.condition_estimate >= 1.0


def test_polynomial_condition_estimate_at_the_root():
    # the winning path starts on a root and takes no Newton step; the
    # condition is max(cond L, cond dP/dU) at the returned root all the same
    e7 = EXAMPLES["ex7"]
    sol = solve(e7.problem(1, 10), FAST)
    assert np.isfinite(sol.diagnostics.condition_estimate)
    assert sol.diagnostics.condition_estimate >= 1.0


def test_residual_coupled_to_truncation_for_constant_kernels():
    # with a constant kernel the algebra-to-analysis chain drops nothing but
    # the truncation of f, so the oracle residual is bounded by it (plus a
    # generous allowance for the algebraic residual norm)
    for key, n, m in [("ex7", 1, 3), ("ex5", 2, 4)]:
        e = EXAMPLES[key]
        p = e.problem(n, m)
        sol = solve(p)
        grid = np.linspace(p.spec.interval.t0, p.spec.interval.tf, 400)
        f_vals = np.asarray(evaluate(p.f, {"t": grid}), dtype=float)
        f_proj = project(lambda t, _f=p.f: evaluate(_f, {"t": t}), p.spec)
        eps_f = float(np.max(np.abs(f_vals - eval_series(f_proj, grid))))
        assert sol.diagnostics.residual_linf <= 1e3 * 1e-12 + eps_f + 1e-13


def test_solve_without_any_residual_is_not_converged():
    # f = t ln t makes both residual paths evaluate ln(0) at t0: the solve
    # reports a NaN residual and not converged, and warns nothing
    p = Problem(parse("exp(t-x)"), parse("t*ln(t)"), Invertible(parse("u"), parse("u")),
                BasisSpec(Interval(0, 1), 1, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = solve(p).diagnostics
    assert math.isnan(d.residual_linf) and not d.converged


def test_residual_falls_back_to_g_of_u_equals_z():
    # ex10 at (1, 12): the series of U dips below 0 where sqrt is applied, so
    # the oracle cannot evaluate G(series(U)) and the residual is taken with
    # G(u) = z instead, with one warning; the solve still counts as converged.
    # At (1, 10) the U interpolated at the Chebyshev-Gauss points stays >= 0
    e10 = EXAMPLES["ex10"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve(e10.problem(1, 12))
    fallback = [w for w in caught if "residual evaluated through G(u) = z" in str(w.message)]
    assert len(fallback) == 1
    d = sol.diagnostics
    assert math.isfinite(d.residual_linf)
    assert 5.4e-3 / 2 <= d.residual_linf <= 2 * 5.4e-3
    assert d.converged


def _fallbacks(caught):
    return [w for w in caught if "residual evaluated through G(u) = z" in str(w.message)]


@pytest.mark.parametrize("key, n, m", [(k, *EXAMPLES[k].recommended) for k in sorted(EXAMPLES)]
                         + [("ex10", 3, 4), ("ex10", 1, 8), ("ex10", 2, 8)])
def test_solve_reports_the_oracle_residual(key, n, m):
    # the residual a solve reports is residual_linf's, bit for bit, with the
    # same fallback: at the three ex10 sizes G(series(U)) takes sqrt of a
    # negative value, and both calls warn once and take G(u) = z
    p = EXAMPLES[key].problem(n, m)
    with warnings.catch_warnings(record=True) as solving:
        warnings.simplefilter("always")
        sol = solve(p)
    with warnings.catch_warnings(record=True) as grading:
        warnings.simplefilter("always")
        res = residual_linf(p, sol)
    assert res == sol.diagnostics.residual_linf
    assert len(_fallbacks(grading)) == len(_fallbacks(solving))
    if key == "ex10" and (n, m) != EXAMPLES[key].recommended:
        assert len(_fallbacks(grading)) == 1


def test_solver_reads_only_the_residual_from_the_oracle():
    # the oracle states the residual and its fallback once; solve() calls
    # it and catches its error, and reads nothing else from it
    tree = ast.parse(Path(solver.__file__).read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracle"):
            read |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "oracle"):
            read.add(node.attr)
    assert read == {"residual_linf", "QuadratureError"}
