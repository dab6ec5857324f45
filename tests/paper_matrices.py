"""The paper's operational matrices and vectors written out one by one.

The solver fuses them: the hat transform lives in the contraction that
builds the linear map L (solver.assemble_linear_map), and the powers of U in
opalg.polynomial, which takes the product tensor as a matrix.  These plain
versions, einsum_polynomial and the block-pair integration matrix among
them, are the references the tests compare the fused forms against; no path
in the package calls them.  So is the polynomial recover step's Newton
ladder run one start at a time, single_path_newton on each rung, which the
stacked solver.newton_solve must match path by path, bit for bit.  The
oracle's bisection likewise has a per-panel reference walk, per_panel_bisect,
which each member of oracle._bisect's groups must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from dovsolver.basis import (
    BasisSpec,
    CoeffVector,
    _locate,
    chebyshev_vandermonde,
    gauss_chebyshev_transform,
    projection_rule_size,
)
from dovsolver.expr import evaluate
from dovsolver.opalg import (
    _block_average_column,
    _integration_rows,
    _product_blocks,
    polynomial,
    product_tensor,
)
from dovsolver.oracle import _PANEL_CHUNK, QuadratureError, _budget, _gk15
from dovsolver.solver import NEWTON_MAX_ITER, NEWTON_TOL, _block_solve


def block_index(spec: BasisSpec, t):
    """0-based index of the block owning t (vectorized)."""
    idx = _locate(spec, t)[0]
    return int(idx[0]) if np.ndim(t) == 0 else idx


def local_coord(spec: BasisSpec, n0, t):
    """Map t inside block n0 to the reference coordinate in [-1, 1]."""
    a = spec.interval.A
    return a * spec.N * (np.asarray(t, dtype=float) - spec.interval.t0) - 2.0 * (n0 + 1) + 1.0


def basis_matrix(spec: BasisSpec, t: np.ndarray) -> np.ndarray:
    """Matrix H[i, r] = (basis function r+1)(t_i)."""
    idx, xi = _locate(spec, t)
    out = np.zeros((idx.size, spec.N, spec.M))
    out[np.arange(idx.size), idx] = chebyshev_vandermonde(spec.M, xi).T
    return out.reshape(idx.size, spec.dim)


def constant_coeffs(spec: BasisSpec, value: float) -> CoeffVector:
    """Coefficients of the constant function (exact, no quadrature)."""
    c = np.zeros(spec.dim)
    c[::spec.M] = value
    return CoeffVector(spec, c)


def _diagonal_blocks(spec: BasisSpec, B: np.ndarray) -> np.ndarray:
    """The N diagonal M x M blocks of the (NM, NM) matrix B as an (N, M, M) view."""
    N, M = spec.N, spec.M
    return np.einsum("npnq->npq", np.asarray(B, dtype=float).reshape(N, M, N, M))


def hat_vector(spec: BasisSpec, B: np.ndarray) -> np.ndarray:
    """Hat transform: read-only vector b with H(t)^T B H(t) ~= b . H(t).

    Only the diagonal blocks of B contribute (off-block products of basis
    functions are identically zero); within a block b_d = sum_pq B_pq C_pqd,
    the same truncated product as the product matrix.  The transform is
    exactly linear in B.
    """
    C = product_tensor(spec.M)
    # plain einsum: a BLAS contraction reorders the sums and loses exact
    # linearity at the 1e-15 level
    b = np.einsum("npq,pqd->nd", _diagonal_blocks(spec, B), C).ravel()
    b.setflags(write=False)
    return b


def hat_truncation_bound(spec: BasisSpec, B: np.ndarray) -> float:
    """Mass of the linearization terms the hat transform drops:
    sum over diagonal blocks of |B_pq| (1 - sum_d C_pqd), i.e. half of |B_pq|
    wherever p + q >= M."""
    dropped = 1.0 - product_tensor(spec.M).sum(axis=2)
    return float(np.einsum("npq,pq->", np.abs(_diagonal_blocks(spec, B)), dropped))


def power_vector(U: CoeffVector, r: int) -> CoeffVector:
    """Coefficients approximating the r-th pointwise power of the function:
    the polynomial u^r in truncated algebra, exact up to roundoff while r
    times the per-block degree stays below M."""
    if r < 1:
        raise ValueError(f"power must be >= 1: {r}")
    u = U.c.reshape(U.spec.N, U.spec.M)
    return CoeffVector(U.spec, polynomial(u, (0.0,) * r + (1.0,))[0].ravel())


def recurrence_polynomial(u: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """P(u) and the stack of dP/du blocks by opalg.polynomial's recurrence
    term by term: every D_r from D_(r-1), D_1 a fresh identity, and both sums
    on zero arrays.  opalg.polynomial must give these bits."""
    u = np.asarray(u, dtype=float)
    w_u = _product_blocks(u).swapaxes(-1, -2)
    power, d_power = u, np.eye(u.shape[-1])
    p, jac = np.zeros(u.shape), np.zeros(w_u.shape)
    for r, a in enumerate(alpha[1:], start=1):
        if r > 1:
            d_power = _product_blocks(power).swapaxes(-1, -2) + w_u @ d_power
            power = (w_u @ power[..., None])[..., 0]
        if a:
            p += a * power
            jac += a * d_power
    p[..., 0] += alpha[0]
    return p, jac


def einsum_polynomial(u: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """P(u) and the stack of dP/du blocks as opalg.polynomial defines them,
    each product W_v^T of the recurrence an einsum over the product tensor:
    W_u^T[d, p] = sum_q u_q C[p, q, d], u^r = W_u^T u^(r-1), D_1 = I and
    D_r = W_{u^(r-1)}^T + W_u^T D_(r-1)."""
    u = np.asarray(u, dtype=float)
    M = u.shape[-1]
    C = product_tensor(M)
    w_t = np.einsum("...q,pqd->...dp", u, C)
    power, d_power = u, np.eye(M)
    p, jac = np.zeros(u.shape), np.zeros(u.shape + (M,))
    for r, a in enumerate(alpha[1:], start=1):
        if r > 1:
            d_power = np.einsum("...q,sqd->...ds", power, C) + w_t @ d_power
            power = np.einsum("...dp,...p->...d", w_t, power)
        p += a * power
        jac += a * d_power
    p[..., 0] += alpha[0]
    return p, jac


def per_pair_kernel_matrix(k, spec: BasisSpec) -> np.ndarray:
    """K projected on every block pair, causal or not: the Gauss-Chebyshev
    transform of the kernel's samples in both variables, pair by pair."""
    x, a = gauss_chebyshev_transform(spec.M, projection_rule_size(spec.M))
    return np.block([[a @ np.broadcast_to(np.asarray(evaluate(k, {
        "x": spec.block_nodes(ns, x)[:, None], "t": spec.block_nodes(nt, x)[None, :]}),
        dtype=float), (x.size, x.size)) @ a.T for nt in range(spec.N)] for ns in range(spec.N)])


def pairwise_integration_matrix(spec: BasisSpec) -> np.ndarray:
    """Q written block pair by block pair: the scaled integration rows on each
    diagonal block, the scaled block averages in column 0 of each block to
    its right."""
    N, M = spec.N, spec.M
    scale = 1.0 / (spec.interval.A * N)
    p = _integration_rows(M) * scale
    e = np.zeros((M, M))
    e[:, 0] = _block_average_column(M) * scale
    a = np.zeros((spec.dim, spec.dim))
    for nr in range(N):
        a[nr * M:(nr + 1) * M, nr * M:(nr + 1) * M] = p
        for nc in range(nr + 1, N):
            a[nr * M:(nr + 1) * M, nc * M:(nc + 1) * M] = e
    return a


def single_path_newton(system, u0) -> tuple[np.ndarray, int, bool]:
    """Damped Newton on one path, an (N, m) stack of uncoupled blocks: the
    iterate, the iterations and convergence.  One Armijo line search on
    ||R||_inf of the whole path (factor 1/2, at most 30 halvings); stop at
    ||R||_inf <= NEWTON_TOL or step norm <= 1e-14 within NEWTON_MAX_ITER
    steps, and keep the last iterate when the search or the steps run out."""
    u = np.array(u0, dtype=float)
    r, jac = system(u)
    rnorm = float(abs(r).max())
    if rnorm <= NEWTON_TOL:
        return u, 0, True
    for it in range(1, NEWTON_MAX_ITER + 1):
        step = _block_solve(jac, -r)
        lam = 1.0
        for _ in range(31):
            u_new = u + lam * step
            r_new, jac_new = system(u_new)
            rn_new = float(abs(r_new).max())
            if rn_new <= (1.0 - 1e-4 * lam) * rnorm:
                break
            lam *= 0.5
        else:
            return u, it, False
        step_norm = float(abs(lam * step).max())
        u, r, jac, rnorm = u_new, r_new, jac_new, rn_new
        if rnorm <= NEWTON_TOL or step_norm <= 1e-14:
            return u, it, True
    return u, NEWTON_MAX_ITER, False


def per_start_ladder(system, starts: np.ndarray):
    """solver._run_ladder one start at a time: each (N, M) start climbs the
    rungs m = 2 .. M (rung 1 alone when M = 1) by single_path_newton, every
    rung from the previous rung's iterate zero-padded per block.  Returns
    the final iterates, each start's iterations over the rungs and its
    convergence on the final rung, stacked as _run_ladder returns them."""
    finals, M = [], starts.shape[-1]
    for u_prev in starts:
        total_iters = 0
        for m_rung in range(min(2, M), M + 1):
            take = min(m_rung, u_prev.shape[-1])
            u0 = np.zeros((u_prev.shape[0], m_rung))
            u0[:, :take] = u_prev[:, :take]
            u_prev, iters, converged = single_path_newton(system, u0)
            total_iters += iters
        finals.append((u_prev, total_iters, converged))
    xs, iters, converged = zip(*finals)
    return np.array(xs), np.array(iters), np.array(converged)


def per_panel_bisect(g, a: float, b: float, whole: float, err: float, scale: float,
                     floor: float) -> float:
    """Integral of g over [a, b], whose GK15 value and estimate are whole and
    err and whose budget (see _budget) is scale and floor: ranges are
    bisected, both halves in one call of g, until each estimate fits its
    width's share of scale, or the floor."""
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
        (left, right), (left_err, right_err) = vals.tolist(), errs.tolist()
        stack.append((lo, mid, left, left_err, depth + 1))
        stack.append((mid, hi, right, right_err, depth + 1))
    return total


def per_panel_blockwise_integrals(integrand, edges: np.ndarray, lo: np.ndarray,
                                  hi: np.ndarray, param: np.ndarray, tol: float) -> np.ndarray:
    """oracle._blockwise_integrals with every failing panel bisected on its
    own by per_panel_bisect, in panel order: the same first pass, panels and
    sums."""
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
        scale, floor = _budget(kron, tol)
        for i in np.flatnonzero(~(err <= np.maximum(scale, floor))).tolist():
            pi = p[i:i + 1, None]
            panels[s + i] = per_panel_bisect(lambda x: integrand(x, pi), float(a[i]),
                                             float(b[i]), float(kron[i]), float(err[i]),
                                             float(scale[i]), float(floor[i]))
    pieces = np.zeros(live.shape)
    pieces[live] = panels
    return pieces.sum(axis=1)
