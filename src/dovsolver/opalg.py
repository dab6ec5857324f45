"""Operational matrices of integration and product, and the kernel's
projection.

These are the algebraic core of the direct method: integration and
multiplication become matrix actions on coefficient vectors.  The paper's
hat transform, which turns the quadratic form H(t)^T B H(t) into a plain
series, is not a function here: it lives in the contraction that builds the
solver's linear map L, and the one-by-one versions of the paper's matrices
and vectors are the test references in tests/paper_matrices.py.  The product
matrix, the polynomial P(U) with its Jacobian, and L are all built from one
cached tensor, the truncated Chebyshev product of product_tensor; P(U) and
dP/dU take it as a matrix, so that their recurrence runs on matrix products
alone.  The integration matrix Q has two distinct blocks, which
integration_blocks returns; L and the derivative recover step are built
from them, and the dense Q serves the oracle's referee and the tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .basis import BasisSpec, CoeffVector, gauss_chebyshev_transform, projection_rule_size
from .expr import EvalError, Expr, evaluate, is_difference_kernel, unparse


def _integration_rows(M: int) -> np.ndarray:
    """Rows of antiderivative coefficients on the reference interval.

    Row m holds the Chebyshev coefficients of int_{-1}^x T_m; the first two
    rows come from direct integration, higher rows from the degree-shift
    recurrence.  The rows are built on M + 1 columns, and the last column,
    the T_M term of the last row, falls outside the basis and is dropped
    (inherent truncation).
    """
    p = np.zeros((M, M + 1))
    p[0, 0] = p[0, 1] = 1.0
    if M > 1:
        p[1, 0] = -0.25
        p[1, 2] = 0.25
    for m in range(2, M):
        p[m, 0] = (-1.0) ** (m + 1) / (m * m - 1.0)
        p[m, m - 1] = -0.5 / (m - 1.0)
        p[m, m + 1] = 0.5 / (m + 1.0)
    return p[:, :M]


def _block_average_column(M: int) -> np.ndarray:
    """First column of the cross-block coupling: int_{-1}^{1} T_m dx."""
    e = np.zeros(M)
    e[0] = 2.0
    for m in range(2, M, 2):
        e[m] = -2.0 / (m * m - 1.0)
    return e


def integration_blocks(spec: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two distinct blocks of the integration matrix Q: P, every
    diagonal block, which integrates within a block, and e, column 0 of
    every block right of the diagonal, which carries a block's average
    forward; every other entry of Q is 0."""
    scale = 1.0 / (spec.interval.A * spec.N)
    return _integration_rows(spec.M) * scale, _block_average_column(spec.M) * scale


def integration_matrix(spec: BasisSpec) -> np.ndarray:
    """Matrix Q with int_{t0}^t H(s) ds ~= Q H(t).

    Block upper triangular, built from integration_blocks: P on each
    diagonal block, e in column 0 of each block to its right.  For a
    function g with coefficients C, the coefficients of its running integral
    are C^T Q (equivalently Q^T C as a column vector).
    """
    N, M = spec.N, spec.M
    p, e = integration_blocks(spec)
    a = np.zeros((N, M, N, M))
    for n in range(N):
        a[n, :, n, :] = p
        a[n, :, n + 1:, 0] = e[:, None]
    return a.reshape(spec.dim, spec.dim)


@functools.cache
def product_tensor(M: int) -> np.ndarray:
    """Truncated-product tensor C[p, q, d]: the coefficient of T_d in T_p T_q.

    From the linearization T_p T_q = (T_{p+q} + T_|p-q|)/2 with degrees >= M
    dropped.  Every product operation below is a contraction of C;
    the array is shared between callers and therefore read-only.
    """
    p, q = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    keep = p + q < M
    c = np.zeros((M, M, M))
    c[p[keep], q[keep], (p + q)[keep]] = 0.5
    c[p, q, np.abs(p - q)] += 0.5
    c.setflags(write=False)
    return c


def product_matrix(cv: CoeffVector) -> np.ndarray:
    """Product operational matrix W of the function represented by cv.

    W[i, k] is the coefficient of H_k in H_i * f: per block, the series of f
    contracted with the truncated-product tensor; cross-block entries vanish
    because supports are disjoint.  For a second function with coefficients
    V, the product has coefficients W^T V.
    """
    spec = cv.spec
    C = product_tensor(spec.M)
    a = np.zeros((spec.dim, spec.dim))
    for n0 in range(spec.N):
        sl = slice(n0 * spec.M, (n0 + 1) * spec.M)
        a[sl, sl] = np.tensordot(cv.block(n0), C, (0, 1))
    return a


def unit_product_matrix(spec: BasisSpec, r: int) -> np.ndarray:
    """Product matrix of the r-th basis function (1-based)."""
    spec.split(r)  # an index off the basis raises IndexError
    c = np.zeros(spec.dim)
    c[r - 1] = 1.0
    return product_matrix(CoeffVector(spec, c))


def polynomial(u: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """P(u) = sum_r alpha_r u^r in truncated Chebyshev algebra for an (..., M)
    stack of coefficient blocks, and dP/du as the (..., M, M) stack of its
    diagonal blocks: disjoint supports make each block of P read only its own
    block of u.  u^r = W_u^T u^(r-1) and d(u^r)/du = D_r with D_1 = I,
    D_r = W_{u^(r-1)}^T + W_u^T D_(r-1).

    Each W_v, W_v[p, d] = sum_q v_q C[p, q, d] with C the product tensor, is
    one matrix product: C is symmetric in p and q (T_p T_q = T_q T_p), so
    with C read as the (M, M M) matrix C[q, (p, d)], v @ C is W_v flattened
    row by row.  Every step of the recurrence is thus a (batched) matrix
    product."""
    u = np.asarray(u, dtype=float)
    M = u.shape[-1]
    C = product_tensor(M).reshape(M, M * M)

    def w_t(v: np.ndarray) -> np.ndarray:
        return (v @ C).reshape(v.shape + (M,)).swapaxes(-1, -2)

    w_u = w_t(u)
    power, d_power = u, np.eye(M)
    p, jac = np.zeros(u.shape), np.zeros(u.shape + (M,))
    for r, a in enumerate(alpha[1:], start=1):
        if r > 1:
            d_power = w_t(power) + w_u @ d_power
            power = (w_u @ power[..., None])[..., 0]
        if a:  # a zero coefficient would add zeros
            p += a * power
            jac += a * d_power
    p[..., 0] += alpha[0]
    return p, jac


def kernel_matrix(k: Expr, spec: BasisSpec) -> np.ndarray:
    """Projection K of a bivariate kernel with k(s, t) ~= H(s)^T K H(t) for
    s <= t.

    The Gauss-Chebyshev transform of project in each variable, per block
    pair; the kernel expression uses variable x for the first argument and t
    for the second.  Only the N(N+1)/2 causal block pairs, s-block <= t-block,
    are projected; every other block is 0, since a Volterra equation
    integrates k(x, t) over x <= t and never reads a later s-block.

    A difference kernel k(t - x) (expr.is_difference_kernel) makes the causal
    part block Toeplitz on the N equal blocks: the pair (ns, ns + d) samples
    the lags t - x of the pair (0, d), up to roundoff.  Then only block row 0
    is projected, and each block diagonal is copied down from it whole; so
    N = 1 and the first block row are bitwise the per-pair projection.  Any
    other kernel is projected pair by pair.

    Each block pair is sampled whole, so a diagonal block samples x > t too.
    A kernel undefined there raises an EvalError that names the kernel.
    """
    x, proj = gauss_chebyshev_transform(spec.M, projection_rule_size(spec.M))
    N, M = spec.N, spec.M
    a = np.zeros((N, M, N, M))
    toeplitz = is_difference_kernel(k)
    for nt in range(N):
        t_pts = spec.block_nodes(nt, x)[None, :]
        for ns in range(1 if toeplitz else nt + 1):
            s_pts = spec.block_nodes(ns, x)[:, None]
            try:
                vals = evaluate(k, {"x": s_pts, "t": t_pts})
            except EvalError as exc:
                raise EvalError(
                    f"kernel {unparse(k)!r} is undefined where it is sampled: each whole "
                    "diagonal block is sampled, x > t included, so the kernel must be "
                    "defined there (a smooth extension will do; weakly singular (Abel) "
                    f"kernels are out of scope): {exc.reason}", exc.node) from exc
            # a kernel without x or t evaluates to a lower-dimensional array
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (x.size, x.size))
            a[ns, :, nt, :] = proj @ vals @ proj.T
    if toeplitz:
        for ns in range(1, N):
            a[ns, :, ns:, :] = a[0, :, :N - ns, :]
    return a.reshape(spec.dim, spec.dim)
