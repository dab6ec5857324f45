"""Shifted Chebyshev and hybrid block-pulse/Chebyshev bases.

A ``BasisSpec`` with N blocks and M degrees per block spans an NM-dimensional
space of piecewise polynomials on [t0, tf]; N = 1 reduces to plain shifted
Chebyshev polynomials.  Coefficient vectors are flattened block-major:
c_{1,0} .. c_{1,M-1}, c_{2,0} .. c_{N,M-1}.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

_CLAMP_TOL = 1e-12


def chebyshev_eval(m: int, x):
    """First-kind Chebyshev polynomial T_m(x), row m of chebyshev_vandermonde;
    x may be a scalar or array in [-1, 1] (roundoff clamped)."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative: {m}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + _CLAMP_TOL):
        raise ValueError("argument outside [-1, 1] beyond roundoff tolerance")
    out = chebyshev_vandermonde(m + 1, np.clip(xa, -1.0, 1.0).ravel())[m]
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xa.shape)


def chebyshev_vandermonde(m_count: int, x: np.ndarray) -> np.ndarray:
    """Matrix phi[m, q] = T_m(x_q) for degrees 0 .. m_count-1."""
    x = np.asarray(x, dtype=float)
    out = np.empty((m_count, x.size))
    out[0] = 1.0
    if m_count > 1:
        out[1] = x
    for m in range(2, m_count):
        out[m] = 2.0 * x * out[m - 1] - out[m - 2]
    return out


def gauss_chebyshev_nodes(n: int) -> np.ndarray:
    """Nodes of the n-point Gauss-Chebyshev rule (first kind), all interior.

    With weights pi/n the rule integrates p(x)/sqrt(1-x^2) exactly for
    polynomials p of degree <= 2n-1.
    """
    q = np.arange(1, n + 1)
    return np.cos((2 * q - 1) * np.pi / (2 * n))


@functools.cache
def gauss_chebyshev_transform(M: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of the Q-point Gauss-Chebyshev rule and the M x Q analysis
    matrix A = (2/Q) T_m(x_q), row 0 halved: A f(x) are the coefficients on
    T_0 .. T_{M-1} of f on [-1, 1], the weighted L2 projection for Q > M and,
    by discrete orthogonality, interpolation at the nodes for Q = M (Mason &
    Handscomb, Chebyshev Polynomials, 2003, ch. 4).  Both arrays are cached
    and shared between callers, and therefore read-only."""
    x = gauss_chebyshev_nodes(Q)
    a = chebyshev_vandermonde(M, x) * (2.0 / Q)
    a[0] *= 0.5
    x.setflags(write=False)
    a.setflags(write=False)
    return x, a


@dataclass(frozen=True)
class Interval:
    """Domain [t0, tf] with its affine scaling factor A = 2/(tf - t0)."""

    t0: float
    tf: float

    def __post_init__(self):
        if not -np.inf < self.t0 < self.tf < np.inf:
            raise ValueError(f"interval must be finite with t0 < tf: [{self.t0}, {self.tf}]")

    @property
    def A(self) -> float:
        return 2.0 / (self.tf - self.t0)

    @property
    def width(self) -> float:
        return self.tf - self.t0


@dataclass(frozen=True)
class BasisSpec:
    """Hybrid basis: N equal blocks, Chebyshev degrees 0 .. M-1 per block.

    Block n (0-based here) covers [t0 + n*w, t0 + (n+1)*w) with w the block
    width; interior boundaries belong to the right block and the last block
    is closed, so evaluation is a total function on the domain.
    """

    interval: Interval
    N: int
    M: int

    def __post_init__(self):
        for name, value in (("N", self.N), ("M", self.M)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer: {value!r}")
        if self.N < 1 or self.M < 1:
            raise ValueError(f"N and M must be positive: N={self.N}, M={self.M}")

    @property
    def dim(self) -> int:
        return self.N * self.M

    @property
    def block_width(self) -> float:
        return self.interval.width / self.N

    def block_nodes(self, n0, x: np.ndarray) -> np.ndarray:
        """Map reference points x in [-1, 1] into block n0 (an index, or an
        array of them broadcast against x)."""
        w = self.block_width
        return self.interval.t0 + n0 * w + (np.asarray(x, dtype=float) + 1.0) * (w / 2.0)

    def split(self, r: int) -> tuple[int, int]:
        """1-based flat index r -> (block n0, degree m), both 0-based."""
        if not 1 <= r <= self.dim:
            raise IndexError(f"basis index out of range: {r} (dim {self.dim})")
        return (r - 1) // self.M, (r - 1) % self.M


@dataclass(frozen=True, slots=True)
class CoeffVector:
    """Coefficients of a function in the basis of ``spec`` (length N*M)."""

    spec: BasisSpec
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.shape != (self.spec.dim,):
            raise ValueError(f"expected {self.spec.dim} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def __reduce__(self):  # unpickling skips __post_init__, which seals c
        return CoeffVector, (self.spec, self.c)


def hcp_eval(spec: BasisSpec, r: int, t):
    """Value of the r-th basis function (1-based flat index) at t.

    Zero off the owning block; at interior boundaries the right block owns
    the point, the last block is closed.
    """
    n0, m = spec.split(r)
    idx, xi = _locate(spec, t)
    val = np.where(idx == n0, chebyshev_eval(m, xi), 0.0)
    return float(val[0]) if np.ndim(t) == 0 else val


def _locate(spec: BasisSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Owning block and clamped reference coordinate in [-1, 1] of each
    point of t, in one pass; points off the domain go to the nearest block."""
    s = np.array(t, dtype=float, ndmin=1) - spec.interval.t0
    block = np.minimum(np.maximum(np.floor(s / spec.block_width), 0.0), spec.N - 1.0)
    xi = spec.interval.A * spec.N * s - 2.0 * (block + 1.0) + 1.0
    return block.astype(int), np.minimum(np.maximum(xi, -1.0, out=xi), 1.0, out=xi)


def projection_rule_size(M: int) -> int:
    # exact for polynomial integrands of degree <= 2Q-1
    return max(64, 4 * M)


def project(f, spec: BasisSpec, rule: int | None = None) -> CoeffVector:
    """Coefficients of a callable by the Gauss-Chebyshev transform of each
    block, with f sampled at every block's nodes in one call.  f must
    accept a numpy array of points; a result that broadcasts to their shape
    (a constant, say) is taken as it is.

    The default rule, projection_rule_size(M) points, gives the weighted L2
    projection: the quadrature absorbs the singular weight exactly and never
    touches block endpoints.  rule = M interpolates at each block's M nodes.
    """
    Q = projection_rule_size(spec.M) if rule is None else rule
    x, a = gauss_chebyshev_transform(spec.M, Q)
    t = spec.block_nodes(np.arange(spec.N)[:, None], x).ravel()
    samples = np.broadcast_to(np.asarray(f(t), dtype=float), t.shape)
    # one matrix-vector product per block, the summation order of a per-block loop
    return CoeffVector(spec, (a @ samples.reshape(spec.N, Q, 1)).ravel())


@functools.cache
def _degrees(M: int) -> np.ndarray:
    """0.0 .. M-1 as floats, cached and shared between callers, and
    therefore read-only."""
    m = np.arange(M, dtype=float)
    m.setflags(write=False)
    return m


def eval_series(cv: CoeffVector, t):
    """Evaluate the represented function at t (scalar or array): each point's
    block row of coefficients against T_m(xi) = cos(m arccos xi), so the
    number of numpy calls does not grow with M."""
    spec = cv.spec
    idx, xi = _locate(spec, t)
    rows = cv.c.reshape(spec.N, spec.M)[idx]
    cheb = np.cos(np.arccos(xi)[..., None] * _degrees(spec.M))
    out = np.einsum("...m,...m->...", rows, cheb)
    return float(out[0]) if np.ndim(t) == 0 else out


def series_derivative(cv: CoeffVector, order: int = 1) -> CoeffVector:
    """Coefficients of the order-th derivative, block by block.

    Jumps at block boundaries are ignored (the result is the derivative of
    each polynomial piece).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    spec = cv.spec
    scale = spec.interval.A * spec.N
    c = cv.c.reshape(spec.N, spec.M)
    for _ in range(min(order, spec.M)):
        # p = sum_k c_k T_k has p' = sum_k d_k T_k with d_{k-1} = d_{k+1} +
        # 2k c_k, d_k = 0 for k >= M - 1, and d_0 halved; all blocks at once
        d = np.zeros((spec.N, spec.M + 1))
        for k in range(spec.M - 1, 0, -1):
            d[:, k - 1] = d[:, k + 1] + (2.0 * k * scale) * c[:, k]
        d[:, 0] *= 0.5
        c = d[:, :spec.M]
    return CoeffVector(spec, c.ravel())
