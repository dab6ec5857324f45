"""The solution pipeline reducing the first-kind integral equation to algebra.

Every kind of nonlinearity takes the same two steps in solve(): solve the
linear system L Z = F for the coefficients Z of G(u), with L the map
Z -> hat(K^T W_Z Q) and F the projection of f, then recover u from Z by the
kind's own recover(Z), which reads no setting but the kind's.  L is
block lower triangular (Volterra causality), so Z is marched block by block
with one refinement step; a rank-deficient L takes the minimum-norm
least-squares Z.  Invertible and Collocation share one pointwise step:
u interpolated at each block's M Chebyshev-Gauss points, where G(u) = z is
inverted by Ginv or by root finding in a bracket.  Derivative (G(u) = u^(n),
zero initial data) recovers by n integrations, and Polynomial by damped
Newton on P(U) = sum_r alpha_r U^r = Z in truncated Chebyshev algebra, on a
degree-continuation ladder started from its scan range: newton_solve runs
the three starts of each rung as one stack of independent paths, each with
its own line search.  The condition is the larger of cond L and the recover
step's; Solution carries Z.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, CoeffVector, eval_series, project, series_derivative
from .expr import EvalError, Expr, evaluate
from .opalg import integration_blocks, kernel_matrix, polynomial, product_tensor
from . import oracle

CONSISTENCY_TOL = 1e-8
NEWTON_TOL = 1e-12  # ||R||_inf at which a Newton rung has converged
NEWTON_MAX_ITER = 100
SCAN_POINTS = 32  # constants tried by the Newton initializer's scan
_EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# nonlinearity kinds: each carries recover(Z), the step from the
# solution Z of L Z = F to u, returning (U, step condition, Newton
# iterations, converged)

_TEXT = (str, bytes, bytearray, memoryview)


def _check_range(name: str, value: tuple[float, float]) -> tuple[float, float]:
    """value as a float pair; a ValueError naming the field unless it is a
    finite (lo, hi), lo < hi.  Text or bytes (str, bytes, bytearray,
    memoryview) is no pair, though each iterates to two items that float()
    may read."""
    try:
        if isinstance(value, _TEXT):
            raise TypeError
        lo, hi = (float(v) for v in value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (lo, hi) of numbers, got {value!r}") from None
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"{name} must be finite with lo < hi, got {value!r}")
    return lo, hi


@dataclass(frozen=True)
class _ExprKind:
    """A kind that carries G as an expression in u and recovers u pointwise."""

    G: Expr

    def g_from_coeffs(self, U: CoeffVector):
        return lambda x: evaluate(self.G, {"u": eval_series(U, x)})

    def recover(self, Z: CoeffVector):
        """u interpolated at each block's M Chebyshev-Gauss points, which
        avoid block endpoints, by project's transform; the values there are
        the kind's invert(t, z) of all points at once."""
        return project(lambda t: self.invert(t, eval_series(Z, t)), Z.spec,
                       rule=Z.spec.M), 0.0, 0, True


@dataclass(frozen=True)
class Invertible(_ExprKind):
    """G with a known inverse Ginv, an expression in u."""

    Ginv: Expr

    def invert(self, t, z):
        return evaluate(self.Ginv, {"u": z})


@dataclass(frozen=True)
class Derivative:
    """G(u) = u^(n) with u = u' = ... = u^(n-1) = 0 at the left endpoint."""

    order: int

    def __post_init__(self):
        if not isinstance(self.order, numbers.Integral):
            raise ValueError(f"derivative order must be an integer: {self.order!r}")
        if self.order < 1:
            raise ValueError(f"derivative order must be >= 1: {self.order}")

    def g_from_coeffs(self, U: CoeffVector):
        dz = series_derivative(U, self.order)
        return lambda x: eval_series(dz, x)

    def recover(self, Z: CoeffVector):
        """n integrations of z.

        Valid because the problem class fixes u and its first n-1
        derivatives to zero at the left endpoint, which is exactly what the
        integration matrix produces.  An order above M raises SolverError:
        series_derivative stops after M differentiations, so no residual
        would see the further integrations.
        """
        if self.order > Z.spec.M:
            raise SolverError(f"derivative order {self.order} exceeds M = {Z.spec.M}")
        P, e = integration_blocks(Z.spec)
        u = Z.c.reshape(Z.spec.N, Z.spec.M)
        for _ in range(self.order):
            # within each block by P; then each block's constant term gains
            # the integrals u e of the blocks before it, as Q's e columns do
            carry = np.cumsum(u @ e)
            u = u @ P
            u[1:, 0] += carry[:-1]
        return CoeffVector(Z.spec, u.ravel()), 0.0, 0, True


@dataclass(frozen=True)
class Polynomial:
    """G(u) = sum_r alpha[r] u^r, alpha a sequence of finite numbers.  The
    Newton starts scan scan_range (finite, lo < hi), and its midpoint picks
    the branch of a symmetric G: u > 0 of u^2 (ex3), u = t of u^2 - u =
    G(1 - u) (ex7)."""

    alpha: tuple[float, ...]
    scan_range: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        # text iterates to items that float() may read, as in _check_range
        try:
            if isinstance(self.alpha, _TEXT):
                raise TypeError
            a = tuple(float(v) for v in self.alpha)
        except (TypeError, ValueError):
            raise ValueError(f"alpha must be a sequence of numbers, got {self.alpha!r}") from None
        if not all(math.isfinite(v) for v in a):
            raise ValueError(f"alpha must be finite, got {a!r}")
        if not any(v != 0.0 for v in a[1:]):
            raise ValueError("polynomial nonlinearity needs a nonzero coefficient of u^r, r >= 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "scan_range", _check_range("scan_range", self.scan_range))

    def g_from_coeffs(self, U: CoeffVector):
        return lambda x: self.g_from_values(eval_series(U, x))

    def g_from_values(self, u):
        """G at the values u, by Horner's rule."""
        p = self.alpha[-1]
        for a in self.alpha[-2::-1]:
            p = p * u + a
        return p

    def recover(self, Z: CoeffVector):
        """Globalized solve of P(U) = Z.

        Runs the degree-continuation ladder (rung m solves P(U) = Z with
        each block cut to its first m coefficients) from three starts, the
        best scanned constant and the two slopes around it, stacked as
        three Newton paths: one newton_solve call per rung, each start with
        its own line search, stop test and iteration count, and the same
        iterates as it would take alone.  Then it keeps the converged root
        whose G(u) comes nearest z: the smallest max |G(u(t)) - z(t)| over
        33 uniform points.  For a kernel with K(t, t) != 0 the
        first-kind operator is injective, so u solves the equation exactly
        where G(u) = z pointwise; this check, which needs no quadrature, is
        what discards exact roots of the truncated algebra that do not solve
        the equation.  Among the roots within 10 times the smallest score
        plus 1e-12 (1 + max |z|) over the same points, a roundoff floor, only
        the smoothest stay: those whose kink, the jumps of u and
        h u' summed over the interior block edges, is within 10 times the
        smallest kink plus 1e-8.  Of these, the one whose average value sits
        nearest the middle of the scan range wins (the kind's branch hint).
        A kinked root such as ex7's u = 1/2 + |t - 1/2| solves the equation
        too (G(u) = u^2 - u = G(1 - u)), and may sit nearer the hint.  An
        unconverged root competes only when no root converged.

        A root where P(U) - Z or dP/dU is not finite takes no part, and when
        no other is left the recover step raises SolverError; numpy's
        overflow and invalid-value warnings are silenced, since that error
        reports them.
        """
        spec = Z.spec
        system = _polynomial_system(Z, self.alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            X, iters, converged = _run_ladder(
                system, _initial_candidates(system, spec, self.scan_range))
            r, jac = system(X)
            finite = np.isfinite(r).all(axis=(1, 2)) & np.isfinite(jac).all(axis=(1, 2, 3))
            # one root of each group of near-identical ones, the first found:
            # near-twins differ at roundoff, and either could win the selection
            close = np.isclose(X[:, None], X[None, :], rtol=1e-7, atol=1e-9).all(axis=(2, 3))
            distinct: list[int] = []
            for s in np.flatnonzero(finite).tolist():
                if not any(close[s, o] for o in distinct):
                    distinct.append(s)
            if not distinct:
                raise SolverError("recover step P(U) = Z holds a non-finite value on "
                                  "every Newton path")
            pool = [s for s in distinct if converged[s]] or distinct
            best = pool[_select_root(X[pool], self, Z)]
        # the 2-norm condition of the block-diagonal dP/dU
        sv = np.linalg.svd(jac[best], compute_uv=False)
        cond = float(sv.max() / sv.min()) if sv.min() > 0 else math.inf
        return (CoeffVector(spec, X[best].ravel()), cond, int(iters.sum()),
                bool(converged[best]))


@dataclass(frozen=True)
class Collocation(_ExprKind):
    """G inverted numerically inside a bracket [lo, hi]."""

    bracket: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "bracket", _check_range("bracket", self.bracket))

    def invert(self, t, z):
        try:
            return scalar_invert(self.G, z, self.bracket)
        except SolverError as exc:
            raise SolverError(
                f"{exc} at collocation point t = {np.ravel(t)[exc.index]:g}") from exc


Nonlinearity = Invertible | Derivative | Polynomial | Collocation


# ---------------------------------------------------------------------------
# problem / solution containers

@dataclass(frozen=True)
class Problem:
    kernel: Expr
    f: Expr
    nonlinearity: Nonlinearity
    spec: BasisSpec

    def __post_init__(self):
        # a non-finite f is solve()'s to report, by the stage it reaches
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                f0 = float(evaluate(self.f, {"t": self.spec.interval.t0}))
        except EvalError:
            return
        if abs(f0) > CONSISTENCY_TOL:
            warnings.warn(
                f"inconsistent first-kind data: f(t0) = {f0:g} is nonzero",
                stacklevel=2)


@dataclass(frozen=True, slots=True)
class Diagnostics:
    residual_linf: float
    newton_iters: int
    converged: bool
    condition_estimate: float


@dataclass(frozen=True, slots=True)
class Solution:
    U: CoeffVector
    Z: CoeffVector
    diagnostics: Diagnostics


@dataclass(frozen=True)
class SolveOptions:
    compute_residual: bool = True


# ---------------------------------------------------------------------------
# scalar root finding and the vector Newton engine

def scalar_invert(G: Expr, target, bracket: tuple[float, float]):
    """Solve G(w) = target for w inside the bracket, for one target or an
    array of them.

    One scan of G at 65 points across the bracket, shared by every target,
    finds each target's leftmost sign change of G - target; a zero at a scan
    point is the root.  Chandrupatla's method (Adv. Eng. Software 28(3),
    1997) then narrows all the pieces at once, by inverse quadratic steps
    where his test passes and by halving otherwise, until each is within
    1e-15 + 8.9e-16 |w|, w its end of smaller |G - target|.  A target
    without a sign change raises SolverError; its ``index`` attribute is
    the target's position in the flattened array.
    """
    t = np.asarray(target, dtype=float)
    flat = t.ravel()

    def g(w, tt):
        return np.broadcast_to(evaluate(G, {"u": w}), np.shape(w)) - tt

    pts = np.linspace(float(bracket[0]), float(bracket[1]), 65)
    scan = g(pts, flat[:, None])
    sign = np.sign(scan)
    hit = sign == 0
    hit[:, :-1] |= sign[:, :-1] * sign[:, 1:] < 0
    found = hit.any(axis=1)
    if not found.all():
        i = int(np.argmin(found))
        err = SolverError(
            f"no sign change of G - target in bracket ({bracket[0]}, {bracket[1]}) "
            f"for target {flat[i]:g}")
        err.index = i
        raise err
    k = np.argmax(hit, axis=1)
    w = pts[k]
    active = np.flatnonzero(sign[np.arange(flat.size), k] != 0)
    ka = k[active]
    # x1 the newest point, x2 the other end of the bracket, x3 the end dropped last
    x1, x2, f1, f2 = pts[ka], pts[ka + 1], scan[active, ka], scan[active, ka + 1]
    tt, step = flat[active], np.full(active.size, 0.5)
    while active.size:
        x = x1 + step * (x2 - x1)
        fx = g(x, tt)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        xm = np.where(abs(f1) < abs(f2), x1, x2)
        tol = 1e-15 + 8.9e-16 * abs(xm)
        done = (f1 == 0) | (abs(x2 - x1) <= tol)
        w[active[done]] = xm[done]
        active, tt, x1, x2, x3, f1, f2, f3, tol = (
            a[~done] for a in (active, tt, x1, x2, x3, f1, f2, f3, tol))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = f1 / (f1 - f2) * f3 / (f3 - f2) - (
                (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
            step = np.where((1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi)), iqi, 0.5)
        # a step of at least tol/2 off each end lets the far end close in
        # once the near one sits on the root
        tl = 0.5 * tol / abs(x2 - x1)
        step = np.clip(step, tl, 1 - tl)
    return float(w[0]) if t.ndim == 0 else w.reshape(t.shape)


def _march(L: np.ndarray, F: np.ndarray, M: int) -> tuple[np.ndarray, int, float]:
    """Solve the block lower-triangular L z = F, with M x M blocks, with the
    rank and 2-norm condition of L.

    The singular values of L give rank and condition with lstsq's cut
    (singular values up to eps dim times the largest count as zero).  A
    full-rank L is solved block by block, z_n = L_nn^-1 (F_n - sum_{j<n}
    L_nj z_j), and one refinement step marches the residual F - L z and adds
    it.  A rank-deficient L takes lstsq's minimum-norm solution instead.
    """
    sv = np.linalg.svd(L, compute_uv=False)
    dim = L.shape[0]
    rank = int(np.count_nonzero(sv > _EPS * dim * sv[0]))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < dim:
        return np.linalg.lstsq(L, F, rcond=None)[0], rank, cond

    def sweep(b: np.ndarray) -> np.ndarray:
        z = np.empty_like(b)
        for lo in range(0, dim, M):
            hi = lo + M
            z[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi], b[lo:hi] - L[lo:hi, :lo] @ z[:lo])
        return z

    z = sweep(F)
    return z + sweep(F - L @ z), dim, cond


def _block_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares a x = b for each block of an (..., m, m)
    stack, with lstsq's cut: singular values up to eps m times the block's
    largest count as zero, pinv's rcond."""
    pinv = np.linalg.pinv(a, rcond=a.shape[-1] * _EPS)
    return (pinv @ b[..., None])[..., 0]


def _block_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x = b for each block of an (..., m, m) stack, as _block_lstsq gives
    it, by LU where that is safe.

    The stack is inverted by LU and x = a^-1 b.  A block whose 1-norm
    condition ||a||_1 ||a^-1||_1 reaches 1/(eps m^2), or whose x is not
    finite, takes _block_lstsq's x instead, and a block that is not finite
    has no x: it is NaN.  When the inversion raises (an exactly singular
    block), the blocks are inverted one by one and only those that raise
    take _block_lstsq, so one singular block leaves every other block's x as
    it is.  Since the 1-norm condition is at least the 2-norm one over m,
    every block at or below lstsq's cut (2-norm condition 1/(eps m) or more)
    takes _block_lstsq; below the threshold a block has full rank, and its x
    is lstsq's up to roundoff.  numpy's overflow and invalid-value warnings
    are the caller's to silence, as newton_solve does.
    """
    m = a.shape[-1]
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # a NaN inverse fails the tests below and sends its block to lstsq
        inv = np.full_like(a, np.nan)
        for i in np.ndindex(a.shape[:-2]):
            try:
                inv[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
    x = (inv @ b[..., None])[..., 0]
    # the 1-norms as column sums: np.linalg.norm's checks cost more than the
    # sums at these sizes.  A block that is not finite has a condition that
    # is not finite either
    cond = abs(a).sum(axis=-2).max(axis=-1) * abs(inv).sum(axis=-2).max(axis=-1)
    limit = 1.0 / (_EPS * m * m)
    # the common case in two reductions: a NaN condition makes the max NaN,
    # and a sum of x is finite only if every x is; a sum that overflows
    # merely takes the block-by-block test
    if cond.max() < limit and math.isfinite(x.sum()):
        return x
    ok = (cond < limit) & np.isfinite(x).all(axis=-1)
    cut = ~ok & np.isfinite(a).all(axis=(-2, -1))
    x[~ok] = np.nan
    if cut.any():
        x[cut] = _block_lstsq(a[cut], b[cut])
    return x


@dataclass(frozen=True)
class NewtonResult:
    """What newton_solve returns.  x is shaped like u0; iterations is the
    sum over the paths, converged true only if every path converged and
    residual_norm the largest final ||R||_inf.  path_iterations and
    path_converged hold each path's own, shaped like the path axes of u0
    (0-d for one path)."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    path_iterations: np.ndarray
    path_converged: np.ndarray


# a trial point far out can overflow, and its path rejects it
@np.errstate(over="ignore", invalid="ignore")
def newton_solve(system, u0) -> NewtonResult:
    """Damped Newton iteration on independent paths, each an (..., m) stack
    of uncoupled square systems.

    Every axis of u0 before its last two indexes a path: an (S, N, m) stack
    is S paths of N blocks, while a plain vector (one block) or an (N, m)
    stack is one path.  system(u) takes the stack of the paths still running
    (one path: u itself) and returns the residual R, shaped like u, and the
    (..., m, m) stack of its Jacobian blocks.  Each block steps by J^-1 (-R)
    from one LU inversion of the stack (_block_solve); a block at or near
    lstsq's cut, whose 1-norm condition reaches 1/(eps m^2), steps by its
    minimum-norm least-squares solution instead.  Each path runs its own
    Armijo backtracking line search on ||R||_inf over its blocks (factor
    1/2, at most 30 halvings), its own stop test and its own iteration
    count; the Jacobian of an accepted trial point serves the next step.
    Convergence: ||R||_inf <= NEWTON_TOL or step norm <= 1e-14 within
    NEWTON_MAX_ITER steps; on failure the path keeps its last iterate, which
    every accepted step makes the best, and converged=False.  A path that
    converges or fails drops out and the rest step on together, so each
    path's iterates are bitwise those it takes alone.  A block whose
    Jacobian is not finite steps by NaN, so its path's line search runs out
    and that path fails alone; numpy's overflow and invalid-value warnings
    are silenced.  A residual not shaped like u raises ValueError.
    """
    u = np.array(u0, dtype=float)
    r, jac = system(u)
    if np.shape(r) != u.shape:
        raise ValueError(f"residual shape {np.shape(r)} differs from the shape "
                         f"{u.shape} of u")
    paths = u.shape[:-2]
    # one row per path; a lone path gets a leading axis that system never sees
    u, r, jac = (a.reshape((-1,) + a.shape[len(paths):]) for a in (u, r, jac))
    run = system if paths else (lambda v: tuple(a[None] for a in system(v[0])))
    axes, column = tuple(range(1, u.ndim)), (-1,) + (1,) * (u.ndim - 1)

    # the per-path scalars are Python lists: a ladder runs a handful of paths
    def norms(a: np.ndarray) -> list[float]:  # ||.||_inf of each row of a u-shaped a
        return abs(a).max(axis=axes).tolist()

    n = len(u)
    x, x_norm, iters = u.copy(), norms(r), [0] * n  # each path's final state
    converged = [rn <= NEWTON_TOL for rn in x_norm]
    # u, r, jac and rnorm hold the paths still running, live their rows in x
    live = [i for i in range(n) if not converged[i]]
    u, r, jac, rnorm = u[live], r[live], jac[live], [x_norm[i] for i in live]
    for it in range(1, NEWTON_MAX_ITER + 1):
        if not live:
            break
        step = _block_solve(jac, -r)
        lam = [1.0] * len(live)
        search = range(len(live))  # the rows still searching
        # each trial evaluates every running path; one that has taken its
        # step keeps its lam, so the last trial holds its accepted point.
        # The first trial's lam is 1 on every row, and 1.0 * step is step
        lam_step = step
        for _ in range(31):
            u_new = u + lam_step
            r_new, jac_new = run(u_new)
            rn_new = norms(r_new)
            search = [k for k in search if not rn_new[k] <= (1.0 - 1e-4 * lam[k]) * rnorm[k]]
            if not search:
                break
            for k in search:
                lam[k] *= 0.5
            lam_step = np.array(lam).reshape(column) * step
        # search now holds the rows whose line search ran out; they keep u
        # and drop out below, so their rows of r and jac are never read
        step_norm = norms(lam_step)
        for k in search:
            u_new[k], rn_new[k] = u[k], rnorm[k]
        u, r, jac, rnorm = u_new, r_new, jac_new, rn_new
        out = [k for k in range(len(live))
               if k in search or rnorm[k] <= NEWTON_TOL or step_norm[k] <= 1e-14]
        if out:
            for k in out:
                i = live[k]
                x[i], x_norm[i], iters[i], converged[i] = u[k], rnorm[k], it, k not in search
            keep = [k for k in range(len(live)) if k not in out]
            live, rnorm = [live[k] for k in keep], [rnorm[k] for k in keep]
            u, r, jac = u[keep], r[keep], jac[keep]
    for k, i in enumerate(live):
        x[i], x_norm[i], iters[i] = u[k], rnorm[k], NEWTON_MAX_ITER
    return NewtonResult(x.reshape(paths + x.shape[1:]), sum(iters), all(converged),
                        max(x_norm), np.array(iters).reshape(paths),
                        np.array(converged).reshape(paths))


# ---------------------------------------------------------------------------
# the linear system L Z = F shared by every route

def assemble_linear_map(K: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Matrix of the linear map Z -> hat(K^T W_Z Q) in coefficient space.

    W_Z is the product matrix of the series Z and Q the integration matrix.
    With C the truncated-product tensor, block (n, j) of L is
    L[n d, j q] = sum K[j i, n p] C[i q k] Q[j k, n s] C[p s d], which
    vanishes for j > n because Q is block upper triangular; it depends only
    on the causal blocks K_jn, j <= n, that kernel_matrix projects.  Every
    route's equation becomes L Z = F.

    Q has two distinct blocks (opalg.integration_blocks).  Each diagonal
    block is P, so L_nn takes the contraction above with Q_nn = P, and a
    K_nn bitwise equal to K_(n-1)(n-1) copies the L block before it: a
    difference kernel makes one diagonal contraction instead of N.  Below
    the diagonal, Q_jn (j < n) holds e in column 0 and zeros elsewhere,
    Q[j k, n s] = e_k delta_s0, and C[p 0 d] = delta_pd (T_p T_0 = T_p), so
    the sums over s and p collapse: L_nj = K_jn^T (C e), with
    (C e)[i q] = sum_k C[i q k] e_k.  One batched product of M x M slices
    makes every block pair so, and the blocks above the diagonal are zeroed.
    """
    N, M = spec.N, spec.M
    C = product_tensor(M)
    P, e = integration_blocks(spec)
    k4 = K.reshape(N, M, N, M)
    L = (k4.transpose(0, 2, 3, 1) @ (C @ e)).transpose(1, 2, 0, 3)
    for n in range(N):
        L[n, :, n + 1:, :] = 0.0
        if n and np.array_equal(k4[n, :, n, :], k4[n - 1, :, n - 1, :]):
            L[n, :, n, :] = L[n - 1, :, n - 1, :]
        else:
            kcq = np.tensordot(k4[n, :, n, :], C, (0, 0)) @ P  # [p, q, s]
            L[n, :, n, :] = np.tensordot(C, kcq, ([0, 1], [0, 2]))
    return L.reshape(spec.dim, spec.dim)


# ---------------------------------------------------------------------------
# polynomial recover step: P(U) = Z

def _polynomial_system(Z: CoeffVector, alpha: tuple[float, ...]):
    """u -> (P(u) - z, dP/du) for (..., N, m) stacks u on any rung m <= M,
    with P as in opalg.polynomial and z each block of Z cut to the rung's
    first m coefficients, m read from u."""
    z = Z.c.reshape(Z.spec.N, Z.spec.M)

    def system(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, jac = polynomial(u, alpha)
        return p - z[:, :u.shape[-1]], jac

    return system


def _scan_constant(system, spec: BasisSpec, scan_range: tuple[float, float]) -> float:
    # ranked by the 2-norm of P(c) - Z on the degree-1 rung: a constant
    # moves only the first coefficient of each block, so this ranks as the
    # full 2-norm does; the max norm is flat wherever a higher
    # coefficient of Z dominates and then keeps the first scan point,
    # however poor a start it is
    consts = np.linspace(scan_range[0], scan_range[1], SCAN_POINTS)
    r = system(np.repeat(consts[:, None, None], spec.N, axis=1))[0]
    return float(consts[np.argmin(np.linalg.norm(r.reshape(SCAN_POINTS, -1), axis=1))])


def _initial_candidates(system, spec: BasisSpec,
                        scan_range: tuple[float, float]) -> np.ndarray:
    """The three starts of the ladder as a (3, N, M) stack: the best
    constant c* from the scan on the degree-1 rung, zero-padded, and the
    slopes c* +- width (t - mid) / halfw, with width that of the scan range.

    Truncated algebra can hold spurious roots next to the wanted one, and a
    constant alone can sit in the wrong basin; the slopes reach branches a
    constant cannot (ex7's u = t comes from the rising one), and the
    selection afterwards keeps only a root whose G(u) matches z pointwise,
    that is, one that actually satisfies the integral equation.
    """
    c_star = _scan_constant(system, spec, scan_range)
    starts = np.zeros((3, spec.N, spec.M))
    starts[0, :, 0] = c_star
    iv = spec.interval
    mid, halfw = 0.5 * (iv.t0 + iv.tf), 0.5 * iv.width
    width = scan_range[1] - scan_range[0]
    for start, s in zip(starts[1:], (width, -width)):
        slope = project(lambda t: c_star + s * (t - mid) / halfw, spec)
        start[:] = slope.c.reshape(spec.N, spec.M)
    return starts


def _run_ladder(system, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree-continuation ladder over the rungs m = 2 .. M (per-block
    degrees; rung 1 alone when M = 1) for an (S, N, M) stack of starts, one
    newton_solve call per rung on every start as its own path.  Each rung
    starts from the previous rung's iterates zero-padded per block, the
    first from the truncated starts; a path that fails a rung hands its best
    iterate on.  Returns the final rung's (S, N, M) iterates, each path's
    iterations summed over the rungs and its convergence on the final rung.
    """
    u_prev, M = starts, starts.shape[-1]
    total_iters = 0
    for m_rung in range(min(2, M), M + 1):
        take = min(m_rung, u_prev.shape[-1])
        u0 = np.zeros(u_prev.shape[:-1] + (m_rung,))
        u0[..., :take] = u_prev[..., :take]
        result = newton_solve(system, u0)
        total_iters = total_iters + result.path_iterations
        u_prev = result.x
    return result.x, total_iters, result.path_converged


def _select_root(roots: np.ndarray, kind: Polynomial, Z: CoeffVector) -> int:
    """The index of the (N, M) root in the stack that wins on max |G(u) - z|
    over 33 uniform points, the kink and the branch hint
    (Polynomial.recover)."""
    spec = Z.spec
    t = np.linspace(spec.interval.t0, spec.interval.tf, 33)
    z = eval_series(Z, t)
    values = [eval_series(CoeffVector(spec, x.ravel()), t) for x in roots]
    scores = [float(np.max(np.abs(kind.g_from_values(u) - z))) for u in values]
    # within 10 times the best score plus a floor at roundoff, so that a
    # kinked root scoring below it does not cut a smooth one, only the
    # smoothest roots stay, kink within 10 times the smallest plus 1e-8;
    # among those the branch hint decides, then the score, then the order
    # of the candidates
    window = 10.0 * min(scores) + 1e-12 * (1.0 + float(np.max(np.abs(z))))
    kinks = {i: _kink(roots[i]) for i, res in enumerate(scores) if res <= window}
    smooth = 10.0 * min(kinks.values()) + 1e-8
    mid = 0.5 * (kind.scan_range[0] + kind.scan_range[1])
    top = [(abs(float(np.mean(values[i])) - mid), scores[i], i)
           for i, kink in kinks.items() if kink <= smooth]
    return min(top)[2]


def _kink(u: np.ndarray) -> float:
    """Sum over the interior block edges of |jump of u| + h |jump of u'|, h
    the block width, from the (N, M) coefficient blocks u: at the block ends
    T_m(+-1) = (+-1)^m and h d/dt T_m = 2 T_m'(+-1) = 2 (+-1)^(m+1) m^2."""
    m = np.arange(u.shape[-1])
    left = (-1.0) ** m
    jump = u[1:] @ left - u[:-1].sum(axis=1)
    slope_jump = 2.0 * (u[1:] @ (-left * m * m) - u[:-1] @ (m * m))
    return float(np.sum(np.abs(jump) + np.abs(slope_jump)))


# ---------------------------------------------------------------------------
# the pipeline

def _require_finite(stage: str, values: np.ndarray, spec: BasisSpec | None = None) -> None:
    """SolverError naming the stage unless every value is finite; for a
    coefficient vector of spec, also the t-range of its first block with a
    non-finite value, and for a kernel projection the x- and t-range of its
    first such block pair, in row-major order."""
    finite = np.isfinite(values)
    if finite.all():
        return
    where = ""
    if spec is not None:
        names = "t" if finite.ndim == 1 else "xt"
        blocks = finite.reshape((spec.N, spec.M) * finite.ndim).all(axis=(1, 3)[:finite.ndim])
        first = np.unravel_index(np.argmin(blocks), blocks.shape)
        ranges = [spec.block_nodes(int(n0), np.array([-1.0, 1.0])) for n0 in first]
        where = " on " + ", ".join(f"{name} in [{lo:g}, {hi:g}]"
                                   for name, (lo, hi) in zip(names, ranges))
    raise SolverError(f"{stage} holds a non-finite value{where}")


def solve(problem: Problem, opts: SolveOptions = SolveOptions()) -> Solution:
    """Solve L Z = F, then recover u from Z by the nonlinearity kind's own
    recover step.

    L Z = F is marched block by block (_march): L is block lower triangular,
    so Z_n = L_nn^-1 (F_n - sum_{j<n} L_nj Z_j), and one refinement step
    marches the residual F - L Z and adds it.  The singular values of L give
    its rank and condition with lstsq's cut; a rank-deficient L takes
    lstsq's minimum-norm Z and warns with the rank.  The reported condition
    is the larger of cond L and the recover step's.  The residual is
    oracle.residual_linf's, on its default grid; a solve whose residual
    cannot be computed is reported with a NaN residual, as not converged.
    A kernel projection K, projection F of f or solution Z that
    holds a non-finite value raises SolverError naming the stage, and for F
    and Z the t-range of the first block that holds one, for K the x- and
    t-range of the first block pair; numpy's overflow and invalid-value
    warnings up to there are silenced, since that error reports them.
    """
    nl = problem.nonlinearity
    if not isinstance(nl, Nonlinearity):
        raise SolverError(f"unknown nonlinearity: {type(nl).__name__}")
    spec = problem.spec
    with np.errstate(over="ignore", invalid="ignore"):
        K = kernel_matrix(problem.kernel, spec)
        _require_finite("kernel projection K", K, spec)
        L = assemble_linear_map(K, spec)
        F = project(lambda t: evaluate(problem.f, {"t": t}), spec).c
        _require_finite("projection F of f", F, spec)
        z, rank, cond = _march(L, F, spec.M)
    _require_finite("linear-stage solution Z", z, spec)
    if rank < spec.dim:
        warnings.warn(
            f"rank-deficient linear stage: rank {rank} of {spec.dim}, "
            f"condition estimate {cond:.3g}", stacklevel=2)
    Z = CoeffVector(spec, z)
    U, step_cond, iters, converged = nl.recover(Z)
    diagnostics = Diagnostics(math.nan, iters, converged, max(cond, step_cond))
    solution = Solution(U, Z, diagnostics)
    if opts.compute_residual:
        try:
            res = oracle.residual_linf(problem, solution)
        except (EvalError, oracle.QuadratureError):
            diagnostics = replace(diagnostics, converged=False)
        else:
            diagnostics = replace(diagnostics, residual_linf=res)
    return replace(solution, diagnostics=diagnostics)
