"""Small dense linear programs backing the l1-constrained estimators.

Two estimators live here: the decorrelation direction (l1 minimization
under an l-infinity residual constraint on a curvature matrix) and the
column-wise CLIME inverse-covariance estimator.  Both solve the Dantzig
program

    argmin ||w||_1  s.t.  ||t - A w||_inf <= lam,

whose dual is ``max t.u - lam ||u||_1  s.t.  ||A^T u||_inf <= 1``.

It is solved by a homotopy in lam, the parametric simplex of fastclime
(Pang, Liu & Vanderbei, JMLR 2014) and DASSO (James, Radchenko & Lv,
JRSS-B 2009), written in numpy:

1. At ``lam_0 = ||t||_inf`` the point ``w = 0`` is feasible, and every
   other w has a positive l1 norm, so it is the unique optimum.  For
   ``lam >= lam_0`` it is returned without any work; this holds for
   every decorrelation direction whose cross column lies within lam of
   zero, and for every CLIME column once ``lam >= 1``.
2. Below lam_0 the optimum is carried by a basis: active rows S with
   signs s (``t_i - a_i w = s_i lam``) and support columns J with signs
   z, |S| = |J|.  On a stretch of lam where the basis stays optimal,
   ``w_J = A[S, J]^-1 (t_S - lam s)`` is linear in lam and the dual
   ``u_S = A[S, J]^-T z`` is constant.  A breakpoint is the largest lam
   below the current one at which an inactive row reaches +-lam or a
   support coordinate reaches 0.
3. Each breakpoint is one dual simplex pivot.  The variable that hits
   its bound leaves the basis, which fixes a ray delta along which the
   dual may move: the new row's multiplier grows, or the leaving
   coordinate's reduced cost.  The ratio test on ``A[S, :]^T u`` and
   ``A[S, :]^T delta`` finds the first column k whose ``|(A^T u)_k|``
   reaches 1 (it joins J with sign ``sign((A^T delta)_k)``, or replaces
   the leaving coordinate, possibly with the sign flipped) or the first
   row of S whose multiplier reaches 0 (it leaves S).  The new basis is
   dual feasible by the ratio test and primal feasible just below the
   breakpoint, so it is optimal there, and the path is exact: no lam is
   skipped and nothing is approximated between breakpoints.
4. When the next breakpoint is at or below the target lam, the answer
   is ``w_J = A[S, J]^-1 (t_S - lam s)`` from the final basis.  If the
   ratio test finds no usable pivot, delta may be a ray with
   ``A^T delta = 0`` and ``t.delta = lam_b ||delta||_1`` at the
   breakpoint lam_b; then ``delta.(t - A w) = t.delta`` gives
   ``||t - A w||_inf >= lam_b`` for every w.  When that holds up to
   rounding and lam_b exceeds ``lam + FEAS_TOL``, it certifies that the
   LP is infeasible, and ``LpInfeasibleError`` is raised.

Before it returns, the answer is certified: ``||t - A w||_inf <= lam +
FEAS_TOL``, ``||A^T u||_inf <= 1 + tol`` and a closed duality gap,
``||w||_1 = t.u - lam ||u||_1``; by weak duality no feasible point has
a smaller l1 norm.  If the certificate fails, a pivot falls below a
fixed threshold, the basis is singular or the pivot count reaches a
fixed cap (ties and degenerate vertices can make a path stall), the
whole LP goes to HiGHS in one ``solve_lp`` call on its positive/negative
split ``w = w+ - w-``, with one pair of rows ``+-(t_i - a_i w) <= lam``
per residual.  That call is the only solver call left; the MR
decorrelation LPs at the command-line defaults and the CLIME inputs of
``scripts/bench_lp.py`` never take it.

``clime_inverse`` takes the first breakpoint of all d columns at once.
Column j starts at lam_0 = 1 with row j active; if ``sigma_jj != 0`` and
no ``|sigma_jk|`` exceeds ``|sigma_jj|``, column j enters first, and if
no ``|sigma_ij (1 - lam) / sigma_jj|`` exceeds lam for i != j, no other
breakpoint lies above lam, so ``theta_jj = (1 - lam) / sigma_jj`` is the
column's optimum.  These checks are three d x d array operations; only
the other columns run the homotopy.

Correctness is cross-checked in the test suite against an exhaustive
vertex-enumeration oracle and against the full LP solved by HiGHS.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import LpInfeasibleError, LpUnboundedError

#: entrywise feasibility tolerance for the l-infinity constraints
FEAS_TOL = 1e-8
#: dual feasibility and duality gap tolerance of the homotopy's certificate
_CERT_TOL = 1e-9
#: smallest pivot the homotopy takes, relative to max |a_ij| for a column
#: and to max |delta| = 1 for a row; below it, (A^T delta)_k counts as 0
_PIVOT_TOL = 1e-11


@dataclass
class LpSolution:
    """Optimal point and objective of ``min c.x, A x <= b, x >= 0``."""

    x: np.ndarray
    objective: float


def solve_lp(c, a_ub, b_ub):
    """Solve ``min c.x  s.t.  a_ub @ x <= b_ub,  x >= 0``.

    Raises
    ------
    LpInfeasibleError
        If no feasible point exists.
    LpUnboundedError
        If the objective is unbounded below on the feasible set.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    if a_ub.ndim != 2 or a_ub.shape != (b_ub.shape[0], c.shape[0]):
        raise ValueError("inconsistent LP dimensions")
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible")
    if res.status == 3:
        raise LpUnboundedError("LP unbounded")
    if not res.success:
        raise RuntimeError(f"LP solver failure: {res.message}")
    return LpSolution(x=np.asarray(res.x, dtype=float), objective=float(res.fun))


def _homotopy(a_mat, target, lam, a_max):
    """Follow the optimal basis from ``lam_0 = ||target||_inf > lam`` down
    to lam (see the module docstring).  Returns the certified optimum, or
    None when the path is not trusted and HiGHS must solve the LP; raises
    ``LpInfeasibleError`` on a certified infeasible ray."""
    m = a_mat.shape[1]
    rows, row_signs, cols, col_signs = [], [], [], []
    lam_cur = np.max(np.abs(target))
    for _ in range(10 * m + 10):  # a cap against cycling on degenerate ties
        s, z = np.array(row_signs), np.array(col_signs)
        a_rows = a_mat[rows]
        basis = a_rows[:, cols]
        try:
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            return None
        p, q, u = inv @ target[rows], inv @ s, z @ inv
        a_cols = a_mat[:, cols]
        # w_J = p - lam q and r = t - A w = c + lam e along this stretch
        c, e = target - a_cols @ p, a_cols @ q
        # each basic variable x0 + lam x1 that falls as lam falls, with
        # the lam where it reaches 0: slack lam - r_i, slack lam + r_i,
        # then z_j w_j
        x0 = np.concatenate([-c, c, z * p])
        x1 = np.concatenate([1.0 - e, 1.0 + e, -z * q])
        x1[rows] = x1[m:][rows] = 0.0  # an active row's slacks are not basic
        falling = x1 > 0.0
        hits = np.full(x0.size, -np.inf)
        np.divide(-x0, x1, out=hits, where=falling)
        event = int(hits.argmax())
        lam_cur = min(lam_cur, hits[event])
        if lam_cur <= lam:
            w = np.zeros(m)
            w[cols] = np.linalg.solve(basis, target[rows] - lam * s)
            return w if _certified(a_mat, target, lam, w, rows, u) else None
        # the dual moves along a ray over the rows that then carry it: row
        # i joins them, or coordinate pos gets a positive reduced cost
        if event < 2 * m:
            i, side = event % m, 1.0 if event < m else -1.0
            ray_rows, keep_cols = rows + [i], cols
            ray = np.concatenate([-side * (a_mat[i, cols] @ inv), [side]])
        else:
            pos = event - 2 * m
            ray_rows, keep_cols = rows, np.delete(cols, pos)
            ray = -z[pos] * inv[pos]
        ray /= np.abs(ray).max()
        h = ray @ a_mat[ray_rows]
        h[keep_cols] = 0.0
        delta = ray[: len(rows)]
        # ratio test: columns whose |(A^T u)_k| reaches 1, rows of S whose
        # multiplier s_l u_l reaches 0, as u moves along the ray
        col_ratio = np.full(m, np.inf)
        np.divide(np.maximum(1.0 - np.sign(h) * (u @ a_rows), 0.0), np.abs(h),
                  out=col_ratio, where=h != 0.0)
        row_ratio = np.full(len(rows), np.inf)
        sd = s * delta
        np.divide(np.maximum(s * u, 0.0), -sd, out=row_ratio, where=sd < 0.0)
        k = int(col_ratio.argmin())
        leave = int(row_ratio.argmin()) if rows else -1
        if rows and row_ratio[leave] < col_ratio[k]:
            if abs(delta[leave]) < _PIVOT_TOL:
                return None
            k = -1
        elif abs(h[k]) < _PIVOT_TOL * a_max:
            # no usable pivot: either A^T ray = 0 proves infeasibility, or
            # the path is ill-conditioned here
            if _infeasible_ray(a_mat, target, lam, a_max, ray_rows, ray):
                raise LpInfeasibleError("LP infeasible")
            return None
        if event < 2 * m:
            if k < 0:  # row i takes the place of the row that leaves
                rows[leave], row_signs[leave] = i, side
            else:
                rows.append(i)
                row_signs.append(side)
                cols.append(k)
                col_signs.append(np.sign(h[k]))
        elif k < 0:  # the zero coordinate and a row leave together
            del rows[leave], row_signs[leave], cols[pos], col_signs[pos]
        else:  # column k replaces the zero coordinate, or flips its sign
            cols[pos], col_signs[pos] = k, np.sign(h[k])
    return None


def _certified(a_mat, target, lam, w, rows, u):
    """True if w is feasible, u is dual feasible and their objectives meet."""
    u_full = np.zeros(a_mat.shape[0])
    u_full[rows] = u
    l1, dual = np.sum(np.abs(w)), target @ u_full - lam * np.sum(np.abs(u_full))
    return (np.max(np.abs(target - a_mat @ w)) <= lam + FEAS_TOL
            and np.max(np.abs(u_full @ a_mat)) <= 1.0 + _CERT_TOL
            and abs(l1 - dual) <= _CERT_TOL * max(1.0, l1))


def _infeasible_ray(a_mat, target, lam, a_max, rows, delta):
    """True if ``A^T delta = 0`` up to rounding and ``t.delta > (lam +
    FEAS_TOL) ||delta||_1``: then every w violates some row by more than
    FEAS_TOL, since ``delta.(t - A w) = t.delta``."""
    ray = np.zeros(a_mat.shape[0])
    ray[rows] = delta
    norm = np.sum(np.abs(ray))
    return (np.max(np.abs(ray @ a_mat)) <= _PIVOT_TOL * a_max * norm
            and target @ ray > (lam + FEAS_TOL) * norm)


def _full_lp(a_mat, target, lam):
    """The Dantzig LP in one ``solve_lp`` call, on its split form."""
    m = a_mat.shape[1]
    split = np.hstack([a_mat, -a_mat])
    sol = solve_lp(np.ones(2 * m), np.vstack([split, -split]),
                   np.concatenate([target + lam, lam - target]))
    return sol.x[:m] - sol.x[m:]


def _l1_min_linf_residual(a_mat, target, lam):
    """``argmin ||w||_1  s.t.  ||target - a_mat @ w||_inf <= lam`` for a
    square ``a_mat``, by the homotopy in lam with HiGHS as its fallback
    (see the module docstring)."""
    a_max = max(a_mat.max(), -a_mat.min())
    if not (np.isfinite(target).all() and np.isfinite(a_max)):
        raise ValueError("LP data must be finite")
    if not np.max(np.abs(target), initial=0.0) > lam:
        # w = 0 is feasible, and every other w has a positive l1 norm
        return np.zeros(a_mat.shape[1])
    w = _homotopy(a_mat, target, lam, a_max)
    return _full_lp(a_mat, target, lam) if w is None else w


def dantzig_direction(t_mat, alpha_index, lam):
    """Decorrelation direction for one coordinate of the parameter.

    Deletes row and column ``alpha_index`` from the symmetric matrix
    ``t_mat`` to form the nuisance block ``T_gg`` and the cross column
    ``T_ga``, and returns

        argmin ||w||_1  s.t.  ||T_ga - T_gg @ w||_inf <= lam.

    If ``||T_ga||_inf <= lam`` the answer is the zero vector, returned
    without solving the LP.

    Parameters
    ----------
    t_mat : (d, d) symmetric array
    alpha_index : int in [0, d)
    lam : float >= 0

    Returns
    -------
    np.ndarray, shape (d - 1,), ordered as the original coordinates with
    ``alpha_index`` removed.
    """
    t_mat = np.asarray(t_mat, dtype=float)
    d = t_mat.shape[0]
    if t_mat.shape != (d, d) or d < 2:
        raise ValueError("t_mat must be square with d >= 2")
    if not 0 <= alpha_index < d:
        raise ValueError("alpha_index out of range")
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    a = alpha_index
    t_ga = np.delete(t_mat[:, a], a)
    if np.max(np.abs(t_ga)) <= lam:
        return np.zeros(d - 1)
    # T_gg is copied only for an LP, in four blocks: a tenth of an np.ix_ gather
    t_gg = np.empty((d - 1, d - 1))
    t_gg[:a, :a], t_gg[:a, a:] = t_mat[:a, :a], t_mat[:a, a + 1:]
    t_gg[a:, :a], t_gg[a:, a:] = t_mat[a + 1:, :a], t_mat[a + 1:, a + 1:]
    return _l1_min_linf_residual(t_gg, t_ga, lam)


def clime_inverse(sigma_hat, lam):
    """Column-wise l1-minimizing inverse of a covariance matrix.

    Column j solves ``min ||theta||_1  s.t.  ||sigma_hat @ theta - e_j||_inf
    <= lam``.  The raw column-wise solution is returned, not symmetrized.
    For ``lam >= 1`` every column is zero.  The first breakpoint of every
    column is found at once: a column that ends there is the diagonal
    entry ``(1 - lam) / sigma_jj`` (see the module docstring), and only
    the other columns run the homotopy.

    Raises
    ------
    LpInfeasibleError
        If any column subproblem is infeasible (the message names the
        column index).
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    d = sigma_hat.shape[0]
    if sigma_hat.shape != (d, d):
        raise ValueError("sigma_hat must be square")
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    theta = np.zeros((d, d))
    if lam >= 1.0:
        # ||e_j||_inf <= lam, so w = 0 is every column's optimum
        return theta
    diag = np.diag(sigma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (1.0 - lam) / diag
        off = np.abs(sigma_hat * first)
    np.fill_diagonal(off, 0.0)
    # written so that a NaN entry leaves its column to the homotopy
    done = ((diag != 0.0) & (np.abs(sigma_hat) <= np.abs(diag)[:, None]).all(axis=1)
            & (off <= lam).all(axis=0))
    theta[done, done] = first[done]
    for j in np.flatnonzero(~done):
        target = np.zeros(d)
        target[j] = 1.0
        try:
            theta[:, j] = _l1_min_linf_residual(sigma_hat, target, lam)
        except LpInfeasibleError as exc:
            raise LpInfeasibleError(f"CLIME column {j} infeasible") from exc
    return theta
