"""Small dense linear programs backing the l1-constrained estimators.

Two estimators live here: the decorrelation direction (l1 minimization
under an l-infinity residual constraint on a curvature matrix) and the
column-wise CLIME inverse-covariance estimator.  Both solve the Dantzig
program

    argmin ||w||_1  s.t.  ||t - A w||_inf <= lam,

an LP in standard form ``min c.x  s.t.  G x <= h,  x >= 0`` via the
positive/negative split ``w = w+ - w-``, with one pair of rows
``+-(t_i - a_i w) <= lam`` per residual and one pair of columns per
coordinate of ``w``.

The optimum is sparse and few residual rows are tight at it, so the LP
is solved on a working set of rows R and columns J (row and column
generation, as in fastclime):

1. R starts as the rows that ``w = 0`` violates, ``|t_i| > lam``, and J
   as the same indices.  If R is empty, ``w = 0`` is feasible with l1
   norm 0, so it is the unique optimum and is returned without building
   or solving any LP; this holds for every decorrelation direction whose
   cross column lies within ``lam`` of zero, and for every CLIME column
   once ``lam >= 1``.
2. The LP restricted to rows R and columns J is solved.  If it is
   infeasible, J is widened to every column; if it is still infeasible,
   so is the full LP (it has more rows), and ``LpInfeasibleError`` is
   raised.  A 1 x 1 block, R = J = {i}, is solved in closed form, not by
   HiGHS: it reads ``min |w_i|  s.t.  |t_i - a_ii w_i| <= lam`` with
   ``|t_i| > lam``, so the row on the side of ``t_i`` binds and
   ``w_i = (t_i - sign(t_i) lam) / a_ii`` is its only optimum; its dual
   is ``-1/|a_ii|`` (the objective's slope in that row's bound) and the
   other row's is 0.  If ``a_ii = 0`` no w_i is feasible.  The division
   is the one the simplex pivot makes on that block, and the tests check
   x, objective and duals against ``solve_lp`` to the bit.  At the
   default CLIME lambda this block is a column's whole LP (one start
   row, nothing prices out, no row violated), so CLIME calls no solver.
3. The columns outside J are priced with the constraint duals y of the
   restricted solve: the split columns of coordinate k have reduced
   costs ``1 + g_k`` and ``1 - g_k`` with
   ``g = A[R, :]^T (y_upper - y_lower)``, and every k with ``|g_k| > 1``
   joins J before the LP is solved again.
4. Once no column prices out, the current w is optimal for the LP on
   rows R and all columns.  That LP drops rows of the full one, so it is
   a relaxation: if w also satisfies every row, it is optimal for the
   full LP and is returned.  Otherwise each violated row i, and the
   column with the same index, joins the working set and the loop goes
   back to step 2.

Every solve after the first follows a strict growth of R or J, and
neither set ever shrinks, so the loop ends after at most 2m + 1 solves;
on the MR decorrelation and CLIME inputs one or two suffice.

Every larger block goes to scipy's dual-simplex/HiGHS solver, which is
deterministic for a fixed input and accurate to well below the 1e-8
feasibility tolerance used throughout.  Correctness is cross-checked in
the test suite against an exhaustive vertex-enumeration oracle and
against the full LP solved in one piece.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import LpInfeasibleError, LpUnboundedError

#: entrywise feasibility tolerance for the l-infinity constraints
FEAS_TOL = 1e-8


@dataclass
class LpSolution:
    """Optimal point and objective of ``min c.x, A x <= b, x >= 0``.

    ``duals`` are the marginals of the inequality rows, the derivative of
    the optimal objective with respect to ``b``: one per row, each <= 0.
    """

    x: np.ndarray
    objective: float
    duals: np.ndarray


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
    return LpSolution(
        x=np.asarray(res.x, dtype=float),
        objective=float(res.fun),
        duals=np.asarray(res.ineqlin.marginals, dtype=float),
    )


def _solve_block(block, t_r, lam):
    """The Dantzig LP restricted to a working set, ``block = A[R, J]`` and
    ``t_r = t[R]``, as the ``LpSolution`` of its split form.  A 1 x 1
    block can only be the start block, whose row has ``|t_i| > lam``; it
    is solved in closed form (see the module docstring).  Any larger
    block goes to ``solve_lp``."""
    if block.shape != (1, 1):
        return solve_lp(
            np.ones(2 * block.shape[1]),
            np.block([[block, -block], [-block, block]]),
            np.concatenate([t_r + lam, lam - t_r]),
        )
    a, t = block[0, 0], t_r[0]
    if a == 0.0:
        raise LpInfeasibleError("LP infeasible")
    # |t| > lam, so the row on the side of t binds: a w = t - sign(t) lam
    w = (t - np.copysign(lam, t)) / a
    dual = -1.0 / abs(a)
    return LpSolution(
        x=np.array([max(w, 0.0), max(-w, 0.0)]),
        objective=float(abs(w)),
        duals=np.array([dual, 0.0] if t < 0 else [0.0, dual]),
    )


def _l1_min_linf_residual(a_mat, target, lam):
    """``argmin ||w||_1  s.t.  ||target - a_mat @ w||_inf <= lam`` for a
    square ``a_mat``, solved on a working set of rows and columns (see the
    module docstring)."""
    m = a_mat.shape[1]
    if not np.isfinite(target).all():
        raise ValueError("LP data must be finite")
    rows = np.abs(target) > lam
    if not rows.any():
        # w = 0 is feasible, and every other w has a positive l1 norm
        return np.zeros(m)
    # each solve sees only a block of a_mat, so check all of it here
    if not np.isfinite(a_mat).all():
        raise ValueError("LP data must be finite")
    cols = rows.copy()
    while True:
        r_idx, j_idx = np.flatnonzero(rows), np.flatnonzero(cols)
        try:
            sol = _solve_block(a_mat[np.ix_(r_idx, j_idx)], target[r_idx], lam)
        except LpInfeasibleError:
            if cols.all():
                raise
            cols[:] = True
            continue
        # the marginals are -y, so this is -(y_upper - y_lower); |g| is sign-free
        y = sol.duals[: r_idx.size] - sol.duals[r_idx.size :]
        priced = ~cols & (np.abs(a_mat[r_idx].T @ y) > 1.0)
        if priced.any():
            cols |= priced
            continue
        w = np.zeros(m)
        w[j_idx] = sol.x[: j_idx.size] - sol.x[j_idx.size :]
        violated = ~rows & (np.abs(target - a_mat @ w) > lam)
        if not violated.any():
            return w
        rows |= violated
        cols |= violated


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
    keep = np.delete(np.arange(d), alpha_index)
    t_ga = t_mat[keep, alpha_index]
    if np.max(np.abs(t_ga)) <= lam:
        # skip the (d - 1)^2 copy of T_gg when w = 0 is optimal
        return np.zeros(d - 1)
    return _l1_min_linf_residual(t_mat[np.ix_(keep, keep)], t_ga, lam)


def clime_inverse(sigma_hat, lam):
    """Column-wise l1-minimizing inverse of a covariance matrix.

    Column j solves ``min ||theta||_1  s.t.  ||sigma_hat @ theta - e_j||_inf
    <= lam``.  The raw column-wise solution is returned, not symmetrized.
    For ``lam >= 1`` every column is zero and no LP is solved.

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
    for j in range(d):
        target = np.zeros(d)
        target[j] = 1.0
        try:
            theta[:, j] = _l1_min_linf_residual(sigma_hat, target, lam)
        except LpInfeasibleError as exc:
            raise LpInfeasibleError(f"CLIME column {j} infeasible") from exc
    return theta
