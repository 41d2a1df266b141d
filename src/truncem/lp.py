"""Small dense linear programs backing the l1-constrained estimators.

Two estimators live here: the decorrelation direction (l1 minimization
under an l-infinity residual constraint on a curvature matrix) and the
column-wise CLIME inverse-covariance estimator.  Both reduce to LPs in
standard form ``min c.x  s.t.  A x <= b,  x >= 0`` via the positive/negative
split ``w = w+ - w-``.

When ``||target||_inf <= lam`` the zero vector is feasible with l1 norm 0,
so it is the unique optimum and is returned without building or solving
the LP.  This holds for every decorrelation direction whose cross column
lies within ``lam`` of zero, and for every CLIME column once ``lam >= 1``.

The LP backend is scipy's dual-simplex/HiGHS solver, which is
deterministic for a fixed input and accurate to well below the 1e-8
feasibility tolerance used throughout.  Correctness is cross-checked in
the test suite against an exhaustive vertex-enumeration oracle.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import LpInfeasibleError, LpUnboundedError

#: entrywise feasibility tolerance for the l-infinity constraints
FEAS_TOL = 1e-8


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


def _l1_min_linf_residual(a_mat, target, lam):
    """``argmin ||w||_1  s.t.  ||target - a_mat @ w||_inf <= lam``."""
    m = a_mat.shape[1]
    if np.max(np.abs(target)) <= lam:
        # w = 0 is feasible, and every other w has a positive l1 norm
        return np.zeros(m)
    c = np.ones(2 * m)
    block = np.hstack([a_mat, -a_mat])
    a_ub = np.vstack([block, -block])
    b_ub = np.concatenate([target + lam, lam - target])
    sol = solve_lp(c, a_ub, b_ub)
    return sol.x[:m] - sol.x[m:]


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
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    keep = np.delete(np.arange(d), alpha_index)
    t_ga = t_mat[keep, alpha_index]
    t_gg = t_mat[np.ix_(keep, keep)]
    return _l1_min_linf_residual(t_gg, t_ga, lam)


def clime_inverse(sigma_hat, lam, symmetrize=False):
    """Column-wise l1-minimizing inverse of a covariance matrix.

    Column j solves ``min ||theta||_1  s.t.  ||sigma_hat @ theta - e_j||_inf
    <= lam``.  By default the raw column-wise solution is returned (no
    symmetrization); pass ``symmetrize=True`` to combine (i, j) and (j, i)
    by minimum magnitude.  For ``lam >= 1`` every column is zero and no LP
    is solved.

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
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    theta = np.zeros((d, d))
    for j in range(d):
        target = np.zeros(d)
        target[j] = 1.0
        try:
            theta[:, j] = _l1_min_linf_residual(sigma_hat, target, lam)
        except LpInfeasibleError as exc:
            raise LpInfeasibleError(f"CLIME column {j} infeasible") from exc
    if symmetrize:
        smaller = np.abs(theta) <= np.abs(theta.T)
        theta = np.where(smaller, theta, theta.T)
    return theta
