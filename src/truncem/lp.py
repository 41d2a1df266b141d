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
   is ``w_J = A[S, J]^-1 (t_S - lam s)`` from the final basis, by a fresh
   ``np.linalg.solve``.  If the ratio test finds no usable pivot, delta
   may be a ray with ``A^T delta = 0`` and ``t.delta = lam_b ||delta||_1``
   at the breakpoint lam_b; then ``delta.(t - A w) = t.delta`` gives
   ``||t - A w||_inf >= lam_b`` for every w.  When that holds up to
   rounding and lam_b exceeds ``lam + FEAS_TOL``, it certifies that the
   LP is infeasible, and ``LpInfeasibleError`` is raised.

The basis is never re-gathered or re-inverted (Vanderbei, *Linear
Programming*, ch. 8).  A[S, :], A[:, J] (stored as rows), (t_S, s) and z
live in buffers that start at 16 rows and double when full, in the
order the rows and columns joined, and ``inv = A[S, J]^-1`` changes with
them by one row or column per pivot:

- a row i and a column j join: bordering.  With ``y = a_{i,J} inv`` (the
  ray's own product), ``x = inv a_{S,j}`` and the Schur complement
  ``sigma = a_ij - y.a_{S,j}``, the new inverse is ``[[inv + x y^T /
  sigma, -x / sigma], [-y^T / sigma, 1 / sigma]]``;
- row i replaces row l of S: Sherman-Morrison, ``inv - inv[:, l] (y -
  e_l)^T / y_l``;
- column j replaces support coordinate p: Sherman-Morrison, ``inv - (x -
  e_p) inv[p] / x_p``; when j is p itself only its sign flips;
- row l and coordinate p leave together: the Schur downdate ``inv -
  inv[:, l] inv[p] / inv[p, l]``, then row p and column l are deleted.

The event scan is fused over the rows: with the residual ``r = c + lam
e`` along the stretch, a free row i binds at ``|c_i| / (1 - sign(c_i)
e_i)`` when that denominator is positive.  The column ratio is
``max((sign(h) - g) / h, 0)`` with ``g = A^T u`` and ``h = A^T delta``.
Since the final solve starts afresh, w is bit-identical to that of a
basis re-inverted at every pivot whenever the two take the same pivots.

A is symmetric and read only as rows ``a[i]`` (row j is column j), from
an array or from a mapping that forms them on demand, as ``inference``
does with curvature columns; the pivot scale ``a_max = max |a_ij|`` comes
from the caller.  ``dantzig_columns`` poses its LP on T itself: target
``T[:, alpha]`` with entry alpha set to 0, and row and column alpha
masked out.  Row alpha never binds (its hit is -inf), column alpha never
enters (its ratio is +inf), and the certificate and the infeasible ray
ignore both.

Before it returns, the answer is certified: ``||t - A w||_inf <= lam +
FEAS_TOL``, ``||A^T u||_inf <= 1 + tol`` and a closed duality gap,
``||w||_1 = t.u - lam ||u||_1``; by weak duality no feasible point has
a smaller l1 norm; ``A w = w_J A[J, :]`` and ``A^T u = u A[S, :]`` are
read from the basis buffers.  The whole LP, every row of A gathered, goes
to HiGHS in one ``solve_lp`` call on its positive/negative split ``w = w+
- w-``, with one pair of rows ``+-(t_i - a_i w) <= lam`` per residual,
when the certificate fails, when a pivot of the ratio test or of a basis
update is not above ``_PIVOT_TOL`` (relative to ``max |a_ij|`` where it
has that scale), when the final basis is singular, or when the pivot
count reaches a fixed cap (ties and degenerate vertices can make a path
stall).  That call is the only solver call left; the MR decorrelation
LPs at the command-line defaults and the CLIME inputs of
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
#: rows of the homotopy's basis buffers at the start; they double when full
_BASIS_ROWS = 16


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


class _Basis:
    """The homotopy's basis: active rows S with signs s and support
    columns J with signs z, in the order they joined.  ``a_rows[:k]``
    holds A[S, :], ``a_cols[:k]`` holds A[J, :] = A[:, J]^T, ``ts[:k]`` holds
    (t_S, s), ``z[:k]`` holds z and ``inv[:k, :k]`` is A[S, J]^-1, for
    k = |S| = |J|; ``free_rows`` and ``free_cols`` are 1 on the rows that
    may bind and the columns that may enter, and 0 on S, on J and on the
    masked row and column.  The buffers start at ``_BASIS_ROWS`` rows and
    double when full; each pivot changes them by one row or column (see
    the module docstring).  An update returns False, and changes nothing,
    when its pivot is not above ``_PIVOT_TOL``, scaled by ``a_max`` for a
    pivot in the units of A or of its inverse."""

    def __init__(self, a, target, a_max, masked):
        self.a, self.target, self.a_max = a, target, a_max
        self.rows, self.cols = [], []
        m = target.size
        self.free_rows, self.free_cols = np.ones(m), np.ones(m)
        if masked is not None:
            self.free_rows[masked] = self.free_cols[masked] = 0.0
        self._allocate(_BASIS_ROWS)

    def _allocate(self, cap):
        """Buffers of ``cap`` rows, holding the basis of the old ones."""
        k, m = len(self.rows), self.target.size
        for name, shape in (("a_rows", (cap, m)), ("a_cols", (cap, m)), ("ts", (cap, 2)),
                            ("z", (cap,)), ("inv", (cap, cap))):
            buf = np.empty(shape)
            if k:
                kept = np.s_[:k, :k] if name == "inv" else np.s_[:k]
                buf[kept] = getattr(self, name)[kept]
            setattr(self, name, buf)

    def stage_row(self, i):
        """Copy row i of A to ``a_rows[k]``, growing the buffers if full."""
        k = len(self.rows)
        if k == self.z.size:
            self._allocate(2 * k)
        self.a_rows[k] = self.a[i]

    def border(self, i, side, j, sign, y):
        """Row i (staged) joins S with sign ``side`` and column j joins J
        with sign ``sign``, by bordering; ``y = A[i, J] inv``."""
        k = len(self.rows)
        inv, b = self.inv[:k, :k], self.a_rows[:k, j]
        sigma = self.a_rows[k, j] - np.dot(y, b)
        if not abs(sigma) > _PIVOT_TOL * self.a_max:
            return False
        x, y = np.dot(inv, b), y / sigma
        inv += np.multiply.outer(x, y)
        self.inv[:k, k], self.inv[k, :k], self.inv[k, k] = x / -sigma, -y, 1.0 / sigma
        self.a_cols[k] = self.a[j]
        self.ts[k] = self.target[i], side
        self.z[k] = sign
        self.rows.append(i)
        self.cols.append(j)
        self.free_rows[i] = self.free_cols[j] = 0.0
        return True

    def replace_row(self, leave, i, side, y):
        """Row i (staged) takes the place of row ``leave`` of S, by
        Sherman-Morrison; ``y = A[i, J] inv``."""
        k, pivot = len(self.rows), y[leave]
        if not abs(pivot) > _PIVOT_TOL:
            return False
        inv = self.inv[:k, :k]
        y = y.copy()
        y[leave] -= 1.0
        inv -= np.multiply.outer(inv[:, leave] / pivot, y)
        self.a_rows[leave] = self.a_rows[k]
        self.ts[leave] = self.target[i], side
        self.free_rows[self.rows[leave]], self.free_rows[i] = 1.0, 0.0
        self.rows[leave] = i
        return True

    def replace_col(self, pos, j, sign):
        """Column j takes the place of support coordinate ``pos``, by
        Sherman-Morrison; if j is that coordinate, only its sign flips."""
        if j != self.cols[pos]:
            k = len(self.rows)
            inv = self.inv[:k, :k]
            x = np.dot(inv, self.a_rows[:k, j])
            pivot = x[pos]
            if not abs(pivot) > _PIVOT_TOL:
                return False
            x[pos] -= 1.0
            inv -= np.multiply.outer(x, inv[pos] / pivot)
            self.a_cols[pos] = self.a[j]
            self.free_cols[self.cols[pos]], self.free_cols[j] = 1.0, 0.0
            self.cols[pos] = j
        self.z[pos] = sign
        return True

    def downdate(self, leave, pos):
        """Row ``leave`` of S and support coordinate ``pos`` leave
        together, by the Schur downdate."""
        k = len(self.rows)
        inv = self.inv[:k, :k]
        pivot = inv[pos, leave]
        if not abs(pivot) * self.a_max > _PIVOT_TOL:
            return False
        inv -= np.multiply.outer(inv[:, leave], inv[pos] / pivot)
        inv[pos:-1] = inv[pos + 1:]
        inv[:, leave:-1] = inv[:, leave + 1:]
        for buf, at in ((self.a_rows, leave), (self.ts, leave), (self.a_cols, pos),
                        (self.z, pos)):
            buf[at:k - 1] = buf[at + 1:k]
        self.free_rows[self.rows.pop(leave)] = self.free_cols[self.cols.pop(pos)] = 1.0
        return True


def _homotopy(a, target, lam, a_max, masked=None):
    """Follow the optimal basis from ``lam_0 = ||target||_inf > lam`` down
    to lam (see the module docstring), with row and column ``masked``, if
    given, left out of the LP.  Returns the certified optimum, or None
    when the path is not trusted and HiGHS must solve the LP; raises
    ``LpInfeasibleError`` on a certified infeasible ray."""
    m = target.size
    basis = _Basis(a, target, a_max, masked)
    rows, cols = basis.rows, basis.cols
    hits, col_ratio, coord_hits, row_ratio = np.empty((4, m))
    lam_cur = np.max(np.abs(target))
    for _ in range(10 * m + 10):  # a cap against cycling on degenerate ties
        k = len(rows)
        inv, s, z = basis.inv[:k, :k], basis.ts[:k, 1], basis.z[:k]
        pq, u = np.dot(inv, basis.ts[:k]), np.dot(z, inv)
        # w_J = p - lam q and r = t - A w = c + lam e along this stretch
        ce = np.dot(pq.T, basis.a_cols[:k])
        c, e = target - ce[0], ce[1]
        # a free row binds where |r_i| reaches lam, at |c_i| / (1 - sign(c_i)
        # e_i) if that is positive; support coordinate j leaves where z_j w_j
        # reaches 0, at p_j / q_j if z_j q_j < 0
        falling = 1.0 - np.sign(c) * e
        falling *= basis.free_rows
        hits.fill(-np.inf)
        np.divide(np.abs(c), falling, out=hits, where=falling > 0.0)
        i = int(hits.argmax())
        lam_next, row_event = hits[i], True
        if k:
            leaving = coord_hits[:k]
            leaving.fill(-np.inf)
            np.divide(pq[:, 0], pq[:, 1], out=leaving, where=z * pq[:, 1] < 0.0)
            pos = int(leaving.argmax())
            if leaving[pos] > lam_next:
                lam_next, row_event = leaving[pos], False
        lam_cur = min(lam_cur, lam_next)
        if lam_cur <= lam:
            w, t_s, a_s = np.zeros(m), basis.ts[:k, 0], basis.a_rows[:k]
            try:
                w[cols] = w_j = np.linalg.solve(a_s[:, cols], t_s - lam * s)
            except np.linalg.LinAlgError:
                return None
            ok = _certified(target, lam, w_j, basis.a_cols[:k], u, a_s, t_s, masked)
            return w if ok else None
        # the dual moves along a ray over the rows that then carry it: row
        # i joins them, or coordinate pos gets a positive reduced cost
        if row_event:
            side = 1.0 if c[i] > 0.0 else -1.0
            y = np.dot(basis.a_cols[:k, i], inv)  # A[i, J] inv
            ray = np.concatenate((-side * y, (side,)))
            basis.stage_row(i)
        else:
            ray = -z[pos] * inv[pos]
        ray /= np.abs(ray).max()
        delta = ray[:k]
        g, h = np.dot(u, basis.a_rows[:k]), np.dot(ray, basis.a_rows[:k + row_event])
        # only free columns, and the leaving coordinate, may enter
        h_pos = 0.0 if row_event else h[cols[pos]]
        h *= basis.free_cols
        if not row_event:
            h[cols[pos]] = h_pos
        # ratio test: columns whose |(A^T u)_j| = |g_j| reaches 1, rows of
        # S whose multiplier s_l u_l reaches 0, as u moves along the ray
        col_ratio.fill(np.inf)
        np.divide(np.sign(h) - g, h, out=col_ratio, where=h != 0.0)
        np.maximum(col_ratio, 0.0, out=col_ratio)
        j = int(col_ratio.argmin())
        if k:
            emptying = row_ratio[:k]
            emptying.fill(np.inf)
            np.divide(-u, delta, out=emptying, where=s * delta < 0.0)
            np.maximum(emptying, 0.0, out=emptying)
            leave = int(emptying.argmin())
        if k and emptying[leave] < col_ratio[j]:
            if abs(delta[leave]) < _PIVOT_TOL:
                return None
            j = -1
        elif abs(h[j]) < _PIVOT_TOL * a_max:
            # no usable pivot: either A^T ray = 0 proves infeasibility, or
            # the path is ill-conditioned here
            ray_rows = rows + [i] if row_event else rows
            if _infeasible_ray(lam, a_max, ray, basis.a_rows[:len(ray_rows)],
                               target[ray_rows], masked):
                raise LpInfeasibleError("LP infeasible")
            return None
        if row_event:
            done = (basis.replace_row(leave, i, side, y) if j < 0
                    else basis.border(i, side, j, np.sign(h[j]), y))
        elif j < 0:  # the zero coordinate and a row leave together
            done = basis.downdate(leave, pos)
        else:  # column j replaces the zero coordinate, or flips its sign
            done = basis.replace_col(pos, j, np.sign(h[j]))
        if not done:
            return None
    return None


def _certified(target, lam, w_j, a_j, u, a_s, t_s, masked=None):
    """True if w is feasible, u is dual feasible and their objectives
    meet: w is ``w_j`` on J with ``a_j = A[J, :]``, u is on S with ``a_s =
    A[S, :]`` and ``t_s = t_S``; row and column ``masked`` are not in the LP."""
    resid, reduced = target - w_j @ a_j, u @ a_s
    if masked is not None:
        resid[masked] = reduced[masked] = 0.0
    l1, dual = np.sum(np.abs(w_j)), t_s @ u - lam * np.sum(np.abs(u))
    return (np.max(np.abs(resid)) <= lam + FEAS_TOL
            and np.max(np.abs(reduced)) <= 1.0 + _CERT_TOL
            and abs(l1 - dual) <= _CERT_TOL * max(1.0, l1))


def _infeasible_ray(lam, a_max, delta, a_s, t_s, masked=None):
    """True if ``A^T delta = 0`` up to rounding and ``t.delta > (lam +
    FEAS_TOL) ||delta||_1``: then every w violates some row by more than
    FEAS_TOL, since ``delta.(t - A w) = t.delta``; delta is on the rows S
    of ``a_s = A[S, :]`` and ``t_s = t_S``, and column ``masked`` is not in
    the LP."""
    norm, reduced = np.sum(np.abs(delta)), delta @ a_s
    if masked is not None:
        reduced[masked] = 0.0
    return (np.max(np.abs(reduced)) <= _PIVOT_TOL * a_max * norm
            and t_s @ delta > (lam + FEAS_TOL) * norm)


def _full_lp(a, target, lam, masked=None):
    """The Dantzig LP in one ``solve_lp`` call, on its split form, over
    the rows of A gathered but row and column ``masked``, where w is 0."""
    keep = np.delete(np.arange(target.size), [] if masked is None else masked)
    a_mat, t, m = np.array([a[i][keep] for i in keep]), target[keep], keep.size
    split = np.hstack([a_mat, -a_mat])
    sol = solve_lp(np.ones(2 * m), np.vstack([split, -split]),
                   np.concatenate([t + lam, lam - t]))
    w = np.zeros(target.size)
    w[keep] = sol.x[:m] - sol.x[m:]
    return w


def _abs_max(a_mat, masked=None):
    """``max |a_ij|`` without a copy, over the blocks of the rows and columns
    other than ``masked`` if given; NaN if any of them holds a NaN."""
    cuts = (slice(None),) if masked is None else (slice(masked), slice(masked + 1, None))
    blocks = [a_mat[r, c] for r in cuts for c in cuts]
    return np.max([v for b in blocks if b.size for v in (b.max(), -b.min())])


def _l1_min_linf_residual(a, target, lam, a_max, masked=None):
    """``argmin ||w||_1  s.t.  ||target - A w||_inf <= lam`` for a
    symmetric A of rows ``a[i]`` and ``a_max = max |a_ij|``, by the
    homotopy in lam with HiGHS as its fallback (see the module
    docstring).  With ``masked`` set, row and column
    ``masked`` are not part of the LP (``target[masked]`` must be 0), and
    ``w[masked]`` is 0."""
    if not (np.isfinite(target).all() and np.isfinite(a_max)):
        raise ValueError("LP data must be finite")
    if not np.max(np.abs(target), initial=0.0) > lam:
        # w = 0 is feasible, and every other w has a positive l1 norm
        return np.zeros(target.size)
    w = _homotopy(a, target, lam, a_max, masked)
    return _full_lp(a, target, lam, masked) if w is None else w


def dantzig_direction(t_mat, alpha_index, lam):
    """Decorrelation direction for one coordinate of the parameter.

    With the nuisance block ``T_gg`` and the cross column ``T_ga`` of the
    symmetric matrix ``t_mat`` (row and column ``alpha_index`` deleted),
    returns

        argmin ||w||_1  s.t.  ||T_ga - T_gg @ w||_inf <= lam.

    If ``||T_ga||_inf <= lam`` the answer is the zero vector, returned
    without solving the LP.  Otherwise ``dantzig_columns`` solves it on
    ``t_mat`` itself with ``a_max = max |T_gg|``; no block is copied.

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
    return dantzig_columns(t_mat, alpha_index, lam, _abs_max(t_mat, alpha_index))


def dantzig_columns(rows, alpha_index, lam, a_max):
    """``dantzig_direction``, unchecked, for a symmetric T given by its
    rows ``rows[i]``, of which it reads row alpha and the basis rows, and
    ``a_max = max |T_gg|``."""
    a = alpha_index
    target = np.array(rows[a], dtype=float)
    target[a] = 0.0
    if np.max(np.abs(target)) <= lam:
        return np.zeros(target.size - 1)
    return np.delete(_l1_min_linf_residual(rows, target, lam, a_max, masked=a), a)


def clime_inverse(sigma_hat, lam):
    """Column-wise l1-minimizing inverse of a covariance matrix.

    Column j solves ``min ||theta||_1  s.t.  ||sigma_hat @ theta - e_j||_inf
    <= lam``, for a symmetric ``sigma_hat``.  The raw column-wise solution
    is returned, not symmetrized.
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
    rest = np.flatnonzero(~done)
    a_max = _abs_max(sigma_hat) if rest.size else None
    for j in rest:
        target = np.zeros(d)
        target[j] = 1.0
        try:
            theta[:, j] = _l1_min_linf_residual(sigma_hat, target, lam, a_max)
        except LpInfeasibleError as exc:
            raise LpInfeasibleError(f"CLIME column {j} infeasible") from exc
    return theta
