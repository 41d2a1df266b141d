"""Small dense linear programs backing the l1-constrained estimators.

The decorrelation direction and the column-wise CLIME inverse both solve
the Dantzig program

    argmin ||w||_1  s.t.  ||t - A w||_inf <= lam,

whose dual is ``max t.u - lam ||u||_1  s.t.  ||A^T u||_inf <= 1``.  A is
symmetric and read only as rows ``a[i]`` (row j is column j), from an
array or from a mapping that forms them on demand, as ``inference`` does
with curvature columns; the pivot scale ``a_max = max |a_ij|`` comes
from the caller.  The entry points are ``dantzig_direction`` (checked,
on a matrix), ``dantzig_columns`` (unchecked, on rows) and
``clime_inverse``.  A direction's LP is posed on T itself: target
``T[:, alpha]`` with entry alpha set to 0, and row and column alpha
masked out.  Row alpha never binds, column alpha never enters, and the
certificate and the infeasible ray ignore both.

The LP is solved by a homotopy in lam (see ``_homotopy``), whose answer
is certified before it returns: ``||t - A w||_inf <= lam + FEAS_TOL``,
``||A^T u||_inf <= 1 + tol`` and a closed duality gap, so by weak duality
no feasible point has a smaller l1 norm.  When the certificate fails, a
pivot is not above ``_PIVOT_TOL``, the final basis is singular or the
pivot count reaches its cap, the whole LP goes to HiGHS in one
``linprog`` call on the split ``w = w+ - w-``.  The LPs at the
command-line defaults and the CLIME inputs of ``scripts/bench_lp.py``
never take that path, so ``scipy.optimize`` is imported on the first
fallback: the module attribute ``linprog`` resolves on first access (PEP
562) and then stays a plain global, which callers may read or patch.

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

import numpy as np

from .errors import LpInfeasibleError, LpSolverError

#: entrywise feasibility tolerance for the l-infinity constraints
FEAS_TOL = 1e-8
#: dual feasibility and duality gap tolerance of the homotopy's certificate
_CERT_TOL = 1e-9
#: smallest pivot the homotopy takes, relative to max |a_ij| for a column
#: and to max |delta| = 1 for a row; below it, (A^T delta)_k counts as 0
_PIVOT_TOL = 1e-11
#: rows of the homotopy's basis buffers at the start; they double when full
_BASIS_ROWS = 16


def __getattr__(name):
    """``linprog`` from ``scipy.optimize``, imported on first access and
    then kept as a module global (PEP 562); every other name is missing."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog


class _Basis:
    """The homotopy's basis: active rows S with signs s and support
    columns J with signs z, in the order they joined.  ``a_rows[:k]``
    holds A[S, :], ``a_cols[:k]`` holds A[J, :] = A[:, J]^T, ``ts[:k]`` holds
    (t_S, s), ``z[:k]`` holds z and ``ray[:k + 1]`` is room for the dual
    ray, for k = |S| = |J|; ``inv`` is A[S, J]^-1, a contiguous k x k array
    (a new one when k changes, 0 x 0 at the start), as numpy's small
    products and updates are faster on it than on a block of a larger
    buffer.  ``free_rows`` is 1 on the rows that may bind and 0 on S and the
    masked row; ``barred_cols`` is 0 on the columns that may enter and +inf
    on J and the masked column, the floor the column ratio is clipped at.
    The buffers start at ``_BASIS_ROWS`` rows and double when full; each
    pivot changes them, and ``inv``, by one row or column, and nothing is
    re-gathered or re-inverted (Vanderbei, *Linear Programming*, ch. 8).
    An update returns False, and changes nothing, when its pivot is not
    above ``_PIVOT_TOL``, scaled by ``a_max`` for a pivot in the units of A
    or of its inverse."""

    def __init__(self, a, target, a_max, masked):
        self.a, self.target, self.a_max = a, target, a_max
        self.rows, self.cols = [], []
        m = target.size
        self.free_rows, self.barred_cols = np.ones(m), np.zeros(m)
        if masked is not None:
            self.free_rows[masked], self.barred_cols[masked] = 0.0, np.inf
        self.inv = np.empty((0, 0))
        self._allocate(_BASIS_ROWS)

    def _allocate(self, cap):
        """Buffers of ``cap`` rows, holding the basis of the old ones."""
        k, m = len(self.rows), self.target.size
        for name, shape in (("a_rows", (cap, m)), ("a_cols", (cap, m)), ("ts", (cap, 2)),
                            ("z", (cap,))):
            buf = np.empty(shape)
            if k:
                buf[:k] = getattr(self, name)[:k]
            setattr(self, name, buf)
        self.ray = np.empty(cap + 1)

    def stage_row(self, i):
        """Copy row i of A to ``a_rows[k]``, growing the buffers if full."""
        k = len(self.rows)
        if k == self.z.size:
            self._allocate(2 * k)
        self.a_rows[k] = self.a[i]

    def border(self, i, side, j, sign, y):
        """Row i (staged) joins S with sign ``side`` and column j joins J
        with sign ``sign``, by bordering: with ``y = A[i, J] inv``, ``x = inv
        A[S, j]`` and the Schur complement ``sigma = a_ij - y.A[S, j]``, the
        new inverse is ``[[inv + x y^T / sigma, -x / sigma], [-y^T / sigma,
        1 / sigma]]``."""
        k, a_rows = len(self.rows), self.a_rows
        b = a_rows[:k, j]
        sigma = float(a_rows[k, j] - y.dot(b))
        if not abs(sigma) > _PIVOT_TOL * self.a_max:
            return False
        # the new row -y / sigma, then inv - x (-y / sigma)^T: the roundings of
        # inv + x (y / sigma)^T, as negation is exact; numpy writes the update
        # faster to a contiguous array than to a block of the new one
        x, inv = self.inv.dot(b), np.empty((k + 1, k + 1))
        row = inv[k, :k]
        np.divide(y, -sigma, out=row)
        update = x[:, None] * row
        inv[:k, :k] = np.subtract(self.inv, update, out=update)
        np.divide(x, -sigma, out=inv[:k, k])
        inv[k, k] = 1.0 / sigma
        self.inv = inv
        self.a_cols[k] = self.a[j]
        self.ts[k, 0], self.ts[k, 1], self.z[k] = self.target[i], side, sign
        self.rows.append(i)
        self.cols.append(j)
        self.free_rows[i], self.barred_cols[j] = 0.0, np.inf
        return True

    def replace_row(self, leave, i, side, y):
        """Row i (staged) takes the place of row l = ``leave`` of S, by
        Sherman-Morrison: ``inv - inv[:, l] (y - e_l)^T / y_l`` with ``y =
        A[i, J] inv``."""
        k, pivot, inv = len(self.rows), y[leave], self.inv
        if not abs(pivot) > _PIVOT_TOL:
            return False
        y = y.copy()
        y[leave] -= 1.0
        inv -= np.multiply.outer(inv[:, leave] / pivot, y)
        self.a_rows[leave] = self.a_rows[k]
        self.ts[leave] = self.target[i], side
        self.free_rows[self.rows[leave]], self.free_rows[i] = 1.0, 0.0
        self.rows[leave] = i
        return True

    def replace_col(self, pos, j, sign):
        """Column j takes the place of support coordinate p = ``pos``, by
        Sherman-Morrison: ``inv - (x - e_p) inv[p] / x_p`` with ``x = inv
        A[S, j]``; if j is that coordinate, only its sign flips."""
        if j != self.cols[pos]:
            k, inv = len(self.rows), self.inv
            x = inv.dot(self.a_rows[:k, j])
            pivot = x[pos]
            if not abs(pivot) > _PIVOT_TOL:
                return False
            x[pos] -= 1.0
            inv -= np.multiply.outer(x, inv[pos] / pivot)
            self.a_cols[pos] = self.a[j]
            self.barred_cols[self.cols[pos]], self.barred_cols[j] = 0.0, np.inf
            self.cols[pos] = j
        self.z[pos] = sign
        return True

    def downdate(self, leave, pos):
        """Row l = ``leave`` of S and support coordinate p = ``pos`` leave
        together, by the Schur downdate ``inv - inv[:, l] inv[p] / inv[p,
        l]``, then row p and column l of it are deleted."""
        k, inv = len(self.rows), self.inv
        pivot = inv[pos, leave]
        if not abs(pivot) * self.a_max > _PIVOT_TOL:
            return False
        inv -= np.multiply.outer(inv[:, leave], inv[pos] / pivot)
        inv[pos:-1] = inv[pos + 1:]
        inv[:, leave:-1] = inv[:, leave + 1:]
        self.inv = inv[:-1, :-1].copy()
        for buf, at in ((self.a_rows, leave), (self.ts, leave), (self.a_cols, pos),
                        (self.z, pos)):
            buf[at:k - 1] = buf[at + 1:k]
        self.free_rows[self.rows.pop(leave)], self.barred_cols[self.cols.pop(pos)] = 1.0, 0.0
        return True


@np.errstate(divide="ignore", invalid="ignore")  # the scans divide by 0 on purpose
def _homotopy(a, target, lam, a_max, masked=None):
    """Follow the optimal basis from ``lam_0 = ||target||_inf > lam`` down
    to lam, with row and column ``masked``, if given, left out of the LP:
    the parametric simplex of fastclime (Pang, Liu & Vanderbei, JMLR 2014)
    and DASSO (James, Radchenko & Lv, JRSS-B 2009).

    1. Below lam_0, where w = 0 stops being feasible, the optimum is
       carried by a basis: active rows S with signs s (``t_i - a_i w = s_i
       lam``) and support columns J with signs z, |S| = |J|.  While it
       stays optimal, ``w_J = A[S, J]^-1 (t_S - lam s)`` is linear in lam
       and the dual ``u_S = A[S, J]^-T z`` is constant.  A breakpoint is
       the largest lam below the current one at which a free row reaches
       +-lam or a support coordinate reaches 0.
    2. Each breakpoint is one dual simplex pivot.  The variable that hits
       its bound leaves the basis, which fixes a ray delta for the dual.
       The ratio test on ``A[S, :]^T u`` and ``A[S, :]^T delta`` finds the
       first column k whose ``|(A^T u)_k|`` reaches 1 (it joins J, or
       replaces the leaving coordinate, possibly with the sign flipped) or
       the first row of S whose multiplier reaches 0 (it leaves S).  The
       new basis is dual feasible by the ratio test and primal feasible
       just below the breakpoint, so the path is exact.
    3. At the first breakpoint at or below lam, ``w_J`` is solved afresh
       from the final basis, so w is bit-identical to that of a basis
       re-inverted at every pivot whenever both take the same pivots.  If
       no pivot is usable, delta may be a ray with ``A^T delta = 0`` and
       ``t.delta = lam_b ||delta||_1`` at the breakpoint lam_b; then
       ``||t - A w||_inf >= lam_b`` for every w, which certifies an
       infeasible LP when lam_b exceeds ``lam + FEAS_TOL``.

    Every pivot, the first one from w = 0 (k = 0) included, takes the same
    path.  One that borders the basis is 37 numpy calls on arrays of m or
    k entries (10 in the event scan and 1 list for its scalar loop, 7 for
    the ray and the row that joins, 3 of them the row read, 7 in the ratio
    test and 3 lists for its scalar loop, and 9 in the bordering), the
    m-entry ones into buffers made once per LP, and scalar loops over
    Python lists whose floats round as numpy's do.  Returns the certified
    optimum, or None when the path is not trusted and HiGHS must solve the
    LP; raises ``LpInfeasibleError`` on a certified infeasible ray."""
    m = target.size
    basis = _Basis(a, target, a_max, masked)
    rows, cols = basis.rows, basis.cols
    free_rows, barred_cols = basis.free_rows, basis.barred_cols
    # c, e, the row hits, the column ratios, g and h, written in place
    work = np.empty((6, m))
    ce, (c, e, hits, col_ratio, g, h) = work[:2], work
    lam_cur = np.abs(target).max()
    for _ in range(10 * m + 10):  # a cap against cycling on degenerate ties
        k, inv = len(rows), basis.inv
        pq, u = inv.dot(basis.ts[:k]), basis.z[:k].dot(inv)
        # w_J = p - lam q and r = t - A w = c + lam e along this stretch
        pq.T.dot(basis.a_cols[:k], out=ce)
        np.subtract(target, c, out=c)
        # a free row binds where |r_i| reaches lam, at c_i / (sign(c_i) - e_i)
        # = |c_i| / (1 - sign(c_i) e_i) if 1 - sign(c_i) e_i > 0, that is, if
        # the hit is positive or +inf from an overflow; a bound or masked row
        # (c_i set to 0), a zero denominator and 0 / 0 are no hit
        c *= free_rows
        np.sign(c, out=hits)
        hits -= e
        np.divide(c, hits, out=hits)
        i = int(hits.argmax())
        lam_next = hits.item(i)
        if not 0.0 < lam_next < np.inf:  # a nan, an inf or no positive hit
            sign_c = np.sign(c)
            hits[sign_c * (sign_c - e) <= 0.0] = -np.inf
            i = int(hits.argmax())
            lam_next = hits.item(i)
        row_event = True
        # support coordinate l leaves where z_l w_l reaches 0, at p_l / q_l if
        # z_l q_l < 0; the first of the latest events wins
        for l, ((p, q), z_l) in enumerate(zip(pq.tolist(), basis.z[:k].tolist())):
            if z_l * q < 0.0 and p / q > lam_next:
                lam_next, pos, row_event = p / q, l, False
        if lam_next < lam_cur:
            lam_cur = lam_next
        if lam_cur <= lam:
            w, t_s, a_s = np.zeros(m), basis.ts[:k, 0], basis.a_rows[:k]
            rhs = t_s - lam * basis.ts[:k, 1]
            try:
                w[cols] = w_j = np.linalg.solve(a_s.take(cols, axis=1), rhs)
            except np.linalg.LinAlgError:
                return None
            ok = _certified(target, lam, w_j, basis.a_cols[:k], u, a_s, t_s, masked)
            return w if ok else None
        # the dual moves along a ray over the rows that then carry it, scaled
        # to max |ray_l| = 1: (-side y, side) when row i joins them, -z_pos
        # inv[pos] when coordinate pos gets a positive reduced cost (y /
        # (-side scale) is (-side y) / scale, as negation is exact)
        if row_event:
            side = 1.0 if c.item(i) > 0.0 else -1.0
            ray = basis.ray[:k + 1]
            y = basis.a_cols[:k, i].dot(inv)  # A[i, J] inv
            scale = max(1.0, max(map(abs, y.tolist()), default=0.0))
            np.divide(y, -side * scale, out=ray[:k])
            ray[k] = side / scale
            basis.stage_row(i)
        else:
            ray = basis.ray[:k]
            np.divide(inv[pos], -basis.z.item(pos) * max(map(abs, inv[pos].tolist())), out=ray)
        # g = A^T u and h = A^T ray on the rows of S and i
        a_s = basis.a_rows
        u.dot(a_s[:k], out=g)
        ray.dot(a_s[:k + row_event], out=h)
        np.sign(h, out=col_ratio)
        col_ratio -= g
        # ratio test: a free column, or the leaving coordinate, whose
        # |(A^T u)_j| = |g_j| reaches 1, at (sign(h_j) - g_j) / h_j clipped at 0
        # (none if h_j = 0), or a row of S whose multiplier s_l u_l reaches 0,
        # as u moves along the ray; the first of the earliest wins
        col_ratio /= h
        if row_event:
            np.maximum(col_ratio, barred_cols, out=col_ratio)
        else:
            own = max(col_ratio[cols[pos]], 0.0)
            np.maximum(col_ratio, barred_cols, out=col_ratio)
            col_ratio[cols[pos]] = own
        j = int(col_ratio.argmin())
        h_j = h.item(j)
        if h_j == 0.0:  # a free column with h_j = 0 came first: bar them all
            col_ratio[h == 0.0] = np.inf
            j = int(col_ratio.argmin())
            h_j = h.item(j)
        step = col_ratio.item(j)
        if step == np.inf and barred_cols.item(j) and (row_event or j != cols[pos]):
            h_j = 0.0  # as the first of all +inf ratios, j enters only if it may
        leave, emptying = -1, np.inf
        for l, (s_l, u_l, d_l) in enumerate(zip(basis.ts[:k, 1].tolist(), u.tolist(),
                                                ray.tolist())):
            if s_l * d_l < 0.0:
                ratio = -u_l / d_l
                if ratio < 0.0:
                    ratio = 0.0
                if ratio < emptying:
                    leave, emptying, d_leave = l, ratio, d_l
        if emptying < step:
            if abs(d_leave) < _PIVOT_TOL:
                return None
            j = -1
        elif abs(h_j) < _PIVOT_TOL * a_max:
            # no usable pivot: either A^T ray = 0 proves infeasibility, or
            # the path is ill-conditioned here
            ray_rows = rows + [i] if row_event else rows
            if _infeasible_ray(lam, a_max, ray, a_s[:len(ray_rows)], target[ray_rows], masked):
                raise LpInfeasibleError("LP infeasible")
            return None
        sign = 1.0 if h_j > 0.0 else -1.0  # h_j != 0 where column j enters
        if row_event:
            done = (basis.replace_row(leave, i, side, y) if j < 0
                    else basis.border(i, side, j, sign, y))
        elif j < 0:  # the zero coordinate and a row leave together
            done = basis.downdate(leave, pos)
        else:  # column j replaces the zero coordinate, or flips its sign
            done = basis.replace_col(pos, j, sign)
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
    l1, dual = np.abs(w_j).sum(), t_s @ u - lam * np.abs(u).sum()
    return (np.abs(resid, out=resid).max() <= lam + FEAS_TOL
            and np.abs(reduced, out=reduced).max() <= 1.0 + _CERT_TOL
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
    """The Dantzig LP in one HiGHS call, on its split form, over the rows
    of A gathered but row and column ``masked``, where w is 0; its cost
    is 1 on ``x >= 0``, so it is never unbounded.  HiGHS's tolerances are
    absolute, so the LP is posed divided by 2^e, ``max|a_ij| / 2^e`` in
    [1, 2), which leaves w unchanged.  A failure other than infeasibility,
    or a w off ``||t - A w||_inf <= lam + FEAS_TOL``, raises
    ``LpSolverError``.  The first call imports HiGHS."""
    keep = np.delete(np.arange(target.size), [] if masked is None else masked)
    a_mat, t, m = np.array([a[i][keep] for i in keep]), target[keep], keep.size
    scale = np.ldexp(1.0, np.frexp(np.abs(a_mat).max(initial=0.0))[1] - 1)
    split = np.hstack([a_mat, -a_mat]) / scale
    linprog = globals().get("linprog") or __getattr__("linprog")  # patched or not
    res = linprog(np.ones(2 * m), A_ub=np.vstack([split, -split]),
                  b_ub=np.concatenate([t + lam, lam - t]) / scale, bounds=(0, None),
                  method="highs")
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible")
    if not res.success:
        raise LpSolverError(f"LP solver failure: {res.message}")
    w = np.zeros(target.size)
    w[keep] = res.x[:m] - res.x[m:]
    violation = np.abs(t - a_mat @ w[keep]).max(initial=0.0) - lam
    if not violation <= FEAS_TOL:
        raise LpSolverError(f"LP solver returned w off the constraint by {violation:.3g}")
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
    if not np.abs(target).max(initial=0.0) > lam:
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
    w = _l1_min_linf_residual(rows, target, lam, a_max, masked=a)
    return np.concatenate((w[:a], w[a + 1:]))


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
