"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive — per-sample double loops, exhaustive
enumeration, finite differences — so that agreement with the fast vectorized
code is meaningful evidence of correctness.
"""

import itertools
import math

import numpy as np

from truncem import lp
from truncem.em import EXACT, EmTrace, resample_block
from truncem.errors import LpInfeasibleError
from truncem.lp import dantzig_direction
from truncem.models import _check_vector
from truncem.sparsity import hard_truncate, top_support

FEAS_TOL = 1e-8


# ---------------------------------------------------------------------------
# sparsity


def best_sparse_l2(beta, s):
    """Max l2 norm over all s-sparse restrictions of beta, by brute force."""
    beta = np.asarray(beta, dtype=float)
    d = beta.shape[0]
    best = 0.0
    for subset in itertools.combinations(range(d), s):
        out = np.zeros(d)
        out[list(subset)] = beta[list(subset)]
        best = max(best, float(np.linalg.norm(out)))
    return best


def top_support_argsort(beta, s):
    """``top_support`` as one stable argsort on -|beta| (a NaN sorts last):
    the reference for the partition form, which must return the same
    indices."""
    order = np.argsort(-np.abs(np.asarray(beta, dtype=float)), kind="stable")
    return np.sort(order[:s])


# ---------------------------------------------------------------------------
# linear programs


def l1_linf_oracle(g_mat, target, lam):
    """argmin ||w||_1 s.t. ||g_mat w - target||_inf <= lam, exhaustively.

    The minimizer of a piecewise-linear convex function over a polytope is
    attained where m independent hyperplanes among the 2m facets and the m
    coordinate planes {w_j = 0} are active; all such candidate points are
    enumerated.  Returns (w, l1) or None if infeasible.
    """
    g_mat = np.asarray(g_mat, dtype=float)
    target = np.asarray(target, dtype=float)
    m = g_mat.shape[1]
    planes = np.vstack([g_mat, g_mat, np.eye(m)])
    offsets = np.concatenate([target + lam, target - lam, np.zeros(m)])
    best = None
    for subset in itertools.combinations(range(planes.shape[0]), m):
        sub = planes[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        w = np.linalg.solve(sub, offsets[list(subset)])
        if np.max(np.abs(g_mat @ w - target)) <= lam + FEAS_TOL:
            l1 = float(np.sum(np.abs(w)))
            if best is None or l1 < best[1]:
                best = (w, l1)
    return best


def full_l1_linf_lp(a_mat, target, lam, masked=None):
    """argmin ||w||_1 s.t. ||target - a_mat w||_inf <= lam as one LP.

    Every residual row and every split column ``w = w+ - w-`` enters a
    single HiGHS call: the 2m-row, 2m-column program that the native
    solver in ``truncem.lp`` must reproduce.  The call goes through the
    name ``lp.linprog`` (scipy's own), so that a recorder patched there,
    as in ``scripts/bench_lp.py``, counts it.  With ``masked`` set,
    as ``dantzig_direction`` poses its LP on the whole curvature matrix,
    row and column ``masked`` are dropped before the solve and a 0 is
    re-inserted there after it.  Raises ``LpInfeasibleError`` when no w
    is feasible.  HiGHS's tolerances are absolute, so the LP is posed
    divided by the power of two 2^e with ``max|a_ij| / 2^e`` in [1, 2),
    as ``lp._full_lp`` poses it; that is exact and leaves w unchanged.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    target = np.asarray(target, dtype=float)
    if masked is not None:
        keep = np.delete(np.arange(a_mat.shape[0]), masked)
        w = full_l1_linf_lp(a_mat[np.ix_(keep, keep)], target[keep], lam)
        return np.insert(w, masked, 0.0)
    m = a_mat.shape[1]
    scale = np.ldexp(1.0, np.frexp(np.abs(a_mat).max(initial=0.0))[1] - 1)
    block = np.hstack([a_mat, -a_mat]) / scale
    res = lp.linprog(
        np.ones(2 * m),
        A_ub=np.vstack([block, -block]),
        b_ub=np.concatenate([target + lam, lam - target]) / scale,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible")
    assert res.success, res.message
    return res.x[:m] - res.x[m:]


# ---------------------------------------------------------------------------
# the Dantzig LP with a copied nuisance block and a re-inverted basis


def homotopy_reference(a_mat, target, lam, a_max):
    """The λ-homotopy of ``truncem.lp`` with its basis re-gathered and
    re-inverted at every pivot: ``A[S, :]`` and ``A[:, J]`` by fancy
    indexing, ``A[S, J]^-1`` by ``np.linalg.inv``, and the events scanned
    over all 2m slacks and |J| coordinates.  The reference for the
    buffered basis of ``lp._homotopy``: both end in the same final solve,
    so w is bit-identical whenever they take the same pivots."""
    m = a_mat.shape[1]
    rows, row_signs, cols, col_signs = [], [], [], []
    lam_cur = np.max(np.abs(target))
    for _ in range(10 * m + 10):
        s, z = np.array(row_signs), np.array(col_signs)
        a_rows = a_mat[rows]
        basis = a_rows[:, cols]
        try:
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            return None
        p, q, u = inv @ target[rows], inv @ s, z @ inv
        a_cols = a_mat[:, cols]
        c, e = target - a_cols @ p, a_cols @ q
        x0 = np.concatenate([-c, c, z * p])
        x1 = np.concatenate([1.0 - e, 1.0 + e, -z * q])
        x1[rows] = x1[m:][rows] = 0.0
        falling = x1 > 0.0
        hits = np.full(x0.size, -np.inf)
        np.divide(-x0, x1, out=hits, where=falling)
        event = int(hits.argmax())
        lam_cur = min(lam_cur, hits[event])
        if lam_cur <= lam:
            w = np.zeros(m)
            w[cols] = np.linalg.solve(basis, target[rows] - lam * s)
            certified = lp._certified(target, lam, w[cols], a_mat[cols], u, a_rows,
                                      target[rows])
            return w if certified else None
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
        col_ratio = np.full(m, np.inf)
        np.divide(np.maximum(1.0 - np.sign(h) * (u @ a_rows), 0.0), np.abs(h),
                  out=col_ratio, where=h != 0.0)
        row_ratio = np.full(len(rows), np.inf)
        sd = s * delta
        np.divide(np.maximum(s * u, 0.0), -sd, out=row_ratio, where=sd < 0.0)
        k = int(col_ratio.argmin())
        leave = int(row_ratio.argmin()) if rows else -1
        if rows and row_ratio[leave] < col_ratio[k]:
            if abs(delta[leave]) < lp._PIVOT_TOL:
                return None
            k = -1
        elif abs(h[k]) < lp._PIVOT_TOL * a_max:
            if lp._infeasible_ray(lam, a_max, ray, a_mat[ray_rows], target[ray_rows]):
                raise LpInfeasibleError("LP infeasible")
            return None
        if event < 2 * m:
            if k < 0:
                rows[leave], row_signs[leave] = i, side
            else:
                rows.append(i)
                row_signs.append(side)
                cols.append(k)
                col_signs.append(np.sign(h[k]))
        elif k < 0:
            del rows[leave], row_signs[leave], cols[pos], col_signs[pos]
        else:
            cols[pos], col_signs[pos] = k, np.sign(h[k])
    return None


def l1_min_linf_residual_reference(a_mat, target, lam):
    """``argmin ||w||_1  s.t.  ||target - a_mat w||_inf <= lam`` by
    ``homotopy_reference``, with the HiGHS fallback of ``truncem.lp``."""
    a_max = max(a_mat.max(), -a_mat.min())
    if not (np.isfinite(target).all() and np.isfinite(a_max)):
        raise ValueError("LP data must be finite")
    if not np.max(np.abs(target), initial=0.0) > lam:
        return np.zeros(a_mat.shape[1])
    w = homotopy_reference(a_mat, target, lam, a_max)
    return lp._full_lp(a_mat, target, lam) if w is None else w


def dantzig_direction_reference(t_mat, alpha_index, lam):
    """The decorrelation direction from a copy of the nuisance block
    ``T_gg``, built in four block slices, and the cross column ``T_ga``:
    the reference for the masked in-place solve of ``dantzig_direction``."""
    a, d = alpha_index, t_mat.shape[0]
    t_ga = np.delete(t_mat[:, a], a)
    if np.max(np.abs(t_ga)) <= lam:
        return np.zeros(d - 1)
    t_gg = np.empty((d - 1, d - 1))
    t_gg[:a, :a], t_gg[:a, a:] = t_mat[:a, :a], t_mat[:a, a + 1:]
    t_gg[a:, :a], t_gg[a:, a:] = t_mat[a + 1:, :a], t_mat[a + 1:, a + 1:]
    return l1_min_linf_residual_reference(t_gg, t_ga, lam)


# ---------------------------------------------------------------------------
# the buffered homotopy with whole-array numpy scans


class NumpyScanBasis:
    """The basis of ``numpy_scan_homotopy``: active rows S with signs s and
    support columns J with signs z, in the order they joined.  ``a_rows[:k]``
    holds A[S, :], ``a_cols[:k]`` holds A[J, :] = A[:, J]^T, ``ts[:k]`` holds
    (t_S, s), ``z[:k]`` holds z and ``inv[:k, :k]`` is A[S, J]^-1, for
    k = |S| = |J|; ``free_rows`` and ``free_cols`` are 1 on the rows that
    may bind and the columns that may enter, and 0 on S, on J and on the
    masked row and column.  The buffers start at ``lp._BASIS_ROWS`` rows and
    double when full; each pivot changes them by one row or column (see
    the ``truncem.lp`` docstring).  An update returns False, and changes nothing,
    when its pivot is not above ``lp._PIVOT_TOL``, scaled by ``a_max`` for a
    pivot in the units of A or of its inverse."""

    def __init__(self, a, target, a_max, masked):
        self.a, self.target, self.a_max = a, target, a_max
        self.rows, self.cols = [], []
        m = target.size
        self.free_rows, self.free_cols = np.ones(m), np.ones(m)
        if masked is not None:
            self.free_rows[masked] = self.free_cols[masked] = 0.0
        self._allocate(lp._BASIS_ROWS)

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
        if not abs(sigma) > lp._PIVOT_TOL * self.a_max:
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
        if not abs(pivot) > lp._PIVOT_TOL:
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
            if not abs(pivot) > lp._PIVOT_TOL:
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
        if not abs(pivot) * self.a_max > lp._PIVOT_TOL:
            return False
        inv -= np.multiply.outer(inv[:, leave], inv[pos] / pivot)
        inv[pos:-1] = inv[pos + 1:]
        inv[:, leave:-1] = inv[:, leave + 1:]
        for buf, at in ((self.a_rows, leave), (self.ts, leave), (self.a_cols, pos),
                        (self.z, pos)):
            buf[at:k - 1] = buf[at + 1:k]
        self.free_rows[self.rows.pop(leave)] = self.free_cols[self.cols.pop(pos)] = 1.0
        return True


def numpy_scan_homotopy(a, target, lam, a_max, masked=None):
    """``lp._homotopy`` with every scan a whole-array numpy expression: the
    event scans and ratio tests as masked ``np.divide`` calls over filled
    arrays with ``argmax``/``argmin``, the ray by ``np.concatenate`` and
    ``np.abs(ray).max()``, the basis inverse in a block of its buffers.  The
    reference for the scalar scans and contiguous inverse of ``lp._homotopy``:
    both take the same pivots with the same roundings, so w is bit-identical.

    Follows the optimal basis from ``lam_0 = ||target||_inf > lam`` down
    to lam (see the ``truncem.lp`` docstring), with row and column ``masked``, if
    given, left out of the LP.  Returns the certified optimum, or None
    when the path is not trusted and HiGHS must solve the LP; raises
    ``LpInfeasibleError`` on a certified infeasible ray."""
    m = target.size
    basis = NumpyScanBasis(a, target, a_max, masked)
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
            ok = lp._certified(target, lam, w_j, basis.a_cols[:k], u, a_s, t_s, masked)
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
            if abs(delta[leave]) < lp._PIVOT_TOL:
                return None
            j = -1
        elif abs(h[j]) < lp._PIVOT_TOL * a_max:
            # no usable pivot: either A^T ray = 0 proves infeasibility, or
            # the path is ill-conditioned here
            ray_rows = rows + [i] if row_event else rows
            if lp._infeasible_ray(lam, a_max, ray, basis.a_rows[:len(ray_rows)],
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


# ---------------------------------------------------------------------------
# the truncated EM loop with no early exit


def full_em_trace(model, init, cfg):
    """``run_em`` as it ran before it stopped at an exact fixed point: all
    ``cfg.n_iter`` M-steps and truncations, each into a fresh array.  The
    early exit must reproduce this trace byte for byte."""
    init = np.asarray(init, dtype=float)
    if init.shape != (model.dim,):
        raise ValueError(f"init must have shape ({model.dim},)")
    if cfg.s_hat > model.dim:
        raise ValueError("s_hat exceeds the parameter dimension")
    if cfg.resample:
        block = resample_block(model.n_samples, cfg.n_iter)
    trace = EmTrace()
    beta = hard_truncate(init, top_support(init, cfg.s_hat))
    trace.iterates.append(beta)
    for t in range(cfg.n_iter):
        source = model
        if cfg.resample:
            source = model.subset(np.arange(t * block, (t + 1) * block))
        if cfg.m_step == EXACT:
            half = source.m_step_exact(beta)
        else:
            half = source.m_step_gradient(beta, cfg.eta)
        support = top_support(half, cfg.s_hat)
        beta = np.zeros_like(half)  # hard_truncate without re-checking the support
        beta[support] = half[support]
        trace.supports.append(support)
        trace.iterates.append(beta)
    return trace


# ---------------------------------------------------------------------------
# data generation with out-of-place arithmetic


def gen_arrays_reference(spec):
    """The arrays ``gen_dataset(spec)`` wraps, drawn in the documented order
    and combined out of place: ``(y,)`` for GMM, ``(x, y)`` for MR and
    ``(x, mask, y)`` for RMC.  The in-place generator must match them bit
    for bit."""
    rng = np.random.default_rng(spec.seed)
    if spec.model == "GMM":
        signs = rng.integers(0, 2, size=spec.n) * 2.0 - 1.0
        noise = rng.standard_normal((spec.n, spec.d))
        return (signs[:, None] * spec.beta_star + spec.sigma * noise,)
    x = rng.standard_normal((spec.n, spec.d))
    if spec.model == "MR":
        signs = rng.integers(0, 2, size=spec.n) * 2.0 - 1.0
        return x, signs * (x @ spec.beta_star) + spec.sigma * rng.standard_normal(spec.n)
    y = x @ spec.beta_star + spec.sigma * rng.standard_normal(spec.n)
    mask = (rng.uniform(size=(spec.n, spec.d)) >= spec.p_missing).astype(float)
    return x, mask, y


# ---------------------------------------------------------------------------
# model surrogates, per-sample double loops


def _sigmoid(t):
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def gmm_q_naive(y, sigma, beta_prime, beta):
    n, _ = y.shape
    total = 0.0
    for i in range(n):
        w = _sigmoid(2.0 * float(np.dot(beta, y[i])) / sigma**2)
        plus = float(np.sum((y[i] - beta_prime) ** 2))
        minus = float(np.sum((y[i] + beta_prime) ** 2))
        total += w * plus + (1.0 - w) * minus
    return -0.5 * total / n


def mr_q_naive(x, y, sigma, beta_prime, beta):
    n, _ = x.shape
    total = 0.0
    for i in range(n):
        w = _sigmoid(2.0 * y[i] * float(np.dot(beta, x[i])) / sigma**2)
        fit = float(np.dot(beta_prime, x[i]))
        total += w * (y[i] - fit) ** 2 + (1.0 - w) * (y[i] + fit) ** 2
    return -0.5 * total / n


def rmc_q_naive(x, mask, y, sigma, beta_prime, beta):
    n, d = x.shape
    total = 0.0
    for i in range(n):
        z = mask[i]
        x_obs = z * x[i]
        beta_miss = (1.0 - z) * beta
        tau2 = sigma**2 + float(np.dot(beta_miss, beta_miss))
        resid = y[i] - float(np.dot(x_obs, beta))
        m = x_obs + (resid / tau2) * beta_miss
        k_mat = (
            np.diag(1.0 - z)
            + np.outer(m, m)
            - np.outer(beta_miss, beta_miss) / tau2
        )
        total += y[i] * float(np.dot(m, beta_prime)) - 0.5 * float(
            beta_prime @ k_mat @ beta_prime
        )
    return total / n


def _rmc_moments_materialized(model, beta):
    """Per-sample posterior mean m_i of x_i with every (n, d) array formed,
    plus beta restricted to each sample's missing coordinates, tau2 and the
    residual.  Needs finite x, also where the mask is 0."""
    z = model.mask
    x_obs = z * model.x
    beta_miss = (1.0 - z) * beta
    tau2 = model.sigma**2 + np.sum(beta_miss**2, axis=1)
    resid = model.y - x_obs @ beta
    m = x_obs + (resid / tau2)[:, None] * beta_miss
    return m, beta_miss, tau2, resid


def rmc_grad_q_materialized(model, beta):
    """The missing-covariate ``grad_q`` as
    ``mean_i(y_i m_i - K_i beta)`` with the conditional second moment
    ``K_i = diag(1 - z_i) + m_i m_i^T - beta_miss,i beta_miss,i^T / tau2_i``
    applied row by row: the reference for the n-vector E-step."""
    m, beta_miss, tau2, _ = _rmc_moments_materialized(model, beta)
    k_beta = (
        beta_miss
        + m * (m @ beta)[:, None]
        - beta_miss * ((beta_miss @ beta) / tau2)[:, None]
    )
    return np.mean(model.y[:, None] * m - k_beta, axis=0)


def rmc_q_value_materialized(model, beta_prime, beta):
    m, beta_miss, tau2, _ = _rmc_moments_materialized(model, beta)
    lin = model.y * (m @ beta_prime)
    quad = (
        (1.0 - model.mask) @ (beta_prime**2)
        + (m @ beta_prime) ** 2
        - (beta_miss @ beta_prime) ** 2 / tau2
    )
    return float(np.mean(lin - 0.5 * quad))


def rmc_loglik_materialized(model, beta):
    _, _, tau2, resid = _rmc_moments_materialized(model, beta)
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * tau2) - resid**2 / (2.0 * tau2)))


# The per-class mixture surrogate and log likelihood, as the two classes
# wrote them before they shared one form over ``_sq_dists``: the shared form
# must equal them bit for bit.


def gmm_q_value_per_class(model, beta_prime, beta):
    beta_prime = _check_vector(beta_prime, model.dim, "beta_prime")
    w = model._weights(beta)
    plus = np.sum((model.y - beta_prime) ** 2, axis=1)
    minus = np.sum((model.y + beta_prime) ** 2, axis=1)
    return float(-0.5 * np.mean(w * plus + (1.0 - w) * minus))


def gmm_loglik_per_class(model, beta):
    beta = _check_vector(beta, model.dim)
    s2 = model.sigma**2
    lp = -np.sum((model.y - beta) ** 2, axis=1) / (2.0 * s2)
    lm = -np.sum((model.y + beta) ** 2, axis=1) / (2.0 * s2)
    const = -0.5 * model.dim * np.log(2.0 * np.pi * s2) - np.log(2.0)
    return float(np.sum(np.logaddexp(lp, lm) + const))


def mr_q_value_per_class(model, beta_prime, beta):
    beta_prime = _check_vector(beta_prime, model.dim, "beta_prime")
    w = model._weights(beta)
    fit = model.x @ beta_prime
    plus = (model.y - fit) ** 2
    minus = (model.y + fit) ** 2
    return float(-0.5 * np.mean(w * plus + (1.0 - w) * minus))


def mr_loglik_per_class(model, beta):
    beta = _check_vector(beta, model.dim)
    fit = model.x @ beta
    s2 = model.sigma**2
    lp = -((model.y - fit) ** 2) / (2.0 * s2)
    lm = -((model.y + fit) ** 2) / (2.0 * s2)
    const = -0.5 * np.log(2.0 * np.pi * s2) - np.log(2.0)
    return float(np.sum(np.logaddexp(lp, lm) + const))


def gmm_curvature_symmetrized(model, beta):
    """The Gaussian-mixture curvature matrix as ``(y nu)^T y / n - I``,
    symmetrized out of place: a reference built apart from the columns
    ``GaussianMixture`` reads."""
    y = model.y
    w = model._weights(beta)
    nu = (4.0 / model.sigma**2) * w * (1.0 - w)
    t_mat = (y * nu[:, None]).T @ y / model.n_samples - np.eye(model.dim)
    return 0.5 * (t_mat + t_mat.T)


def mr_curvature_two_products(model, beta):
    """The mixture-of-regressions curvature matrix as two d x d products,
    ``X^T diag(nu y^2) X / n - X^T X / n``, symmetrized out of place: a
    reference built apart from the columns ``MixtureRegression`` reads."""
    x, y = model.x, model.y
    w = model._weights(beta)
    nu = (4.0 / model.sigma**2) * w * (1.0 - w)
    weighted = (x * (nu * y**2)[:, None]).T @ x / model.n_samples
    t_mat = weighted - x.T @ x / model.n_samples
    return 0.5 * (t_mat + t_mat.T)


def default_lambda(t_mat, n):
    """The default decorrelation lam from the whole matrix, ``0.5 sqrt(log d
    / n) max|T|``, with ``max(max T, -min T)`` for ``max|T|``: it equals the
    max-abs entry bit for bit, NaN and inf included, and copies nothing."""
    max_abs = max(t_mat.max(), -t_mat.min())
    return 0.5 * math.sqrt(math.log(t_mat.shape[0]) / n) * float(max_abs)


def decorrelate_full_matrix(model, beta, cfg):
    """Decorrelation from the whole curvature matrix, with no column
    certificate: T, its default lam, the Dantzig LP and ``v^T T v`` with v
    equal to 1 at alpha and -w elsewhere, returned as
    ``inference._decorrelate`` returns them (column alpha of T, w, the
    quadratic form, ``grad_q`` at beta).  The reference for the certified w
    = 0 path."""
    a = cfg.alpha_index
    t_mat = model.curvature_matrix(beta)
    lam = cfg.lam if cfg.lam is not None else default_lambda(t_mat, model.n_samples)
    w = dantzig_direction(t_mat, a, lam)
    v = np.insert(-w, a, 1.0)
    return t_mat[:, a], w, float(v @ t_mat @ v), model.grad_q(beta)


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(fun, beta, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(beta.shape[0]):
        e = np.zeros_like(beta)
        e[j] = h
        grad[j] = (fun(beta + e) - fun(beta - e)) / (2.0 * h)
    return grad


def fd_directional(fun_vec, beta, v, h=1e-6):
    """Central difference of a vector function along direction v."""
    beta = np.asarray(beta, dtype=float)
    v = np.asarray(v, dtype=float)
    return (fun_vec(beta + h * v) - fun_vec(beta - h * v)) / (2.0 * h)
