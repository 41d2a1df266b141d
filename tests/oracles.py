"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive — per-sample double loops, exhaustive
enumeration, finite differences — so that agreement with the fast vectorized
code is meaningful evidence of correctness.
"""

import itertools
import math

import numpy as np

from truncem import lp
from truncem.errors import LpInfeasibleError
from truncem.inference import default_lambda
from truncem.lp import dantzig_direction, solve_lp

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


def lp_vertex_oracle(c, a_ub, b_ub):
    """Minimum of c.x over {a_ub x <= b_ub, x >= 0} by vertex enumeration.

    Only valid for bounded feasible regions (the caller must ensure
    boundedness, e.g. with explicit box rows).  Returns (x, objective) or
    None if infeasible.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m = c.shape[0]
    rows = np.vstack([a_ub, -np.eye(m)])
    rhs = np.concatenate([b_ub, np.zeros(m)])
    best = None
    for subset in itertools.combinations(range(rows.shape[0]), m):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(a_ub @ x <= b_ub + FEAS_TOL) and np.all(x >= -FEAS_TOL):
            obj = float(c @ x)
            if best is None or obj < best[1]:
                best = (x, obj)
    return best


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
    single ``solve_lp`` call: the 2m-row, 2m-column program that the
    native solver in ``truncem.lp`` must reproduce.  With ``masked`` set,
    as ``dantzig_direction`` poses its LP on the whole curvature matrix,
    row and column ``masked`` are dropped before the solve and a 0 is
    re-inserted there after it.  Raises ``LpInfeasibleError`` when no w
    is feasible.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    target = np.asarray(target, dtype=float)
    if masked is not None:
        keep = np.delete(np.arange(a_mat.shape[0]), masked)
        w = full_l1_linf_lp(a_mat[np.ix_(keep, keep)], target[keep], lam)
        return np.insert(w, masked, 0.0)
    m = a_mat.shape[1]
    block = np.hstack([a_mat, -a_mat])
    sol = solve_lp(
        np.ones(2 * m),
        np.vstack([block, -block]),
        np.concatenate([target + lam, lam - target]),
    )
    return sol.x[:m] - sol.x[m:]


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


def gmm_curvature_symmetrized(model, beta):
    """The Gaussian-mixture curvature matrix as ``(y nu)^T y / n - I``,
    symmetrized out of place: the reference for the Gram form
    ``Z^T Z - I`` in ``GaussianMixture``."""
    y = model.y
    w = model._weights(beta)
    nu = (4.0 / model.sigma**2) * w * (1.0 - w)
    t_mat = (y * nu[:, None]).T @ y / model.n_samples - np.eye(model.dim)
    return 0.5 * (t_mat + t_mat.T)


def mr_curvature_two_products(model, beta):
    """The mixture-of-regressions curvature matrix as two d x d products,
    ``X^T diag(nu y^2) X / n - X^T X / n``, symmetrized out of place: the
    reference for the Gram form in ``MixtureRegression``."""
    x, y = model.x, model.y
    w = model._weights(beta)
    nu = (4.0 / model.sigma**2) * w * (1.0 - w)
    weighted = (x * (nu * y**2)[:, None]).T @ x / model.n_samples
    t_mat = weighted - x.T @ x / model.n_samples
    return 0.5 * (t_mat + t_mat.T)


def decorrelate_full_matrix(model, beta, cfg):
    """Decorrelation from the whole curvature matrix, with no column
    certificate: T, its default lam, the Dantzig LP and ``v^T T v`` with v
    equal to 1 at alpha and -w elsewhere, returned as
    ``inference._decorrelate`` returns them (column alpha of T, w, the
    quadratic form).  The reference for the certified w = 0 path."""
    a = cfg.alpha_index
    t_mat = model.curvature_matrix(beta)
    lam = cfg.lam if cfg.lam is not None else default_lambda(t_mat, model.n_samples)
    w = dantzig_direction(t_mat, a, lam)
    v = np.insert(-w, a, 1.0)
    return t_mat[:, a], w, float(v @ t_mat @ v)


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
