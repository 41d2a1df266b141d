"""Decorrelated score and Wald tests for one coordinate of the parameter.

Both tests remove the influence of the (d-1)-dimensional nuisance block
by projecting its score out of the coordinate of interest; the
projection direction is an l1-minimizing solution of an approximate
linear system in the curvature matrix T, fitted by ``dantzig_direction``.

The direction is certified zero from one column of T before the d x d
matrix is formed.  ``dantzig_direction`` returns w = 0 exactly when the
cross column T_ga lies within lam of zero, and any entry of T bounds
max|T| from below, so ``0.5 sqrt(log d / n) max|T[:, alpha]|`` is at most
the default lam (with a lam set by the caller, lam itself is the bound).
If ``max|T_ga|`` from ``curvature_column`` lies below that bound by a
relative margin of ``_CERTIFICATE_MARGIN`` (1e-9, against a rounding gap
of about n eps between a matrix-vector column and the matrix product),
w = 0, and both statistics need only T_aa.  Otherwise, the column within
the margin included, the whole matrix, its default lam, the LP and the
quadratic form run as they would without the certificate.  The two paths
agree to rel 1e-12 (a test holds them to it); at the command-line
defaults every Gaussian-mixture replicate is certified, and the
mixture-of-regressions replicates are not.

One evaluation point is decorrelated once: the model keeps its last
curvature column, direction and quadratic form, so the Wald test at an
estimate whose tested coordinate already equals the null value reuses
the score test's work, and both results share one read-only ``w_hat``.

The model classes expose ``grad_q``, ``curvature_column`` and
``curvature_matrix`` in the sigma^2-scaled surrogate normalization (see
``models``); the statistics here divide by sigma^2 so that the plug-in
information is on the Fisher scale and the statistics are asymptotically
standard normal for every noise level.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInformationError
from .lp import dantzig_direction

_SQRT2 = math.sqrt(2.0)
#: relative margin by which the cross column must clear lam for the
#: column certificate of w = 0
_CERTIFICATE_MARGIN = 1e-9


def std_normal_cdf(x):
    """Standard normal CDF via the C library's erfc (abs error ~1 ulp)."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def std_normal_quantile(p):
    """Inverse of the standard normal CDF on (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in the open interval (0, 1)")
    return float(ndtri(p))


@dataclass
class InferenceConfig:
    """Settings for single-coordinate inference.

    alpha_index: the coordinate under test (0-based).
    lam: tuning parameter of the decorrelation program; ``None`` selects
        ``0.5 * sqrt(log d / n)`` scaled by the largest absolute entry of
        the curvature matrix at the evaluation point.
    delta: two-sided significance level.
    null_value: hypothesized value of the coordinate.
    """

    alpha_index: int
    lam: float | None = None
    delta: float = 0.05
    null_value: float = 0.0

    def __post_init__(self):
        if self.alpha_index < 0:
            raise ValueError("alpha_index must be nonnegative")
        if self.lam is not None and not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass
class InferenceResult:
    statistic: float
    p_value: float
    reject: bool
    ci_lo: float
    ci_hi: float
    w_hat: np.ndarray
    info_scalar: float  # Fisher-scaled plug-in partial information


def score_function(model, beta, w, cfg: InferenceConfig):
    """Decorrelated score: the alpha component of the surrogate gradient
    minus its projection onto the nuisance components."""
    grad = model.grad_q(beta)
    w = np.asarray(w, dtype=float)
    if w.shape != (model.dim - 1,):
        raise ValueError(f"w must have shape ({model.dim - 1},)")
    return float(grad[cfg.alpha_index] - w @ np.delete(grad, cfg.alpha_index))


def info_quadratic_form(t_mat, w, alpha_index):
    """Quadratic form ``v.T @ t_mat @ v`` with v equal to 1 at
    ``alpha_index`` and ``-w`` on the remaining coordinates."""
    t_mat = np.asarray(t_mat, dtype=float)
    d = t_mat.shape[0]
    w = np.asarray(w, dtype=float)
    if t_mat.shape != (d, d) or w.shape != (d - 1,):
        raise ValueError("inconsistent dimensions")
    v = np.insert(-w, alpha_index, 1.0)
    return float(v @ t_mat @ v)


def default_lambda(t_mat, n):
    return _scaled_lambda(max(t_mat.max(), -t_mat.min()), t_mat.shape[0], n)


def _scaled_lambda(max_abs, d, n):
    return 0.5 * math.sqrt(math.log(d) / n) * float(max_abs)


def _two_sided(statistic, delta):
    p_value = 2.0 * (1.0 - std_normal_cdf(abs(statistic)))
    crit = std_normal_quantile(1.0 - delta / 2.0)
    # strict inequality: the boundary case does not reject
    return p_value, abs(statistic) > crit


def _decorrelate(model, beta, cfg: InferenceConfig):
    """Column alpha of the curvature matrix T at ``beta``, the
    decorrelation direction w and the quadratic form ``v.T @ T @ v`` (see
    ``info_quadratic_form``), by the column certificate of w = 0 or from
    the whole matrix (see the module docstring).

    All three are read-only and memoized on the model for one key: the
    exact bytes of ``beta``, ``alpha_index`` and ``lam``.
    """
    a = cfg.alpha_index
    if not 0 <= a < model.dim:
        raise ValueError("alpha_index out of range")
    key = (beta.tobytes(), a, cfg.lam)
    memo = getattr(model, "_decorrelated", None)
    if memo is not None and memo[0] == key:
        return memo[1:]
    col = model.curvature_column(beta, a)
    bound = cfg.lam
    if bound is None:
        bound = _scaled_lambda(np.max(np.abs(col)), model.dim, model.n_samples)
    cross = np.max(np.abs(np.delete(col, a)), initial=0.0)
    if cross < bound * (1.0 - _CERTIFICATE_MARGIN):
        w, quad = np.zeros(model.dim - 1), float(col[a])
    else:
        t_mat = model.curvature_matrix(beta)
        lam = cfg.lam if cfg.lam is not None else default_lambda(t_mat, model.n_samples)
        w = dantzig_direction(t_mat, a, lam)
        col, quad = t_mat[:, a].copy(), info_quadratic_form(t_mat, w, a)
    col.flags.writeable = False
    w.flags.writeable = False
    model._decorrelated = (key, col, w, quad)
    return col, w, quad


def _information(model, quad):
    """Fisher-scaled plug-in partial information of the tested coordinate,
    from the quadratic form returned by ``_decorrelate``."""
    info = -quad / model.sigma**2
    if info <= 0:
        raise DegenerateInformationError(
            "plug-in partial information is not positive; statistic undefined"
        )
    return info


def _result(model, statistic, center, w, info, cfg: InferenceConfig):
    """Two-sided decision and the level-(1 - delta) interval around
    ``center``."""
    p_value, reject = _two_sided(statistic, cfg.delta)
    half = std_normal_quantile(1.0 - cfg.delta / 2.0) / math.sqrt(
        model.n_samples * info
    )
    return InferenceResult(
        statistic=statistic,
        p_value=p_value,
        reject=reject,
        ci_lo=center - half,
        ci_hi=center + half,
        w_hat=w,
        info_scalar=info,
    )


def score_test(model, beta_hat, cfg: InferenceConfig):
    """Decorrelated score test of H0: beta[alpha_index] = null_value.

    The curvature matrix, decorrelation direction and score are all
    evaluated at the estimate with the tested coordinate pinned to the
    null value.
    """
    beta_eval = np.array(beta_hat, dtype=float)
    # a slice, so an out-of-range index reaches the check in _decorrelate
    beta_eval[cfg.alpha_index : cfg.alpha_index + 1] = cfg.null_value
    _, w, quad = _decorrelate(model, beta_eval, cfg)
    info = _information(model, quad)
    score = score_function(model, beta_eval, w, cfg) / model.sigma**2
    statistic = math.sqrt(model.n_samples) * score / math.sqrt(info)
    # score-style interval around the (unshifted) estimate is not defined
    # by the test itself; report the null-centered acceptance region
    return _result(model, statistic, cfg.null_value + score / info, w, info, cfg)


def _wald_pieces(model, beta_hat, cfg: InferenceConfig):
    beta_hat = np.asarray(beta_hat, dtype=float)
    col, w, quad = _decorrelate(model, beta_hat, cfg)
    denom = col[cfg.alpha_index] - w @ np.delete(col, cfg.alpha_index)
    if denom == 0:
        raise DegenerateInformationError("zero curvature denominator")
    score = score_function(model, beta_hat, w, cfg)
    # the sigma^2 scalings of score and curvature cancel in the ratio
    return float(beta_hat[cfg.alpha_index] - score / denom), w, quad


def wald_estimator(model, beta_hat, cfg: InferenceConfig):
    """One-step corrected estimate of the tested coordinate."""
    alpha_bar, _, _ = _wald_pieces(model, beta_hat, cfg)
    return alpha_bar


def wald_test(model, beta_hat, cfg: InferenceConfig):
    """Decorrelated Wald test and confidence interval for one coordinate."""
    alpha_bar, w, quad = _wald_pieces(model, beta_hat, cfg)
    info = _information(model, quad)
    statistic = (
        math.sqrt(model.n_samples) * (alpha_bar - cfg.null_value) * math.sqrt(info)
    )
    return _result(model, statistic, alpha_bar, w, info, cfg)
