"""Decorrelated score and Wald tests for one coordinate of the parameter.

Both tests remove the influence of the (d-1)-dimensional nuisance block
by projecting its score out of the coordinate of interest; the
projection direction is an l1-minimizing solution of an approximate
linear system in the curvature matrix, fitted by ``dantzig_direction``.
One evaluation point is decorrelated once: the model keeps its last
curvature matrix and direction, so the Wald test at an estimate whose
tested coordinate already equals the null value reuses the score test's
solve, and both results share one read-only ``w_hat``.

The model classes expose ``grad_q`` and ``curvature_matrix`` in the
sigma^2-scaled surrogate normalization (see ``models``); the statistics
here divide by sigma^2 so that the plug-in information is on the Fisher
scale and the statistics are asymptotically standard normal for every
noise level.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInformationError
from .lp import dantzig_direction

_SQRT2 = math.sqrt(2.0)


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
    d = t_mat.shape[0]
    return 0.5 * math.sqrt(math.log(d) / n) * float(max(t_mat.max(), -t_mat.min()))


def _two_sided(statistic, delta):
    p_value = 2.0 * (1.0 - std_normal_cdf(abs(statistic)))
    crit = std_normal_quantile(1.0 - delta / 2.0)
    # strict inequality: the boundary case does not reject
    return p_value, abs(statistic) > crit


def _decorrelate(model, beta, cfg: InferenceConfig):
    """Curvature matrix at ``beta`` and the decorrelation direction w.

    Both are read-only and memoized on the model for one key: the exact
    bytes of ``beta``, ``alpha_index`` and ``lam``.
    """
    if not 0 <= cfg.alpha_index < model.dim:
        raise ValueError("alpha_index out of range")
    key = (beta.tobytes(), cfg.alpha_index, cfg.lam)
    memo = getattr(model, "_decorrelated", None)
    if memo is not None and memo[0] == key:
        return memo[1], memo[2]
    t_mat = model.curvature_matrix(beta)
    lam = cfg.lam if cfg.lam is not None else default_lambda(t_mat, model.n_samples)
    w = dantzig_direction(t_mat, cfg.alpha_index, lam)
    t_mat.flags.writeable = False
    w.flags.writeable = False
    model._decorrelated = (key, t_mat, w)
    return t_mat, w


def _information(model, t_mat, w, cfg: InferenceConfig):
    """Fisher-scaled plug-in partial information of the tested coordinate."""
    info = -info_quadratic_form(t_mat, w, cfg.alpha_index) / model.sigma**2
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
    t_mat, w = _decorrelate(model, beta_eval, cfg)
    info = _information(model, t_mat, w, cfg)
    score = score_function(model, beta_eval, w, cfg) / model.sigma**2
    statistic = math.sqrt(model.n_samples) * score / math.sqrt(info)
    # score-style interval around the (unshifted) estimate is not defined
    # by the test itself; report the null-centered acceptance region
    return _result(model, statistic, cfg.null_value + score / info, w, info, cfg)


def _wald_pieces(model, beta_hat, cfg: InferenceConfig):
    beta_hat = np.asarray(beta_hat, dtype=float)
    t_mat, w = _decorrelate(model, beta_hat, cfg)
    t_a = t_mat[:, cfg.alpha_index]
    denom = t_a[cfg.alpha_index] - w @ np.delete(t_a, cfg.alpha_index)
    if denom == 0:
        raise DegenerateInformationError("zero curvature denominator")
    score = score_function(model, beta_hat, w, cfg)
    # the sigma^2 scalings of score and curvature cancel in the ratio
    return float(beta_hat[cfg.alpha_index] - score / denom), w, t_mat


def wald_estimator(model, beta_hat, cfg: InferenceConfig):
    """One-step corrected estimate of the tested coordinate."""
    alpha_bar, _, _ = _wald_pieces(model, beta_hat, cfg)
    return alpha_bar


def wald_test(model, beta_hat, cfg: InferenceConfig):
    """Decorrelated Wald test and confidence interval for one coordinate."""
    alpha_bar, w, t_mat = _wald_pieces(model, beta_hat, cfg)
    info = _information(model, t_mat, w, cfg)
    statistic = (
        math.sqrt(model.n_samples) * (alpha_bar - cfg.null_value) * math.sqrt(info)
    )
    return _result(model, statistic, alpha_bar, w, info, cfg)
