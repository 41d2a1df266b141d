"""Decorrelated score and Wald tests for one coordinate of the parameter.

Both tests remove the influence of the (d-1)-dimensional nuisance block
by projecting its score out of the coordinate of interest; the
projection direction is an l1-minimizing solution of an approximate
linear system in the curvature matrix T, fitted by ``lp.dantzig_columns``.

T is read by columns, each computed when first needed; no d x d matrix is
formed.  The LP returns w = 0 exactly when the cross column T_ga lies
within lam of zero, and ``0.5 sqrt(log d / n) max|T[:, alpha]|`` is at
most the default lam (a lam set by the caller is its own bound).  If
``max|T_ga|`` is at most that bound, w = 0 and both statistics need only
T_aa, as for every Gaussian-mixture replicate at the defaults.
Otherwise the LP reads the columns its basis asks for (about 15 of 256
at the mixture-of-regressions defaults) and ``v.T @ T @ v`` those on the
support of v.  Its pivot scale ``max|T_gg|`` (with column alpha, max|T|
for lam) is exact from T's diagonal and radii: an entry above every
diagonal one lies in a column whose radius reaches that, and those few
columns are read.  All agrees with the whole matrix to rel 1e-12.

A ``_Point`` reads one point for one ``_decorrelate`` call: the gradient
and the curvature weights from one ``_grad_and_curvature_weights`` call,
each column of T once, from the weights, and the diagonal and radii when
the LP needs them.  The model keeps only the finished result,
``model._decorrelated``: the key ``(beta bytes, alpha, lam)`` and the
read-only column alpha, direction, quadratic form and gradient, which
reference no model.  So the Wald test at an estimate whose tested
coordinate already equals the null value reuses the score test's whole
result, and both share one ``w_hat``; any other test decorrelates afresh.

The model classes give the gradient and the curvature in the
sigma^2-scaled surrogate normalization (see ``models``); the statistics
here divide by sigma^2 so that the plug-in information is on the Fisher
scale and the statistics are asymptotically standard normal for every
noise level.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateInformationError
from .lp import dantzig_columns, dantzig_direction  # noqa: F401 (bench/tracing.py wraps it)

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()
#: relative slack, against rounding, by which a radius may fall short of the
#: largest diagonal entry and ``_abs_peak`` still read its column
_RADIUS_MARGIN = 1e-9


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


def _score(grad, w, alpha):
    """Decorrelated score from the gradient ``grad`` at the point: its alpha
    component minus its projection onto the nuisance components."""
    return float(grad[alpha] - w @ np.delete(grad, alpha))


def _scaled_lambda(max_abs, d, n):
    return 0.5 * math.sqrt(math.log(d) / n) * float(max_abs)


def _frozen(a):
    a.flags.writeable = False
    return a


class _Point(dict):
    """The gradient ``grad`` at ``beta``, the columns of T there, each
    formed on first read from the curvature weights (T is symmetric: rows),
    read-only, and its ``diagonal`` and radii."""

    def __init__(self, model, beta):
        self.model = model
        self.grad, self.weights = map(_frozen, model._grad_and_curvature_weights(beta))

    def __missing__(self, i):
        col = _frozen(self.model._column(self.weights, i))
        # col @ col is finite if every entry is, unless it overflows
        if not (math.isfinite(col @ col) or np.isfinite(col).all()):
            raise ValueError("curvature column must be finite")
        self[i] = col
        return col

    @property
    def diagonal(self):
        return self.model._diagonal(self.weights)


def _abs_peak(cols, diag, radii, skip):
    """``max |T_ij|`` over i, j != ``skip`` (see the module docstring)."""
    peak_of = np.abs(diag)
    peak_of[skip] = 0.0  # every |T_ij| >= 0, so 0 leaves the max unchanged
    peak = peak_of.max()
    for i in np.flatnonzero(radii >= peak * (1.0 - _RADIUS_MARGIN)).tolist():
        if i != skip:
            peak_of = np.abs(cols[i])
            peak_of[skip] = 0.0
            peak = max(peak, peak_of.max())
    return peak


def _decorrelate(model, beta, cfg: InferenceConfig):
    """Column alpha of the curvature matrix T at ``beta``, the
    decorrelation direction w, the quadratic form ``v.T @ T @ v`` with v
    equal to 1 at alpha and -w elsewhere, by the column certificate of w = 0
    or by the LP on the columns of T (see the module docstring), and the
    gradient at ``beta``, all read-only.  The result is kept as the model's
    ``_decorrelated`` and returned again for the same beta, alpha and lam.
    """
    a = cfg.alpha_index
    if not 0 <= a < model.dim:
        raise ValueError("alpha_index out of range")
    key = (beta.tobytes(), a, cfg.lam)
    if getattr(model, "_decorrelated", (None,))[0] == key:
        return model._decorrelated[1]
    point = _Point(model, beta)
    col = point[a]
    peak_of = np.abs(col)
    bound = cfg.lam
    if bound is None:
        bound = _scaled_lambda(peak_of.max(), model.dim, model.n_samples)
    peak_of[a] = 0.0  # then its max is max|T_ga|, as every |T_ia| >= 0
    if peak_of.max() <= bound:
        w, quad = np.zeros(model.dim - 1), float(col[a])
    else:
        a_max = _abs_peak(point, *point.diagonal, a)
        lam = cfg.lam
        if lam is None:  # max|T| lies in T_gg or in column alpha
            lam = max(bound, _scaled_lambda(a_max, model.dim, model.n_samples))
        w = dantzig_columns(point, a, lam, a_max)
        v = np.insert(-w, a, 1.0)
        on = np.flatnonzero(v)  # alpha and supp(w), whose columns the LP read
        quad = float(np.dot(v[on], [point[i] for i in on])[on] @ v[on])
    model._decorrelated = key, (col, _frozen(w), quad, point.grad)
    return model._decorrelated[1]


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
    ``center``.  The critical value is the standard normal quantile at
    1 - delta/2 from ``statistics.NormalDist`` (Wichura's AS 241), within
    rel 2e-15 of ``scipy.special.ndtri`` (1.02e-15 at most over 1e5 values
    of delta)."""
    crit = _STANDARD_NORMAL.inv_cdf(1.0 - cfg.delta / 2.0)
    half = crit / math.sqrt(model.n_samples * info)
    return InferenceResult(
        statistic=statistic,
        # 2(1 - Phi(|z|)) without the cancellation that makes it 0 for |z| > 8.3
        p_value=math.erfc(abs(statistic) / _SQRT2),
        # strict inequality: the boundary case does not reject
        reject=abs(statistic) > crit,
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
    _, w, quad, grad = _decorrelate(model, beta_eval, cfg)
    info = _information(model, quad)
    score = _score(grad, w, cfg.alpha_index) / model.sigma**2
    statistic = math.sqrt(model.n_samples) * score / math.sqrt(info)
    # score-style interval around the (unshifted) estimate is not defined
    # by the test itself; report the null-centered acceptance region
    return _result(model, statistic, cfg.null_value + score / info, w, info, cfg)


def wald_test(model, beta_hat, cfg: InferenceConfig):
    """Decorrelated Wald test and confidence interval for one coordinate."""
    beta_hat, a = np.asarray(beta_hat, dtype=float), cfg.alpha_index
    col, w, quad, grad = _decorrelate(model, beta_hat, cfg)
    denom = col[a] - w @ np.delete(col, a)
    if denom == 0:
        raise DegenerateInformationError("zero curvature denominator")
    # the sigma^2 scalings of score and curvature cancel in the ratio
    alpha_bar = float(beta_hat[a] - _score(grad, w, a) / denom)
    info = _information(model, quad)
    statistic = math.sqrt(model.n_samples) * (alpha_bar - cfg.null_value) * math.sqrt(info)
    return _result(model, statistic, alpha_bar, w, info, cfg)
