"""The three latent-variable models behind one uniform interface.

Each model is one class built directly from its sample arrays, which the
constructor validates: ``GaussianMixture(y, sigma)``,
``MixtureRegression(x, y, sigma, clime_lambda=None)`` and
``MissingCovariateRegression(x, mask, y, sigma)``.  Each exposes the EM
surrogate ``q_value``, its first-slot gradient ``grad_q`` evaluated on
the diagonal, exact and gradient M-steps, the curvature matrix used for
inference, and the observed-data log likelihood.

The two mixtures also give one column of the curvature matrix,
``curvature_column(beta, alpha)``: one O(nd) matrix-vector product
instead of the O(nd^2) matrix, equal to ``curvature_matrix(beta)[:,
alpha]`` up to rounding, and ``curvature_diagonal(beta)``: T's diagonal and
the radii ``r_i = sum_k |c_k| z_ki^2`` of its Gram form ``sum_k c_k z_k
z_k^T``, so ``|T_ij| <= sqrt(r_i r_j)``.  All reuse the weights c of one beta.

Normalization convention
------------------------
The surrogate is the conditional expectation of the complete-data log
likelihood with the global ``1/(2 sigma^2)`` prefactor dropped, matching
the closed forms used by the EM updates (the exact M-step and the unit
stepsize of the gradient M-step are natural in this scaling).  As a
consequence ``grad_q(beta)`` equals ``sigma^2 * grad loglik(beta) / n``
exactly, and ``curvature_matrix(beta)`` equals ``sigma^2 / n`` times the
Hessian of the log likelihood.  The inference module divides by
``sigma^2`` where the Fisher scaling matters.

The posterior weight of the positive mixture component is the logistic
sigmoid of ``2 <beta, y> / sigma^2`` (Gaussian mixture) or
``2 y <beta, x> / sigma^2`` (mixture of regression); the factor 2 is
forced by Bayes' rule for the two symmetric components.
"""

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import expit

from .errors import UnsupportedOperationError
from .lp import clime_inverse

GMM = "GMM"
MR = "MR"
RMC = "RMC"

#: rows per block of the copy that completes the MR curvature matrix
_BLOCK = 32


def _check_vector(beta, d, name="beta"):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {beta.shape}")
    return beta


def _check_index(i, size, name):
    if not 0 <= i < size:
        raise ValueError(f"{name} out of range")


def _check_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty (n, d) matrix")
    return a


def _check_response(y, n):
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError("y must have shape (n,)")
    return y


class _Model:
    """What every model shares: its samples ``y`` (one row or entry per
    sample), their count ``n_samples``, the dimension ``dim``, the noise
    level ``sigma``, and the gradient M-step.  The regression models also
    keep their (n, d) design ``x``.  Each subclass validates its arrays
    before calling this constructor."""

    def __init__(self, y, sigma):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.y = y
        self.sigma = sigma
        self.n_samples = y.shape[0]

    def m_step_gradient(self, beta, eta):
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        return np.asarray(beta, dtype=float) + eta * self.grad_q(beta)


class _Mixture(_Model):
    """A symmetric two-component mixture; ``_weights`` gives the posterior
    probability of the positive component per sample, ``_curvature_weights_at``
    the weights of the curvature matrix, which its columns, its diagonal and
    radii, and the matrix itself (a Gram form built in place, within 1e-12
    max|T| of the two-product form ``(T + T^T) / 2``) all read."""

    _curvature_memo = (None, None)

    def posterior_weight(self, beta, i):
        _check_index(i, self.n_samples, "sample index")
        return float(self._weights(beta)[i])

    def _curvature_weights(self, beta):
        """``_curvature_weights_at(beta)``, kept for the last ``beta``."""
        beta = _check_vector(beta, self.dim)
        key = beta.tobytes()
        if self._curvature_memo[0] != key:
            weights = self._curvature_weights_at(beta)
            weights.flags.writeable = False
            self._curvature_memo = (key, weights)
        return self._curvature_memo[1]


class GaussianMixture(_Mixture):
    """Symmetric two-component Gaussian mixture with known noise level:
    each row of the (n, d) matrix ``y`` is Z * beta + noise, Z a random
    sign.  Its curvature matrix is ``Z^T Z - I``, ``Z = sqrt(nu / n) y``."""

    tag = GMM

    def __init__(self, y, sigma):
        y = _check_matrix(y, "y")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        super().__init__(y, sigma)
        self.dim = y.shape[1]

    def subset(self, indices):
        return GaussianMixture(self.y[indices], self.sigma)

    def _weights(self, beta):
        # posterior probability of the positive component, per sample
        beta = _check_vector(beta, self.dim)
        return expit(2.0 * (self.y @ beta) / self.sigma**2)

    def q_value(self, beta_prime, beta):
        beta_prime = _check_vector(beta_prime, self.dim, "beta_prime")
        w = self._weights(beta)
        plus = np.sum((self.y - beta_prime) ** 2, axis=1)
        minus = np.sum((self.y + beta_prime) ** 2, axis=1)
        return float(-0.5 * np.mean(w * plus + (1.0 - w) * minus))

    def grad_q(self, beta):
        beta = _check_vector(beta, self.dim)
        w = self._weights(beta)
        return (2.0 * w - 1.0) @ self.y / self.n_samples - beta

    def m_step_exact(self, beta):
        w = self._weights(beta)
        return (2.0 * w - 1.0) @ self.y / self.n_samples

    def _curvature_weights_at(self, beta):
        w = self._weights(beta)
        return (4.0 / self.sigma**2) * w * (1.0 - w)

    def curvature_column(self, beta, alpha):
        _check_index(alpha, self.dim, "alpha")
        nu = self._curvature_weights(beta)
        col = self.y.T @ (nu * self.y[:, alpha]) / self.n_samples
        col[alpha] -= 1.0
        return col

    def curvature_diagonal(self, beta):  # nu >= 0, so the radii are diag + 1
        gram = np.einsum("k,ki,ki->i", self._curvature_weights(beta), self.y, self.y)
        return gram / self.n_samples - 1.0, gram / self.n_samples

    def curvature_matrix(self, beta):
        z = np.sqrt(self._curvature_weights(beta) / self.n_samples)[:, None] * self.y
        t_mat = z.T @ z  # one syrk: exactly symmetric
        t_mat.flat[:: self.dim + 1] -= 1.0
        return t_mat

    def loglik(self, beta):
        beta = _check_vector(beta, self.dim)
        s2 = self.sigma**2
        lp = -np.sum((self.y - beta) ** 2, axis=1) / (2.0 * s2)
        lm = -np.sum((self.y + beta) ** 2, axis=1) / (2.0 * s2)
        const = -0.5 * self.dim * np.log(2.0 * np.pi * s2) - np.log(2.0)
        return float(np.sum(np.logaddexp(lp, lm) + const))


class MixtureRegression(_Mixture):
    """Symmetric two-component mixture of linear regressions:
    ``y[i] = Z * <x[i], beta> + noise``, Z a random sign.

    The exact M-step premultiplies by a CLIME estimate of the inverse
    covariance of the design, computed once per model and cached.  The
    curvature matrix is ``Z^T Z - X^T X / n``, Z the rows of x, scaled by
    ``sqrt(nu y^2 / n)``, whose weight is not -1/n (3-9 of 100 by default);
    its diagonal and radii are the column norms of x / n plus their terms.

    The default ``clime_lambda = 2 sqrt(log d / n)`` over-shrinks at
    small n: at n=100 and d=64 (lambda 0.41) every CLIME column is a
    scaled unit vector, and the exact M-step ends at relative error
    0.31-0.56 over seeds 0-5, against 0.0013-0.0027 for the gradient
    M-step.  That is why the gradient M-step is the default for MR
    fitting and inference.
    """

    tag = MR

    def __init__(self, x, y, sigma, clime_lambda=None):
        x = _check_matrix(x, "x")
        y = _check_response(y, x.shape[0])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("data contains non-finite entries")
        super().__init__(y, sigma)
        self.x = x
        self.dim = x.shape[1]
        if clime_lambda is None:
            clime_lambda = 2.0 * np.sqrt(np.log(self.dim) / self.n_samples)
        if not clime_lambda >= 0:
            raise ValueError("clime_lambda must be nonnegative")
        self.clime_lambda = float(clime_lambda)
        self._theta_hat = None

    def subset(self, indices):
        return MixtureRegression(
            self.x[indices], self.y[indices], self.sigma, self.clime_lambda
        )

    def design_covariance(self):
        return self.x.T @ self.x / self.n_samples

    def clime_theta(self):
        """Cached CLIME estimate of the inverse design covariance."""
        if self._theta_hat is None:
            self._theta_hat = clime_inverse(self.design_covariance(), self.clime_lambda)
        return self._theta_hat

    def _fit_and_weights(self, beta):
        beta = _check_vector(beta, self.dim)
        fit = self.x @ beta
        return fit, expit(2.0 * (self.y * fit) / self.sigma**2)

    def _weights(self, beta):
        return self._fit_and_weights(beta)[1]

    def q_value(self, beta_prime, beta):
        beta_prime = _check_vector(beta_prime, self.dim, "beta_prime")
        w = self._weights(beta)
        fit = self.x @ beta_prime
        plus = (self.y - fit) ** 2
        minus = (self.y + fit) ** 2
        return float(-0.5 * np.mean(w * plus + (1.0 - w) * minus))

    def grad_q(self, beta):
        fit, w = self._fit_and_weights(beta)
        resid = (2.0 * w - 1.0) * self.y - fit
        return self.x.T @ resid / self.n_samples

    def m_step_exact(self, beta):
        w = self._weights(beta)
        moment = self.x.T @ ((2.0 * w - 1.0) * self.y) / self.n_samples
        return self.clime_theta() @ moment

    def _curvature_weights_at(self, beta):
        w = self._weights(beta)
        return ((4.0 / self.sigma**2) * w * (1.0 - w) * self.y**2 - 1.0) / self.n_samples

    def curvature_column(self, beta, alpha):
        _check_index(alpha, self.dim, "alpha")
        return (self._curvature_weights(beta) * self.x[:, alpha]) @ self.x

    def curvature_diagonal(self, beta):
        c, n, x = self._curvature_weights(beta), self.n_samples, self.x
        lifted, base = np.flatnonzero(c + 1.0 / n), np.einsum("ki,ki->i", x, x) / n
        z, c = x[lifted], c[lifted]
        return (np.einsum("k,ki,ki->i", c + 1.0 / n, z, z) - base,
                np.einsum("k,ki,ki->i", np.abs(c) - 1.0 / n, z, z) + base)

    def curvature_matrix(self, beta):
        # BLAS fills the lower triangle in place; the copy onto the upper makes
        # T exactly symmetric, as an in-place dgemm is not for every d (d = 199)
        lift = self._curvature_weights(beta) + 1.0 / self.n_samples
        lifted = np.flatnonzero(lift)
        z = self.x[lifted]
        z *= np.sqrt(lift[lifted])[:, None]
        t_mat = dsyrk(-1.0 / self.n_samples, self.x.T)
        t_mat = dsyrk(1.0, z.T, beta=1.0, c=t_mat, overwrite_c=1).T
        for lo in range(0, self.dim, _BLOCK):
            hi = lo + _BLOCK
            t_mat[lo:hi, hi:] = t_mat[hi:, lo:hi].T  # disjoint spans: no copy
            block = t_mat[lo:hi, lo:hi]
            block[...] = np.tril(block) + np.tril(block, -1).T
        return t_mat

    def loglik(self, beta):
        beta = _check_vector(beta, self.dim)
        fit = self.x @ beta
        s2 = self.sigma**2
        lp = -((self.y - fit) ** 2) / (2.0 * s2)
        lm = -((self.y + fit) ** 2) / (2.0 * s2)
        const = -0.5 * np.log(2.0 * np.pi * s2) - np.log(2.0)
        return float(np.sum(np.logaddexp(lp, lm) + const))


class MissingCovariateRegression(_Model):
    """Linear regression with covariates missing completely at random.

    The latent variable is the vector of unobserved covariates.  Only the
    gradient M-step is available: the per-sample conditional second
    moment makes the exact maximizer require a d x d solve that is not
    well posed in high dimensions, and no curvature matrix is defined for
    this model, so inference is unavailable.

    ``mask[i, j] == 1`` iff ``x[i, j]`` was observed; ``x`` is never read
    where the mask is 0, so it may be non-finite there.  The E-step forms no
    (n, d) array: x_i has posterior mean x_obs,i + (r_i / tau2_i) beta_miss,i
    (beta_miss,i: beta on the coordinates sample i misses), built from the
    n-vectors ``r = y - x_obs @ beta`` and ``tau2 = sigma^2 + miss @ beta^2``;
    ``x_obs`` (x, zero where unobserved) and ``miss`` are kept, not ``mask``.
    """

    tag = RMC
    _NO_CURVATURE = "no curvature matrix is defined for missing-covariate regression"

    def __init__(self, x, mask, y, sigma):
        x = _check_matrix(x, "x")
        mask = np.asarray(mask, dtype=float)
        if mask.shape != x.shape:
            raise ValueError("mask must match x in shape")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        y = _check_response(y, x.shape[0])
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        x_obs = np.where(mask == 1, x, 0.0)
        if not np.all(np.isfinite(x_obs)):
            raise ValueError("observed x entries must be finite")
        super().__init__(y, sigma)
        self.x, self.x_obs, self.miss = x, x_obs, 1.0 - mask
        self.dim = x.shape[1]

    mask = property(lambda self: 1.0 - self.miss, doc="1 where x was observed, else 0.")

    def subset(self, indices):
        return MissingCovariateRegression(
            self.x[indices], self.mask[indices], self.y[indices], self.sigma
        )

    def _conditional_moments(self, beta):
        """The checked ``beta`` with the n-vectors ``tau2`` and ``r``."""
        beta = _check_vector(beta, self.dim)
        return beta, self.sigma**2 + self.miss @ beta**2, self.y - self.x_obs @ beta

    def posterior_weight(self, beta, i):
        raise UnsupportedOperationError(
            "posterior mixture weight is undefined for missing-covariate "
            "regression (the latent variable is continuous)"
        )

    def q_value(self, beta_prime, beta):
        beta_prime = _check_vector(beta_prime, self.dim, "beta_prime")
        beta, tau2, resid = self._conditional_moments(beta)
        cross = self.miss @ (beta * beta_prime)  # <beta_miss,i, beta'>
        fit = self.x_obs @ beta_prime + resid / tau2 * cross  # <m_i, beta'>
        # quadratic form in the conditional second moment of x
        quad = self.miss @ beta_prime**2 + fit**2 - cross**2 / tau2
        return float(np.mean(self.y * fit - 0.5 * quad))

    def grad_q(self, beta):
        # mean_i(y_i m_i - E[x_i x_i^T] beta), using y_i - <m_i, beta> = sigma^2 a_i
        beta, tau2, resid = self._conditional_moments(beta)
        a = resid / tau2
        miss_coef = self.miss.T @ (a * a - 1.0 / tau2)
        return (self.x_obs.T @ a + beta * miss_coef) * (self.sigma**2 / self.n_samples)

    def m_step_exact(self, beta):
        raise UnsupportedOperationError(
            "exact M-step is unavailable for missing-covariate regression: "
            "the per-sample second-moment matrix need not be invertible"
        )

    def curvature_matrix(self, beta):
        raise UnsupportedOperationError(self._NO_CURVATURE)

    def curvature_column(self, beta, alpha):
        raise UnsupportedOperationError(self._NO_CURVATURE)

    def loglik(self, beta):
        # y_i | observed x_i is Gaussian with mean <beta, x_obs> and
        # variance sigma^2 + ||beta restricted to the missing coords||^2
        _, tau2, resid = self._conditional_moments(beta)
        return float(np.sum(-0.5 * np.log(2.0 * np.pi * tau2) - resid**2 / (2.0 * tau2)))
