"""The three latent-variable models behind one uniform interface.

Each model is one class built directly from its sample arrays, which the
constructor validates: ``GaussianMixture(y, sigma)``,
``MixtureRegression(x, y, sigma)`` and
``MissingCovariateRegression(x, mask, y, sigma)``; the CLIME lambda of
the mixture of regressions is fixed by n and d.  Each exposes the EM
surrogate ``q_value``, its first-slot gradient ``grad_q`` evaluated on
the diagonal, exact and gradient M-steps, the curvature matrix used for
inference, and the observed-data log likelihood.

The two mixtures define the curvature matrix T by three readers: the
gradient and weights c at beta, ``_grad_and_curvature_weights(beta)``;
one column, ``_column(c, alpha)``, one O(nd) matrix-vector product; and
``_diagonal(c)``, T's diagonal and the radii ``r_i = sum_k |c_k| z_ki^2``
of its Gram form ``sum_k c_k z_k z_k^T``, so ``|T_ij| <= sqrt(r_i r_j)``.
``curvature_matrix(beta)``, one O(nd^2) build for every model, stacks the
columns: column alpha fills ``T[alpha:, alpha]`` and its mirror, so T is
exactly symmetric and its lower triangle is, bit for bit, what inference
reads.  The models keep no per-point state of their own; inference keeps
its last finished decorrelation on the model (see ``inference``).

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

from .errors import UnsupportedOperationError
from .lp import clime_inverse


@np.errstate(over="ignore", under="ignore")
def _sigmoid(x):
    """The logistic sigmoid ``1 / (1 + exp(-x))``, elementwise.

    It agrees with ``scipy.special.expit`` to rel 1e-15 wherever expit is at
    least 1e-300 (4.5e-16 at most over [-745, 745]) and to abs 1e-300
    below; it is exactly 0.0 and 1.0 at the extremes.  ``exp(-x)``
    overflows to inf below x = -709.78 (the sigmoid is then 0) and
    underflows for large x (1 + exp(-x) is then 1), and the quotient is
    subnormal just above x = -709.78: all expected, so neither warns.
    """
    return 1.0 / (1.0 + np.exp(-x))


def _check_vector(beta, d, name="beta"):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {beta.shape}")
    return beta


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
    level ``sigma``, the gradient M-step and the curvature matrix, built
    from the subclass's ``_grad_and_curvature_weights`` and ``_column``.  The
    regression models also keep their (n, d) design ``x``.  Each subclass
    validates its arrays before calling this constructor."""

    def __init__(self, y, sigma):
        if not 0 < sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        self.y = y
        self.sigma = sigma
        self.n_samples = y.shape[0]

    def m_step_gradient(self, beta, eta):
        if not 0 <= eta < np.inf:
            raise ValueError("eta must be nonnegative")
        return np.asarray(beta, dtype=float) + eta * self.grad_q(beta)

    def curvature_matrix(self, beta):
        # column i fills T[i:, i] and its mirror T[i, i:]: T is exactly
        # symmetric, and its lower triangle is what inference reads
        c = self._grad_and_curvature_weights(beta)[1]
        t_mat = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            t_mat[i:, i] = t_mat[i, i:] = self._column(c, i)[i:]
        return t_mat


class _Mixture(_Model):
    """A symmetric two-component mixture; ``_weights`` gives the posterior
    probability of the positive component per sample and ``_sq_dists`` each
    sample's squared distances to the components' means at +beta and -beta,
    which the surrogate and the log likelihood read.  The curvature matrix
    is a weighted Gram form of the samples, read one column at a time."""

    def q_value(self, beta_prime, beta):
        plus, minus = self._sq_dists(_check_vector(beta_prime, self.dim, "beta_prime"))
        w = self._weights(beta)
        return float(-0.5 * np.mean(w * plus + (1.0 - w) * minus))

    def loglik(self, beta):
        plus, minus = self._sq_dists(_check_vector(beta, self.dim))
        s2 = self.sigma**2
        sample_dim = self.y.size // self.n_samples  # d for GMM, 1 for MR
        const = -0.5 * sample_dim * np.log(2.0 * np.pi * s2) - np.log(2.0)
        return float(np.sum(np.logaddexp(-plus / (2.0 * s2), -minus / (2.0 * s2)) + const))


class GaussianMixture(_Mixture):
    """Symmetric two-component Gaussian mixture with known noise level:
    each row of the (n, d) matrix ``y`` is Z * beta + noise, Z a random
    sign.  Its curvature matrix is ``y^T diag(nu) y / n - I``; column alpha
    is the one product ``y^T (nu y[:, alpha]) / n``."""

    tag = "GMM"

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
        return _sigmoid(2.0 * (self.y @ beta) / self.sigma**2)

    def _sq_dists(self, beta):
        return np.sum((self.y - beta) ** 2, axis=1), np.sum((self.y + beta) ** 2, axis=1)

    def grad_q(self, beta):
        return self._grad_and_curvature_weights(beta)[0]

    def m_step_exact(self, beta):
        w = self._weights(beta)
        return (2.0 * w - 1.0) @ self.y / self.n_samples

    def _grad_and_curvature_weights(self, beta):  # one posterior evaluation
        w = self._weights(beta)
        grad = (2.0 * w - 1.0) @ self.y / self.n_samples - beta
        return grad, (4.0 / self.sigma**2) * w * (1.0 - w)

    def _column(self, nu, alpha):
        col = self.y.T @ (nu * self.y[:, alpha]) / self.n_samples
        col[alpha] -= 1.0
        return col

    def _diagonal(self, nu):  # nu >= 0, so the radii are diag + 1
        gram = np.einsum("k,ki,ki->i", nu, self.y, self.y)
        return gram / self.n_samples - 1.0, gram / self.n_samples


class MixtureRegression(_Mixture):
    """Symmetric two-component mixture of linear regressions:
    ``y[i] = Z * <x[i], beta> + noise``, Z a random sign.

    The exact M-step premultiplies by a CLIME estimate of the inverse
    covariance of the design, computed once per model and cached.  The
    curvature matrix is ``x^T diag(c) x``, ``c = (nu y^2 - 1) / n``; column
    alpha is the one product ``(c x[:, alpha]) @ x``.  Its diagonal and radii
    are one weighted sum of squares each, by c and by |c|.

    The CLIME lambda is fixed, ``clime_lambda = 2 sqrt(log d / n)`` (n of
    this model, so a ``subset`` has its own), and it over-shrinks at small
    n: at n=100 and d=64 (lambda 0.41) every CLIME column is a scaled unit
    vector, and the exact M-step ends at relative error 0.31-0.56 over
    seeds 0-5, against 0.0013-0.0027 for the gradient M-step.  That is why
    the gradient M-step is the default for MR fitting and inference.
    """

    tag = "MR"

    def __init__(self, x, y, sigma):
        x = _check_matrix(x, "x")
        y = _check_response(y, x.shape[0])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("data contains non-finite entries")
        super().__init__(y, sigma)
        self.x = x
        self.dim = x.shape[1]
        self._theta_hat = None

    @property
    def clime_lambda(self):
        return float(2.0 * np.sqrt(np.log(self.dim) / self.n_samples))

    def subset(self, indices):
        return MixtureRegression(self.x[indices], self.y[indices], self.sigma)

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
        return fit, _sigmoid(2.0 * (self.y * fit) / self.sigma**2)

    def _weights(self, beta):
        return self._fit_and_weights(beta)[1]

    def _sq_dists(self, beta):
        fit = self.x @ beta
        return (self.y - fit) ** 2, (self.y + fit) ** 2

    def _gradient(self, fit, w):
        return self.x.T @ ((2.0 * w - 1.0) * self.y - fit) / self.n_samples

    def grad_q(self, beta):
        return self._gradient(*self._fit_and_weights(beta))

    def m_step_exact(self, beta):
        w = self._weights(beta)
        moment = self.x.T @ ((2.0 * w - 1.0) * self.y) / self.n_samples
        return self.clime_theta() @ moment

    def _grad_and_curvature_weights(self, beta):
        fit, w = self._fit_and_weights(beta)  # one x @ beta, one posterior evaluation
        nu = (4.0 / self.sigma**2) * w * (1.0 - w)
        return self._gradient(fit, w), (nu * self.y**2 - 1.0) / self.n_samples

    def _column(self, c, alpha):
        return (c * self.x[:, alpha]).dot(self.x)

    def _diagonal(self, c):
        # summed from c itself: a form that lifts c off -1/n and subtracts
        # the column norms cancels to a rounding of the norms, far above
        # both T_ii and r_i where nu y^2 is near 1 (n=1, x=3, y=1, beta=1/256)
        return (np.einsum("k,ki,ki->i", c, self.x, self.x),
                np.einsum("k,ki,ki->i", np.abs(c), self.x, self.x))


class MissingCovariateRegression(_Model):
    """Linear regression with covariates missing completely at random.

    The latent variable is the vector of unobserved covariates.  Only the
    gradient M-step is available: the per-sample conditional second
    moment makes the exact maximizer require a d x d solve that is not
    well posed in high dimensions.  The curvature matrix, and with it
    single-coordinate inference, is not implemented: y | x_obs is Gaussian
    (see ``loglik``), so it has a closed form (Louis 1982), not yet written.

    ``mask[i, j] == 1`` iff ``x[i, j]`` was observed; ``x`` is never read
    where the mask is 0, so it may be non-finite there.  The E-step forms no
    (n, d) array: x_i has posterior mean x_obs,i + (r_i / tau2_i) beta_miss,i
    (beta_miss,i: beta on the coordinates sample i misses), built from the
    n-vectors ``r = y - x_obs @ beta`` and ``tau2 = sigma^2 + miss @ beta^2``;
    ``x_obs`` (x, zero where unobserved) and ``miss`` are kept, not ``mask``.
    """

    tag = "RMC"
    _NO_CURVATURE = "curvature matrix not implemented for missing-covariate regression"
    _NO_EXACT_M_STEP = ("exact M-step is unavailable for missing-covariate regression: "
                        "the per-sample second-moment matrix need not be invertible")

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
        raise UnsupportedOperationError(self._NO_EXACT_M_STEP)

    def _grad_and_curvature_weights(self, beta):  # what every curvature reads
        raise UnsupportedOperationError(self._NO_CURVATURE)

    def loglik(self, beta):
        # y_i | observed x_i is Gaussian with mean <beta, x_obs> and
        # variance sigma^2 + ||beta restricted to the missing coords||^2
        _, tau2, resid = self._conditional_moments(beta)
        return float(np.sum(-0.5 * np.log(2.0 * np.pi * tau2) - resid**2 / (2.0 * tau2)))
