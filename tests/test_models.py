import math

import numpy as np
import pytest
from scipy.special import expit

from conftest import random_gmm, random_mr, random_rmc
from oracles import (
    fd_directional,
    fd_gradient,
    gmm_curvature_symmetrized,
    gmm_loglik_per_class,
    gmm_q_naive,
    gmm_q_value_per_class,
    mr_curvature_two_products,
    mr_loglik_per_class,
    mr_q_naive,
    mr_q_value_per_class,
    rmc_grad_q_materialized,
    rmc_loglik_materialized,
    rmc_q_naive,
    rmc_q_value_materialized,
)
from truncem import inference
from truncem.datagen import GenSpec, gen_dataset, make_beta_star
from truncem.em import EmConfig, run_em
from truncem.errors import UnsupportedOperationError
from truncem.harness import ExperimentConfig, fit_replicate
from truncem.inference import InferenceConfig, score_test, wald_test
from truncem.models import (GaussianMixture, MissingCovariateRegression, MixtureRegression,
                            _sigmoid)


def all_models(rng, sigma=1.0):
    return [
        random_gmm(rng, sigma=sigma),
        random_mr(rng, sigma=sigma),
        random_rmc(rng, sigma=sigma),
    ]


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / denom


# ---------------------------------------------------------------------------
# data validation


def test_gmm_data_validation():
    for y in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3)):
        with pytest.raises(ValueError, match=r"y must be a nonempty \(n, d\) matrix"):
            GaussianMixture(y, 1.0)
    with pytest.raises(ValueError, match="y contains non-finite entries"):
        GaussianMixture(np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianMixture(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        GaussianMixture(np.zeros((2, 2)), math.inf)


def test_mr_data_validation():
    for x in (np.zeros((0, 2)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match=r"x must be a nonempty \(n, d\) matrix"):
            MixtureRegression(x, np.zeros(x.shape[0]), 1.0)
    with pytest.raises(ValueError, match=r"y must have shape \(n,\)"):
        MixtureRegression(np.zeros((3, 2)), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="data contains non-finite entries"):
        MixtureRegression(np.zeros((3, 2)), np.array([0.0, np.inf, 0.0]), 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        MixtureRegression(np.zeros((3, 2)), np.zeros(3), -1.0)


def test_rmc_data_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"x must be a nonempty \(n, d\) matrix"):
        MissingCovariateRegression(np.zeros((3, 0)), np.zeros((3, 0)), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
        MissingCovariateRegression(x, np.full((3, 2), 0.5), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="mask must match x in shape"):
        MissingCovariateRegression(x, np.ones((2, 2)), np.zeros(3), 1.0)
    # unobserved x entries may be anything, including non-finite
    x_bad = x.copy()
    x_bad[0, 0] = np.inf
    mask = np.ones((3, 2))
    mask[0, 0] = 0.0
    MissingCovariateRegression(x_bad, mask, np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="observed x entries must be finite"):
        MissingCovariateRegression(x_bad, np.ones((3, 2)), np.zeros(3), 1.0)


def test_dimension_mismatch_rejected(rng):
    for model in all_models(rng):
        with pytest.raises(ValueError):
            model.grad_q(np.zeros(model.dim + 1))
        with pytest.raises(ValueError):
            model.q_value(np.zeros(model.dim + 1), np.zeros(model.dim))


# ---------------------------------------------------------------------------
# posterior weights


def test_gmm_weight_half_at_orthogonal():
    y = np.array([[1.0, 0.0]])
    model = GaussianMixture(y, 1.0)
    assert model._weights(np.array([0.0, 3.0]))[0] == pytest.approx(0.5)


def test_gmm_weight_three_quarters():
    # 0.75 is reached when <beta, y> equals sigma^2 * ln(3) / 2
    sigma = 1.3
    y = np.array([[sigma**2 * math.log(3.0) / 2.0, 0.0]])
    model = GaussianMixture(y, sigma)
    assert model._weights(np.array([1.0, 0.0]))[0] == pytest.approx(0.75)


def test_mr_weight_half_at_zero_margin():
    model = MixtureRegression(np.array([[1.0, 0.0]]), np.array([0.0]), 1.0)
    assert model._weights(np.ones(2))[0] == pytest.approx(0.5)


def test_gmm_weight_symmetry(rng):
    y = rng.standard_normal((10, 4))
    beta = rng.standard_normal(4)
    pos = GaussianMixture(y, 0.8)
    neg = GaussianMixture(-y, 0.8)
    total = pos._weights(beta) + neg._weights(beta)
    assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)


def test_weights_stable_at_huge_arguments():
    y = np.array([[1e6], [-1e6]])
    model = GaussianMixture(y, 0.1)
    with np.errstate(all="raise"):
        assert model._weights(np.array([1.0])).tolist() == [1.0, 0.0]
        t_mat = model.curvature_matrix(np.array([1.0]))
    assert np.all(np.isfinite(t_mat))


def test_sigmoid_matches_scipy_expit():
    x = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [1e6, -1e6, 1e308, -1e308]])
    with np.errstate(all="raise"):
        got, want = _sigmoid(x), expit(x)
    normal = want >= 1e-300
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal])
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)
    assert got[-4:].tolist() == [1.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# surrogate values against naive double loops


def test_gmm_q_at_zero_is_mean_square():
    y = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    model = GaussianMixture(y, 1.0)
    zero = np.zeros(2)
    expect = -0.5 * np.mean(np.sum(y**2, axis=1))
    assert model.q_value(zero, zero) == pytest.approx(expect, abs=1e-12)


def test_q_value_matches_naive_loops(rng):
    n, d, sigma = 5, 3, 0.9
    y = rng.standard_normal((n, d))
    x = rng.standard_normal((n, d))
    yr = rng.standard_normal(n)
    mask = (rng.uniform(size=(n, d)) >= 0.4).astype(float)
    gmm = GaussianMixture(y, sigma)
    mr = MixtureRegression(x, yr, sigma)
    rmc = MissingCovariateRegression(x, mask, yr, sigma)
    for _ in range(5):
        bp = rng.standard_normal(d)
        b = rng.standard_normal(d)
        assert gmm.q_value(bp, b) == pytest.approx(
            gmm_q_naive(y, sigma, bp, b), abs=1e-12
        )
        assert mr.q_value(bp, b) == pytest.approx(
            mr_q_naive(x, yr, sigma, bp, b), abs=1e-12
        )
        assert rmc.q_value(bp, b) == pytest.approx(
            rmc_q_naive(x, mask, yr, sigma, bp, b), abs=1e-12
        )


def test_rmc_full_mask_complete_data_reduction(rng):
    n, d = 8, 3
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    model = MissingCovariateRegression(x, np.ones((n, d)), y, 1.0)
    bp = rng.standard_normal(d)
    fit = x @ bp
    expect = float(np.mean(y * fit - 0.5 * fit**2))
    for _ in range(3):
        b = rng.standard_normal(d)
        assert model.q_value(bp, b) == pytest.approx(expect, abs=1e-12)
    # gradient reduces to the least-squares gradient
    b = rng.standard_normal(d)
    ols = x.T @ (y - x @ b) / n
    assert np.allclose(model.grad_q(b), ols, atol=1e-12)


def _assert_rmc_matches_materialized(model, beta, beta_prime):
    assert rel_err(model.grad_q(beta), rmc_grad_q_materialized(model, beta)) <= 1e-12
    assert model.q_value(beta_prime, beta) == pytest.approx(
        rmc_q_value_materialized(model, beta_prime, beta), rel=1e-12
    )
    assert model.loglik(beta) == pytest.approx(
        rmc_loglik_materialized(model, beta), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(20))
def test_rmc_estep_matches_materialized_moments(seed):
    # the n-vector E-step against the (n, d) posterior-moment formulas, at
    # the RMC defaults: on a sparse and a dense beta, and on every block
    # that a resampled fit sees, at its iterates
    d = 256
    model = gen_dataset(GenSpec("RMC", 100, d, make_beta_star(d, [4, 4, 4, 6, 6]),
                                1.0, p_missing=0.1, seed=seed))
    rng = np.random.default_rng(seed)
    sparse = np.zeros(d)
    sparse[rng.choice(d, 5, replace=False)] = 4.0 * rng.standard_normal(5)
    for beta in (sparse, rng.standard_normal(d)):
        _assert_rmc_matches_materialized(model, beta, rng.standard_normal(d))
    cfg = EmConfig(s_hat=5, n_iter=10, m_step="gradient", resample=True)
    trace = run_em(model, sparse, cfg)
    for t, beta in enumerate(trace.iterates[:-1]):
        block = model.subset(np.arange(10 * t, 10 * (t + 1)))
        _assert_rmc_matches_materialized(block, beta, trace.iterates[t + 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rmc_nonfinite_unobserved_x_is_ignored(rng, bad):
    # 0 * inf is NaN, so the E-step must not multiply x by the mask
    model = random_rmc(rng, n=30, d=6)
    x_bad = np.where(model.mask == 1, model.x, bad)
    x_zero = np.where(model.mask == 1, model.x, 0.0)
    dirty = MissingCovariateRegression(x_bad, model.mask, model.y, model.sigma)
    clean = MissingCovariateRegression(x_zero, model.mask, model.y, model.sigma)
    for _ in range(3):
        beta, beta_prime = rng.standard_normal(6), rng.standard_normal(6)
        assert np.all(np.isfinite(dirty.grad_q(beta)))
        assert np.array_equal(dirty.grad_q(beta), clean.grad_q(beta))
        assert dirty.q_value(beta_prime, beta) == clean.q_value(beta_prime, beta)
        assert dirty.loglik(beta) == clean.loglik(beta)


# ---------------------------------------------------------------------------
# gradients and curvature against finite differences


def test_grad_q_zero_at_origin_gmm(rng):
    model = random_gmm(rng)
    assert np.allclose(model.grad_q(np.zeros(model.dim)), 0.0, atol=1e-12)


def test_grad_q_matches_fd_of_q(rng):
    for model in all_models(rng, sigma=0.7):
        for _ in range(3):
            beta = rng.standard_normal(model.dim)
            grad = model.grad_q(beta)
            fd = fd_gradient(lambda bp, b=beta: model.q_value(bp, b), beta)
            assert rel_err(grad, fd) < 1e-5


def test_grad_q_matches_loglik_gradient_at_unit_sigma(rng):
    # the surrogate gradient on the diagonal equals the scaled likelihood
    # gradient; at sigma = 1 the scalings coincide
    for model in all_models(rng, sigma=1.0):
        for _ in range(3):
            beta = rng.standard_normal(model.dim)
            fd = fd_gradient(model.loglik, beta) / model.n_samples
            assert rel_err(model.grad_q(beta), fd) < 1e-5


def test_curvature_symmetry_and_fd(rng):
    for model in (random_gmm(rng, sigma=0.6), random_mr(rng, sigma=0.6)):
        for _ in range(3):
            beta = rng.standard_normal(model.dim)
            t_mat = model.curvature_matrix(beta)
            assert np.array_equal(t_mat, t_mat.T)
            v = rng.standard_normal(model.dim)
            v /= np.linalg.norm(v)
            fd = fd_directional(model.grad_q, beta, v, h=1e-6)
            assert rel_err(t_mat @ v, fd) < 1e-4


def test_mr_curvature_matches_two_product_form(rng):
    # the columns sum in another order, so they agree to rounding only; the
    # mirrored triangle must still be exactly symmetric
    fitted, trace, _ = fit_replicate(ExperimentConfig(model="MR").resolve(), 0)
    small = random_mr(rng, sigma=0.6)
    cases = [(fitted, trace.estimate), (fitted, np.zeros(fitted.dim)),
             (fitted, rng.standard_normal(fitted.dim)),
             (small, rng.standard_normal(small.dim))]
    for model, beta in cases:
        t_mat = model.curvature_matrix(beta)
        ref = mr_curvature_two_products(model, beta)
        assert np.array_equal(t_mat, t_mat.T)
        assert np.max(np.abs(t_mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gmm_curvature_at_zero_closed_form(rng):
    model = random_gmm(rng, sigma=1.4)
    y = model.y
    expect = y.T @ y / model.n_samples / model.sigma**2 - np.eye(model.dim)
    assert np.allclose(model.curvature_matrix(np.zeros(model.dim)), expect,
                       atol=1e-12)


# the columns against the two-product form, from one column to d = 199, with
# few, most or no samples lifted off the weight -1/n
@pytest.mark.parametrize("d", [1, 5, 16, 17, 40, 199])
@pytest.mark.parametrize("sigma, scale, lifted_range", [
    pytest.param(0.1, 1.0, (1, 9), id="few"),
    pytest.param(1.0, 1.0, (21, 30), id="most"),
    pytest.param(0.01, 100.0, (0, 0), id="none"),
])
def test_mr_curvature_gram_form(rng, d, sigma, scale, lifted_range):
    model = random_mr(rng, n=30, d=d, sigma=sigma)
    beta = scale * rng.standard_normal(d) / np.sqrt(d)
    weights = model._grad_and_curvature_weights(beta)[1]
    lifted = np.count_nonzero(weights != -1.0 / model.n_samples)
    assert lifted_range[0] <= lifted <= lifted_range[1]
    t_mat = model.curvature_matrix(beta)
    ref = mr_curvature_two_products(model, beta)
    assert np.array_equal(t_mat, t_mat.T)
    assert np.max(np.abs(t_mat - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 5, 17, 40])
def test_gmm_curvature_gram_form(rng, d):
    model = random_gmm(rng, n=30, d=d, sigma=0.6)
    for beta in (np.zeros(d), rng.standard_normal(d)):
        t_mat = model.curvature_matrix(beta)
        ref = gmm_curvature_symmetrized(model, beta)
        assert np.array_equal(t_mat, t_mat.T)
        assert np.max(np.abs(t_mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_curvature_column_matches_matrix(rng):
    for model in (random_gmm(rng, sigma=0.6), random_mr(rng, sigma=0.6)):
        for beta in (np.zeros(model.dim), rng.standard_normal(model.dim)):
            t_mat = model.curvature_matrix(beta)
            cols = inference._Point(model, beta)
            for alpha in range(model.dim):
                assert np.max(np.abs(cols[alpha] - t_mat[:, alpha])) <= 1e-14 * np.max(np.abs(t_mat))


@pytest.mark.parametrize("d", [1, 5, 40])
def test_curvature_lower_triangle_is_the_columns_inference_reads(rng, d):
    for model in (random_gmm(rng, n=30, d=d, sigma=0.6), random_mr(rng, n=30, d=d, sigma=0.6)):
        for beta in (np.zeros(d), rng.standard_normal(d)):
            t_mat = model.curvature_matrix(beta)
            cols = inference._Point(model, beta)
            assert np.array_equal(t_mat, t_mat.T)
            for i in range(d):
                assert np.array_equal(t_mat[i:, i], cols[i][i:])


def test_rmc_curvature_unsupported(rng):
    with pytest.raises(UnsupportedOperationError):
        random_rmc(rng).curvature_matrix(np.zeros(5))


def test_rmc_curvature_column_unsupported(rng):
    model = random_rmc(rng)
    with pytest.raises(UnsupportedOperationError) as score:
        score_test(model, np.zeros(5), InferenceConfig(alpha_index=0))
    with pytest.raises(UnsupportedOperationError) as wald:
        wald_test(model, np.zeros(5), InferenceConfig(alpha_index=0))
    with pytest.raises(UnsupportedOperationError) as matrix:
        model.curvature_matrix(np.zeros(5))
    assert str(score.value) == str(wald.value) == str(matrix.value)


# ---------------------------------------------------------------------------
# M-steps


def test_gmm_m_step_zero_fixed_point(rng):
    model = random_gmm(rng)
    assert np.allclose(model.m_step_exact(np.zeros(model.dim)), 0.0, atol=1e-12)


def test_gmm_m_step_saturated_weights(rng):
    # all samples on the positive side: weights saturate to one
    d = 4
    beta_star = np.array([5.0, 5.0, 0.0, 0.0])
    y = beta_star + 0.01 * rng.standard_normal((30, d))
    model = GaussianMixture(y, 0.1)
    m = model.m_step_exact(beta_star)
    assert np.allclose(m, y.mean(axis=0), atol=1e-12)


def test_gmm_m_step_is_q_maximizer(rng):
    model = random_gmm(rng)
    beta = rng.standard_normal(model.dim)
    m = model.m_step_exact(beta)
    fd = fd_gradient(lambda bp: model.q_value(bp, beta), m)
    assert np.max(np.abs(fd)) <= 1e-6


def test_m_step_gradient_definition(rng):
    for model in all_models(rng):
        beta = rng.standard_normal(model.dim)
        assert np.array_equal(model.m_step_gradient(beta, 0.0), beta)
        out = model.m_step_gradient(beta, 0.3)
        assert np.allclose(out, beta + 0.3 * model.grad_q(beta), atol=0)
        for eta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be nonnegative"):
                model.m_step_gradient(beta, eta)


def test_mr_m_step_clime_residual_bound(rng):
    n, d = 50, 4
    x = rng.standard_normal((n, d))
    beta0 = np.array([1.0, -2.0, 0.0, 0.5])
    y = rng.choice([-1.0, 1.0], n) * (x @ beta0) + 0.3 * rng.standard_normal(n)
    model = MixtureRegression(x, y, 0.3)
    lam = model.clime_lambda  # fixed by n and d, and read-only
    assert lam == 2.0 * np.sqrt(np.log(d) / n)
    with pytest.raises(AttributeError):
        model.clime_lambda = 0.2
    beta = rng.standard_normal(d)
    m = model.m_step_exact(beta)
    w = model._weights(beta)
    moment = x.T @ ((2.0 * w - 1.0) * y) / n
    residual = np.max(np.abs(model.design_covariance() @ m - moment))
    # entrywise CLIME feasibility propagated through the moment vector
    assert residual <= lam * np.sum(np.abs(moment)) + 1e-8


def test_mr_clime_cache_reused(rng):
    model = random_mr(rng)
    assert model.clime_theta() is model.clime_theta()


def test_rmc_exact_m_step_unsupported(rng):
    with pytest.raises(UnsupportedOperationError):
        random_rmc(rng).m_step_exact(np.zeros(5))


def test_gmm_self_consistency_small_sigma(rng):
    d, n = 6, 400
    beta_star = np.array([2.0, -1.0, 1.5, 0.0, 0.0, 0.0])
    sigma = 1e-3
    signs = rng.choice([-1.0, 1.0], n)
    y = signs[:, None] * beta_star + sigma * rng.standard_normal((n, d))
    model = GaussianMixture(y, sigma)
    grad = model.grad_q(beta_star)
    assert np.linalg.norm(grad) <= 1e-2 * np.linalg.norm(beta_star)


# ---------------------------------------------------------------------------
# log likelihood


def test_gmm_loglik_at_zero_single_sample():
    y = np.array([[1.0, -2.0]])
    sigma = 1.5
    model = GaussianMixture(y, sigma)
    expect = -np.log(2 * np.pi * sigma**2) - np.sum(y**2) / (2 * sigma**2)
    assert model.loglik(np.zeros(2)) == pytest.approx(expect, abs=1e-12)


def test_mr_loglik_at_zero_single_sample():
    model = MixtureRegression(np.array([[1.0, 0.0]]), np.array([0.7]), 0.5)
    expect = -0.5 * np.log(2 * np.pi * 0.25) - 0.7**2 / (2 * 0.25)
    assert model.loglik(np.zeros(2)) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("kind", ["GMM", "MR"])
def test_shared_mixture_form_matches_per_class_bit_for_bit(kind):
    # the one q_value and loglik over _sq_dists against the per-class forms
    # they replaced, at the defaults: a sparse and a dense beta in either
    # slot, list input, and the second data block of resampled EM
    q_ref, loglik_ref = {
        "GMM": (gmm_q_value_per_class, gmm_loglik_per_class),
        "MR": (mr_q_value_per_class, mr_loglik_per_class),
    }[kind]
    cfg = ExperimentConfig(model=kind).resolve()
    sparse = make_beta_star(cfg.d, cfg.beta_values)
    rng = np.random.default_rng(0)
    for seed in range(20):
        model = gen_dataset(GenSpec(kind, cfg.n, cfg.d, sparse, cfg.sigma, seed=seed))
        block = model.subset(np.arange(10, 20))  # n = 100 in n_iter = 10 blocks
        dense = rng.standard_normal(cfg.d)
        for m, bp, b in [(model, sparse, dense), (model, dense, sparse),
                         (model, list(dense), list(sparse)), (block, dense, sparse)]:
            assert m.q_value(bp, b) == q_ref(m, bp, b)
            assert m.loglik(bp) == loglik_ref(m, bp)
    with pytest.raises(ValueError, match=r"beta_prime must have shape \(256,\)"):
        model.q_value(np.zeros(cfg.d + 1), sparse)
    with pytest.raises(ValueError, match=r"^beta must have shape \(256,\)"):
        model.q_value(sparse, np.zeros(cfg.d - 1))


def test_jensen_minorization_bound(rng):
    sigma = 0.8
    for model in all_models(rng, sigma=sigma):
        scale = model.n_samples / sigma**2
        for _ in range(100):
            b1 = rng.standard_normal(model.dim)
            b2 = rng.standard_normal(model.dim)
            lhs = model.loglik(b1) - model.loglik(b2)
            rhs = scale * (model.q_value(b1, b2) - model.q_value(b2, b2))
            assert lhs - rhs >= -1e-9


# ---------------------------------------------------------------------------
# sample-order invariance and subsetting


def test_outputs_invariant_under_sample_permutation(rng):
    for model in all_models(rng, sigma=0.9):
        perm = rng.permutation(model.n_samples)
        shuffled = model.subset(perm)
        beta = rng.standard_normal(model.dim)
        bp = rng.standard_normal(model.dim)
        assert model.loglik(beta) == pytest.approx(shuffled.loglik(beta),
                                                   abs=1e-9)
        assert model.q_value(bp, beta) == pytest.approx(
            shuffled.q_value(bp, beta), abs=1e-12
        )
        assert np.allclose(model.grad_q(beta), shuffled.grad_q(beta),
                           atol=1e-12)
        if model.tag != "RMC":
            assert np.allclose(
                model.curvature_matrix(beta),
                shuffled.curvature_matrix(beta),
                atol=1e-12,
            )


def test_subset_selects_samples(rng):
    # every constructor array, RMC's raw x and mask included
    arrays = {"GMM": ("y",), "MR": ("x", "y"), "RMC": ("x", "mask", "y")}
    for model in all_models(rng):
        sub = model.subset(np.arange(3))
        assert type(sub) is type(model) and sub.sigma == model.sigma
        assert sub.n_samples == 3
        for name in arrays[model.tag]:
            assert np.array_equal(getattr(sub, name), getattr(model, name)[:3])
