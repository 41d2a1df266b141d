import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_gmm
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decorrelate_full_matrix, full_l1_linf_lp, mr_curvature_two_products
from truncem import inference, lp
from truncem.errors import DegenerateInformationError
from truncem.harness import ExperimentConfig, fit_replicate, infer_replicate
from truncem.inference import (
    InferenceConfig,
    InferenceResult,
    default_lambda,
    info_quadratic_form,
    score_function,
    score_test,
    std_normal_cdf,
    std_normal_quantile,
    wald_estimator,
    wald_test,
)
from truncem.models import GaussianMixture, MixtureRegression


# ---------------------------------------------------------------------------
# normal distribution helpers


def test_cdf_basics():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-10)


def test_cdf_symmetry(rng):
    for x in rng.standard_normal(20) * 3:
        assert std_normal_cdf(-x) == pytest.approx(
            1.0 - std_normal_cdf(x), abs=1e-12
        )


def test_quantile_value():
    assert std_normal_quantile(0.975) == pytest.approx(1.9599640, abs=1e-6)


def test_quantile_inverts_cdf(rng):
    for p in rng.uniform(0.001, 0.999, size=30):
        x = std_normal_quantile(p)
        assert std_normal_cdf(x) == pytest.approx(p, abs=1e-7)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


# ---------------------------------------------------------------------------
# config validation


def test_inference_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(alpha_index=-1)
    with pytest.raises(ValueError):
        InferenceConfig(alpha_index=0, lam=-0.1)
    with pytest.raises(ValueError):
        InferenceConfig(alpha_index=0, lam=float("nan"))
    with pytest.raises(ValueError):
        InferenceConfig(alpha_index=0, delta=1.5)


# ---------------------------------------------------------------------------
# decorrelated score pieces


def test_score_function_definitional(rng):
    model = random_gmm(rng, d=5)
    cfg = InferenceConfig(alpha_index=2)
    for _ in range(5):
        beta = rng.standard_normal(5)
        w = rng.standard_normal(4)
        grad = model.grad_q(beta)
        keep = np.delete(np.arange(5), 2)
        expect = grad[2] - w @ grad[keep]
        assert score_function(model, beta, w, cfg) == pytest.approx(
            expect, abs=1e-12
        )


def test_score_function_zero_w(rng):
    model = random_gmm(rng, d=4)
    beta = rng.standard_normal(4)
    cfg = InferenceConfig(alpha_index=1)
    assert score_function(model, beta, np.zeros(3), cfg) == pytest.approx(
        model.grad_q(beta)[1], abs=1e-15
    )


def test_score_function_vanishes_at_origin(rng):
    model = random_gmm(rng, d=4)
    cfg = InferenceConfig(alpha_index=0)
    w = rng.standard_normal(3)
    assert score_function(model, np.zeros(4), w, cfg) == pytest.approx(
        0.0, abs=1e-12
    )


def test_score_function_w_shape_checked(rng):
    model = random_gmm(rng, d=4)
    with pytest.raises(ValueError):
        score_function(model, np.zeros(4), np.zeros(4),
                       InferenceConfig(alpha_index=0))


def test_info_form_zero_w():
    t_mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert info_quadratic_form(t_mat, np.zeros(1), 0) == pytest.approx(2.0)


def test_info_form_d2_hand_expansion(rng):
    for _ in range(10):
        a, b, c = rng.standard_normal(3)
        v = float(rng.standard_normal())
        t_mat = np.array([[a, b], [b, c]])
        got = info_quadratic_form(t_mat, np.array([v]), 0)
        assert got == pytest.approx(a - 2 * b * v + c * v**2, abs=1e-12)


def test_info_form_matches_independent_matvec(rng):
    t_mat = rng.standard_normal((5, 5))
    t_mat = 0.5 * (t_mat + t_mat.T)
    w = rng.standard_normal(4)
    for alpha in range(5):
        v = np.empty(5)
        v[alpha] = 1.0
        v[np.delete(np.arange(5), alpha)] = -w
        expect = sum(v[i] * sum(t_mat[i, j] * v[j] for j in range(5))
                     for i in range(5))
        got = info_quadratic_form(t_mat, w, alpha)
        assert got == pytest.approx(expect, abs=1e-12)


def test_info_form_gamma_permutation_invariance(rng):
    t_mat = rng.standard_normal((6, 6))
    t_mat = 0.5 * (t_mat + t_mat.T)
    w = rng.standard_normal(5)
    alpha = 2
    base = info_quadratic_form(t_mat, w, alpha)
    # permute the nuisance block of T and w simultaneously
    keep = np.delete(np.arange(6), alpha)
    perm = rng.permutation(5)
    order = np.empty(6, dtype=int)
    order[alpha] = alpha
    order[np.sort(keep)] = keep[perm]
    t_perm = t_mat[np.ix_(order, order)]
    assert info_quadratic_form(t_perm, w[perm], alpha) == pytest.approx(
        base, abs=1e-12
    )


def test_default_lambda_rule():
    t_mat = np.array([[1.0, -3.0], [-3.0, 2.0]])
    assert default_lambda(t_mat, 50) == pytest.approx(
        0.5 * math.sqrt(math.log(2) / 50) * 3.0, abs=1e-15
    )


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_default_lambda_is_max_abs_exactly(rng, bad):
    # the scale is max(max T, -min T), which allocates no |T| copy and
    # equals the max-abs entry bit for bit, NaN and inf included
    mats = [rng.standard_normal((7, 7)), -np.abs(rng.standard_normal((7, 7))),
            np.abs(rng.standard_normal((7, 7))), np.zeros((3, 3))]
    for t_mat in mats:
        if bad is not None:
            t_mat[1, 2] = bad
        scale = 0.5 * math.sqrt(math.log(t_mat.shape[0]) / 50)
        np.testing.assert_equal(default_lambda(t_mat, 50),
                                scale * float(np.max(np.abs(t_mat))))


# ---------------------------------------------------------------------------
# full tests on small fitted models


def gmm_instance(rng, n=120, d=6, sigma=1.0):
    beta_star = np.zeros(d)
    beta_star[:2] = [3.0, -2.0]
    signs = rng.choice([-1.0, 1.0], n)
    y = signs[:, None] * beta_star + sigma * rng.standard_normal((n, d))
    model = GaussianMixture(y, sigma)
    return model, beta_star


def test_score_test_null_coordinate(rng):
    model, beta_star = gmm_instance(rng)
    cfg = InferenceConfig(alpha_index=4)
    res = score_test(model, beta_star, cfg)
    assert res.p_value == pytest.approx(
        2.0 * (1.0 - std_normal_cdf(abs(res.statistic))), abs=1e-12
    )
    assert res.reject == (res.p_value < cfg.delta)
    assert res.ci_lo <= res.ci_hi
    assert res.info_scalar > 0
    assert res.w_hat.shape == (model.dim - 1,)


def test_score_test_pins_coordinate_to_null(rng):
    model, beta_star = gmm_instance(rng)
    cfg = InferenceConfig(alpha_index=4, lam=0.05)
    shifted = beta_star.copy()
    shifted[4] = 7.3  # pinned back to 0 inside the test
    r1 = score_test(model, beta_star, cfg)
    r2 = score_test(model, shifted, cfg)
    assert r1.statistic == r2.statistic


def test_score_reduces_to_naive_for_large_lambda(rng):
    model, beta_star = gmm_instance(rng)
    cfg = InferenceConfig(alpha_index=4, lam=1e6)
    res = score_test(model, beta_star, cfg)
    assert np.allclose(res.w_hat, 0.0, atol=1e-10)
    beta0 = beta_star.copy()
    beta0[4] = 0.0
    g_alpha = model.grad_q(beta0)[4] / model.sigma**2
    t_aa = model.curvature_matrix(beta0)[4, 4] / model.sigma**2
    naive = math.sqrt(model.n_samples) * g_alpha / math.sqrt(-t_aa)
    assert res.statistic == pytest.approx(naive, abs=1e-8)


def test_wald_estimator_d2_symbolic(rng):
    # two-dimensional instance checked against the explicit algebra
    model, _ = gmm_instance(rng, n=80, d=2)
    beta_hat = np.array([2.5, 0.3])
    cfg = InferenceConfig(alpha_index=0, lam=0.02)
    t_mat = model.curvature_matrix(beta_hat)
    grad = model.grad_q(beta_hat)
    res = wald_test(model, beta_hat, cfg)
    w = float(res.w_hat[0])
    s = grad[0] - w * grad[1]
    denom = t_mat[0, 0] - w * t_mat[1, 0]
    expect = beta_hat[0] - s / denom
    assert wald_estimator(model, beta_hat, cfg) == pytest.approx(
        expect, abs=1e-12
    )
    assert 0.5 * (res.ci_lo + res.ci_hi) == pytest.approx(expect, abs=1e-10)


def test_wald_ci_width_and_midpoint(rng):
    model, beta_star = gmm_instance(rng)
    cfg = InferenceConfig(alpha_index=1, delta=0.1)
    res = wald_test(model, beta_star, cfg)
    width = 2.0 * std_normal_quantile(0.95) / math.sqrt(
        model.n_samples * res.info_scalar
    )
    assert res.ci_hi - res.ci_lo == pytest.approx(width, abs=1e-12)
    alpha_bar = wald_estimator(model, beta_star, cfg)
    assert 0.5 * (res.ci_lo + res.ci_hi) == pytest.approx(alpha_bar, abs=1e-12)


def test_wald_statistic_odd_in_null_value(rng):
    model, beta_star = gmm_instance(rng)
    alpha_bar = wald_estimator(
        model, beta_star, InferenceConfig(alpha_index=1, lam=0.05)
    )
    plus = wald_test(
        model,
        beta_star,
        InferenceConfig(alpha_index=1, lam=0.05, null_value=alpha_bar + 0.5),
    )
    minus = wald_test(
        model,
        beta_star,
        InferenceConfig(alpha_index=1, lam=0.05, null_value=alpha_bar - 0.5),
    )
    assert plus.statistic == pytest.approx(-minus.statistic, abs=1e-10)
    at_bar = wald_test(
        model,
        beta_star,
        InferenceConfig(alpha_index=1, lam=0.05, null_value=alpha_bar),
    )
    assert at_bar.statistic == pytest.approx(0.0, abs=1e-12)
    assert at_bar.p_value == pytest.approx(1.0, abs=1e-12)
    assert not at_bar.reject


def test_degenerate_information_raises(rng):
    # widely spread data at beta = 0 makes the curvature positive definite
    y = 10.0 * rng.standard_normal((50, 3))
    model = GaussianMixture(y, 1.0)
    cfg = InferenceConfig(alpha_index=0, lam=0.01)
    with pytest.raises(DegenerateInformationError):
        score_test(model, np.zeros(3), cfg)
    with pytest.raises(DegenerateInformationError):
        wald_test(model, np.zeros(3), cfg)


def test_alpha_index_out_of_range(rng):
    model, beta_star = gmm_instance(rng)
    cfg = InferenceConfig(alpha_index=model.dim)
    with pytest.raises(ValueError):
        score_test(model, beta_star, cfg)
    with pytest.raises(ValueError):
        wald_test(model, beta_star, cfg)


# ---------------------------------------------------------------------------
# one decorrelation per evaluation point


def assert_same_result(got, expect):
    for field in dataclasses.fields(InferenceResult):
        a, b = getattr(got, field.name), getattr(expect, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize(
    "change, solves",
    [("none", 1), ("estimate_off_null", 2), ("alpha_index", 2), ("lam", 2),
     ("lam_below_cross", 1)],
)
def test_score_then_wald_decorrelates_once_per_point(rng, monkeypatch, change, solves):
    # each evaluation point computes its curvature weights once, and each
    # (point, alpha, lam) its column alpha once and any other column at most
    # once; the diagonal and the LP run only where column alpha does not
    # certify w = 0, here only with lam below T_ga, and the matrix never
    model, beta_hat = gmm_instance(rng)
    score_cfg = wald_cfg = InferenceConfig(alpha_index=4)
    if change == "estimate_off_null":
        beta_hat[4] = 0.3
    elif change == "alpha_index":
        wald_cfg = InferenceConfig(alpha_index=5)
    elif change == "lam":
        wald_cfg = InferenceConfig(alpha_index=4, lam=0.05)
    elif change == "lam_below_cross":
        score_cfg = wald_cfg = InferenceConfig(alpha_index=4, lam=1e-9)

    counts, columns = Counter(), Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if name == "curvature_column":
                columns[int(args[2])] += 1
            return fn(*args)
        return wrapper

    for name in ("_curvature_weights_at", "curvature_column", "curvature_diagonal",
                 "curvature_matrix"):
        monkeypatch.setattr(GaussianMixture, name,
                            counted(name, getattr(GaussianMixture, name)))
    monkeypatch.setattr(inference, "dantzig_columns",
                        counted("dantzig_columns", inference.dantzig_columns))
    sres = score_test(model, beta_hat, score_cfg)
    wres = wald_test(model, beta_hat, wald_cfg)
    points = 2 if change == "estimate_off_null" else 1
    full = solves if change == "lam_below_cross" else 0
    del counts["curvature_column"]
    assert counts == Counter(_curvature_weights_at=points, curvature_diagonal=full,
                             dantzig_columns=full)
    alphas = {score_cfg.alpha_index, wald_cfg.alpha_index}
    assert sum(columns[a] for a in alphas) == solves
    assert max(columns.values()) <= solves
    assert (sres.w_hat is wres.w_hat) == (solves == 1)
    assert not sres.w_hat.flags.writeable
    assert not wres.w_hat.flags.writeable
    assert_same_result(sres, score_test(GaussianMixture(model.y, model.sigma), beta_hat, score_cfg))
    assert_same_result(wres, wald_test(GaussianMixture(model.y, model.sigma), beta_hat, wald_cfg))


def assert_same_records(fast, ref, rel):
    """Identical flags, and statistics within ``rel`` where defined."""
    for got, expect in zip(fast, ref, strict=True):
        for key in ("degenerate", "score_reject", "wald_reject"):
            assert got[key] == expect[key], key
        if not got["degenerate"]:
            for key in ("score_stat", "score_p", "wald_stat", "wald_p", "ci_lo", "ci_hi"):
                assert got[key] == pytest.approx(expect[key], rel=rel, abs=0.0), key


# ---------------------------------------------------------------------------
# the native LP solver against the full LP, end to end


def test_statistics_match_full_lp_reference(monkeypatch):
    gradient = ExperimentConfig(model="MR", d=64).resolve()
    exact = dataclasses.replace(gradient, m_step="exact")  # CLIME in the fit
    runs = [(gradient, seed) for seed in range(4)] + [(exact, 0)]
    fast = [infer_replicate(cfg, seed) for cfg, seed in runs]

    nonzero = []

    def full_lp(a, target, lam, a_max, masked=None):
        # the rows of A, from an array or from the cache of curvature columns
        a_mat = np.array([a[i] for i in range(target.size)])
        w = full_l1_linf_lp(a_mat, target, lam, masked)
        nonzero.append(bool(np.any(w)))
        return w

    monkeypatch.setattr(lp, "_l1_min_linf_residual", full_lp)
    ref = [infer_replicate(cfg, seed) for cfg, seed in runs]
    assert any(nonzero)
    assert not any(r["degenerate"] for r in fast)
    assert_same_records(fast, ref, rel=1e-9)


def test_statistics_match_two_product_curvature(monkeypatch):
    # the column path against the whole-matrix decorrelation on the
    # two-product MR curvature matrix, which sums in yet another order: the
    # statistics must agree to rel 1e-12
    cfg = ExperimentConfig(model="MR").resolve()
    fast = [infer_replicate(cfg, seed) for seed in range(20)]
    monkeypatch.setattr(MixtureRegression, "curvature_matrix",
                        mr_curvature_two_products)
    monkeypatch.setattr(inference, "_decorrelate", decorrelate_full_matrix)
    ref = [infer_replicate(cfg, seed) for seed in range(20)]
    assert not any(r["degenerate"] for r in fast)
    assert_same_records(fast, ref, rel=1e-12)


# ---------------------------------------------------------------------------
# the column path against the whole curvature matrix


def count_curvature_matrices(monkeypatch):
    counts = Counter()
    for cls in (GaussianMixture, MixtureRegression):
        def counted(self, beta, matrix=cls.curvature_matrix):
            counts[self.tag] += 1
            return matrix(self, beta)
        monkeypatch.setattr(cls, "curvature_matrix", counted)
    return counts


def test_column_certificate_matches_full_matrix(monkeypatch):
    # every GMM replicate at the defaults is certified from one column and
    # no MR replicate is; neither builds the matrix, and both must give the
    # full-matrix statistics
    runs = [("GMM", seed) for seed in range(20)] + [("MR", seed) for seed in range(5)]
    configs = {m: ExperimentConfig(model=m).resolve() for m in ("GMM", "MR")}
    counts = count_curvature_matrices(monkeypatch)
    fast = [infer_replicate(configs[m], seed) for m, seed in runs]
    assert counts == Counter()
    monkeypatch.setattr(inference, "_decorrelate", decorrelate_full_matrix)
    ref = [infer_replicate(configs[m], seed) for m, seed in runs]
    assert counts == Counter(MR=10, GMM=40)  # the reference, once per test
    assert not any(r["degenerate"] for r in fast)
    assert_same_records(fast, ref, rel=1e-12)


#: name -> (config overrides, replicate seeds); each runs the LP on columns
COLUMN_PATH_CASES = {
    "mr-defaults": (dict(model="MR"), range(200)),
    "mr-sigma1": (dict(model="MR", sigma=1.0), range(20)),
    "mr-d128-n400": (dict(model="MR", d=128, n=400), range(10)),
    "mr-golden-small": (dict(model="MR", d=24, n=80, s_star=3, alpha_index=5), range(7, 47)),
    "mr-lam0.05": (dict(model="MR", lam=0.05), range(10)),
    "gmm-n20-sigma20": (dict(model="GMM", n=20, sigma=20.0), range(20)),
    "gmm-lam-below-cross": (dict(model="GMM", d=24, n=80, s_star=3, alpha_index=5,
                                 lam=0.0), range(7, 17)),
}


@pytest.mark.parametrize("case", COLUMN_PATH_CASES)
def test_column_path_matches_full_matrix(monkeypatch, case):
    overrides, seeds = COLUMN_PATH_CASES[case]
    cfg = ExperimentConfig(**overrides).resolve()
    lps = []
    monkeypatch.setattr(inference, "dantzig_columns",
                        lambda *args: lps.append(args[1]) or lp.dantzig_columns(*args))
    counts = count_curvature_matrices(monkeypatch)
    fast = [infer_replicate(cfg, seed) for seed in seeds]
    assert lps and not counts
    monkeypatch.setattr(inference, "_decorrelate", decorrelate_full_matrix)
    assert_same_records(fast, [infer_replicate(cfg, seed) for seed in seeds], rel=1e-12)


@st.composite
def mixtures_at_a_point(draw):
    """A small mixture model, an evaluation point and a tested index."""
    d, n = draw(st.integers(2, 7)), draw(st.integers(1, 10))
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)
    data = np.array(draw(st.lists(entries, min_size=n * d, max_size=n * d))).reshape(n, d)
    beta = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    sigma = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    if draw(st.booleans()):
        model = GaussianMixture(data, sigma)
    else:
        y = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
        model = MixtureRegression(data, y, sigma)
    return model, beta, draw(st.integers(0, d - 1))


def assert_max_rule_exact(model, beta, alpha):
    """The max rule on the columns against the LP's ``max |T_gg|`` and
    ``default_lambda`` on the whole matrix, to 1e-13 of the larger of
    max|T| and the radii, which bound the rounding of every entry of T."""
    t_mat = model.curvature_matrix(beta)
    cols = inference._Columns(model, beta)
    diag, radii = model.curvature_diagonal(beta)
    scale = 1e-13 * max(np.max(np.abs(t_mat)), np.max(radii))
    a_max = inference._abs_peak(cols, diag, radii, alpha)
    assert abs(a_max - lp._abs_max(t_mat, alpha)) <= scale
    # _decorrelate takes lam from a_max and column alpha
    peak = max(a_max, np.max(np.abs(cols[alpha])))
    assert abs(inference._scaled_lambda(peak, model.dim, model.n_samples)
               - default_lambda(t_mat, model.n_samples)) <= (
        inference._scaled_lambda(scale, model.dim, model.n_samples))


@settings(max_examples=200, deadline=None)
@given(mixtures_at_a_point())
def test_max_rule_matches_the_whole_matrix(drawn):
    assert_max_rule_exact(*drawn)


@pytest.mark.parametrize("kind", ["GMM", "MR"])
def test_max_rule_finds_an_off_diagonal_max(kind):
    # the largest entry is T_12, in T_gg for alpha = 0 and above every
    # diagonal entry, so only the columns the radii select can find it
    beta = np.zeros(3)  # nu = 1 / sigma^2 for every sample
    if kind == "GMM":  # T = y y^T - I
        model = GaussianMixture(np.array([[0.0, 1.2, 1.2]]), 1.0)
    else:  # T = (x_1 x_1^T - x_2 x_2^T) / 2, as nu y_1^2 = 2 and y_2 = 0
        model = MixtureRegression(np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0]]),
                                  np.array([math.sqrt(2.0), 0.0]), 1.0)
    t_mat = model.curvature_matrix(beta)
    assert np.max(np.abs(np.diag(t_mat))) < 0.7 * abs(t_mat[1, 2])
    assert_max_rule_exact(model, beta, 0)
    cols = inference._Columns(model, beta)
    a_max = inference._abs_peak(cols, *model.curvature_diagonal(beta), 0)
    assert a_max == pytest.approx(abs(t_mat[1, 2]), rel=1e-15)


@pytest.mark.parametrize("model_name", ["GMM", "MR"])
@pytest.mark.parametrize("sigma", [None, 1.0])
def test_lazy_columns_are_symmetric(model_name, sigma):
    cfg = ExperimentConfig(model=model_name, sigma=sigma).resolve()
    for seed in range(3):
        model, trace, _ = fit_replicate(cfg, seed)
        cols = inference._Columns(model, trace.estimate)
        t_cols = np.array([cols[i] for i in range(model.dim)])
        assert np.max(np.abs(t_cols - t_cols.T)) <= 1e-15 * np.max(np.abs(t_cols))


@pytest.mark.parametrize("factor, matrices", [(1.0, 1), (1.0 + 1e-8, 0)])
def test_certificate_margin_at_the_cross_column(rng, monkeypatch, factor, matrices):
    # lam equal to max|T_ga| is within the margin: the LP path runs (its
    # diagonal counted here), and its own shortcut still gives w = 0; 1e-8
    # above it, the column certifies w = 0 alone; no path builds the matrix
    model, beta = gmm_instance(rng)
    lam = float(np.max(np.abs(np.delete(model.curvature_column(beta, 4), 4)))) * factor
    cfg = InferenceConfig(alpha_index=4, lam=lam)
    counts = count_curvature_matrices(monkeypatch)
    diagonal = GaussianMixture.curvature_diagonal
    monkeypatch.setattr(GaussianMixture, "curvature_diagonal",
                        lambda self, b: counts.update(["diagonal"]) or diagonal(self, b))
    res = score_test(model, beta, cfg)
    assert counts == Counter(diagonal=matrices)
    assert not res.w_hat.any()
    monkeypatch.setattr(inference, "_decorrelate", decorrelate_full_matrix)
    ref = score_test(GaussianMixture(model.y, model.sigma), beta, cfg)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-12, abs=0.0)
    assert res.info_scalar == pytest.approx(ref.info_scalar, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("poisoned_index", ["alpha", "basis"])
def test_nonfinite_curvature_column_raises(monkeypatch, poisoned_index):
    # a NaN in column alpha never certifies w = 0, and a NaN in a column
    # the LP reads never reaches it: both raise, as a NaN matrix does
    cfg = ExperimentConfig(model="MR").resolve()
    model, trace, _ = fit_replicate(cfg, 0)
    column, read = MixtureRegression.curvature_column, []

    def poisoned(self, beta, alpha):
        col = column(self, beta, alpha)
        read.append(alpha)
        if (alpha == cfg.alpha_index) == (poisoned_index == "alpha"):
            col[0] = np.nan
        return col

    monkeypatch.setattr(MixtureRegression, "curvature_column", poisoned)
    with pytest.raises(ValueError, match="curvature column must be finite"):
        score_test(model, trace.estimate, InferenceConfig(alpha_index=cfg.alpha_index))
    assert len(read) == (1 if poisoned_index == "alpha" else 2)
