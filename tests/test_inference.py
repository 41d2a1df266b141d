import dataclasses
import gc
import math
import weakref
from collections import Counter
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from conftest import count_m_steps, random_gmm
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    decorrelate_full_matrix,
    default_lambda,
    full_l1_linf_lp,
    gmm_curvature_symmetrized,
    mr_curvature_two_products,
)
from truncem import inference, lp, models
from truncem.errors import DegenerateInformationError
from truncem.harness import ExperimentConfig, fit_replicate, infer_replicate
from truncem.inference import InferenceConfig, InferenceResult, score_test, wald_test
from truncem.models import GaussianMixture, MixtureRegression


# ---------------------------------------------------------------------------
# p-values and critical values of the standard normal


def two_sided(statistic, delta=0.05):
    """The result of ``statistic`` at ``n * info = 1``, centred at 0, so
    the interval's upper end is the critical value."""
    cfg = InferenceConfig(alpha_index=0, delta=delta)
    return inference._result(SimpleNamespace(n_samples=1), statistic, 0.0, None, 1.0, cfg)


def test_cdf_basics():
    assert two_sided(0.0).p_value == 1.0
    assert two_sided(1.0).p_value == pytest.approx(2.0 * ndtr(-1.0), rel=1e-14)
    # 2 (1 - Phi(9)) would cancel to 0
    assert two_sided(9.0).p_value == pytest.approx(2.0 * ndtr(-9.0), rel=1e-12)


def test_cdf_symmetry(rng):
    for x in rng.standard_normal(20) * 3:
        assert two_sided(-x).p_value == two_sided(x).p_value
        assert two_sided(x).p_value == pytest.approx(2.0 * ndtr(-abs(x)), rel=1e-12)


def test_quantile_value():
    assert two_sided(0.0).ci_hi == pytest.approx(1.9599640, abs=1e-6)


def test_quantile_inverts_cdf(rng):
    # at the critical value the p-value is delta, and the test does not
    # reject; one ulp above it, it does.  The value is the stdlib quantile
    # bit for bit, and scipy's to rel 2e-15 (1.02e-15 over 1e5 deltas)
    for delta in rng.uniform(0.002, 0.998, size=30):
        crit = two_sided(0.0, delta).ci_hi
        assert crit == NormalDist().inv_cdf(1.0 - delta / 2.0)
        assert crit == pytest.approx(ndtri(1.0 - delta / 2.0), rel=2e-15, abs=0.0)
        assert two_sided(crit, delta).p_value == pytest.approx(delta, abs=1e-7)
        assert not two_sided(crit, delta).reject
        assert two_sided(np.nextafter(crit, np.inf), delta).reject


def test_quantile_domain():
    for delta in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="delta must lie in"):
            InferenceConfig(alpha_index=0, delta=delta)


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


def score_function(model, beta, w, cfg):
    """The decorrelated score at ``beta``, from the model's gradient."""
    return inference._score(model.grad_q(beta), w, cfg.alpha_index)


def wald_estimator(model, beta_hat, cfg):
    """The one-step corrected estimate of the tested coordinate, from the
    decorrelation at ``beta_hat``."""
    col, w, _, grad = inference._decorrelate(model, beta_hat, cfg)
    a = cfg.alpha_index
    return beta_hat[a] - inference._score(grad, w, a) / (col[a] - w @ np.delete(col, a))


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
        2.0 * (1.0 - ndtr(abs(res.statistic))), abs=1e-12
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
    width = 2.0 * ndtri(0.95) / math.sqrt(
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
    # each decorrelation reads its point's gradient and curvature weights
    # from one hook call, never from grad_q, and any column at most once;
    # the Wald test reuses the score test's whole result when point, alpha
    # and lam agree.  The diagonal and the LP run only where column alpha
    # does not certify w = 0, here only with lam below T_ga, and the
    # matrix never
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
            if name == "_column":  # keyed by the point's weights
                columns[args[1].tobytes(), int(args[2])] += 1
            return fn(*args)
        return wrapper

    for name in ("_grad_and_curvature_weights", "_column", "_diagonal",
                 "curvature_matrix", "grad_q"):
        monkeypatch.setattr(GaussianMixture, name,
                            counted(name, getattr(GaussianMixture, name)))
    monkeypatch.setattr(inference, "dantzig_columns",
                        counted("dantzig_columns", inference.dantzig_columns))
    sres = score_test(model, beta_hat, score_cfg)
    score_columns, columns = columns, Counter()
    wres = wald_test(model, beta_hat, wald_cfg)
    points = 2 if change == "estimate_off_null" else 1
    full = solves if change == "lam_below_cross" else 0
    del counts["_column"]
    assert counts == Counter(_grad_and_curvature_weights=solves, grad_q=0,
                             _diagonal=full, dantzig_columns=full)
    assert max(score_columns.values()) == 1
    assert max(columns.values(), default=1) == 1
    assert bool(columns) == (solves == 2)
    assert len({point for point, _ in score_columns + columns}) == points
    assert score_cfg.alpha_index in {i for _, i in score_columns}
    assert wald_cfg.alpha_index in {i for _, i in score_columns + columns}
    assert (sres.w_hat is wres.w_hat) == (solves == 1)
    assert not sres.w_hat.flags.writeable
    assert not wres.w_hat.flags.writeable
    assert_same_result(sres, score_test(GaussianMixture(model.y, model.sigma), beta_hat, score_cfg))
    assert_same_result(wres, wald_test(GaussianMixture(model.y, model.sigma), beta_hat, wald_cfg))


@pytest.mark.parametrize("model_name", ["GMM", "MR"])
def test_replicate_evaluates_the_posterior_once_per_point(monkeypatch, model_name):
    # one sigmoid per M-step run and one at the tested point, which gives
    # the score test both its gradient and its curvature weights (and, for
    # MR, computes x @ beta once); the Wald test reuses that point.  The
    # GMM's exact M-step reaches a fixed point after 2 of its 10 iterations
    # on seed 0; MR's gradient M-step runs all 10
    calls = []

    def counted(x, sigmoid=models._sigmoid):
        calls.append(x.shape)
        return sigmoid(x)

    monkeypatch.setattr(models, "_sigmoid", counted)
    m_steps = count_m_steps(monkeypatch, {"GMM": GaussianMixture,
                                          "MR": MixtureRegression}[model_name])
    cfg = ExperimentConfig(model=model_name).resolve("typeone")
    assert infer_replicate(cfg, 0)["degenerate"] == 0
    assert len(calls) == len(m_steps) + 1 == {"GMM": 3, "MR": cfg.n_iter + 1}[model_name]
    assert set(calls) == {(cfg.n,)}  # each evaluates all n samples' weights


@pytest.mark.parametrize("kind", ["GMM", "GMM-LP", "MR"])
def test_point_keeps_no_model_alive(rng, kind):
    # the model keeps only the finished decorrelation, read-only arrays
    # that hold no model, so with the garbage collector off a model that
    # ran both tests, by the column certificate or by the LP, is freed by
    # del alone
    if kind == "MR":
        cfg = ExperimentConfig(model=kind).resolve()
        model, trace, _ = fit_replicate(cfg, 0)
        beta, icfg = trace.estimate, InferenceConfig(alpha_index=cfg.alpha_index)
    else:  # lam below T_ga sends the mixture to the LP
        model, beta = gmm_instance(rng)
        icfg = InferenceConfig(alpha_index=4, lam=1e-9 if kind == "GMM-LP" else None)
    before = set(vars(model))
    gc.disable()
    try:
        score_test(model, beta, icfg)
        wald_test(model, beta, icfg)
        assert set(vars(model)) - before == {"_decorrelated"}
        col, w, _, grad = model._decorrelated[1]
        assert w.any() == (kind != "GMM")
        assert not any(a.flags.writeable for a in (col, w, grad))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


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


def test_statistics_match_two_product_curvature(monkeypatch):
    # curvature_matrix stacks the columns the fast path reads, so the
    # whole-matrix reference here reads a matrix built apart from them: the
    # two-product forms, which sum in yet another order; the statistics must
    # agree to rel 1e-12, on MR and on the GMM cases that take the LP
    runs = [(dict(model="MR"), range(20)), COLUMN_PATH_CASES["gmm-lam-below-cross"],
            COLUMN_PATH_CASES["gmm-n20-sigma20"]]
    runs = [(ExperimentConfig(**overrides).resolve(), seeds) for overrides, seeds in runs]
    fast = [infer_replicate(cfg, seed) for cfg, seeds in runs for seed in seeds]
    monkeypatch.setattr(MixtureRegression, "curvature_matrix", mr_curvature_two_products)
    monkeypatch.setattr(GaussianMixture, "curvature_matrix", gmm_curvature_symmetrized)
    monkeypatch.setattr(inference, "_decorrelate", decorrelate_full_matrix)
    ref = [infer_replicate(cfg, seed) for cfg, seeds in runs for seed in seeds]
    assert not any(r["degenerate"] for r in fast)
    assert_same_records(fast, ref, rel=1e-12)


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
    cols = inference._Point(model, beta)
    diag, radii = cols.diagonal
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
# nu y^2 near 1: T_22 and r_2 near 0.0012 against a column norm of 9
@example((MixtureRegression(np.array([[0.0, 0.0, 3.0]]), np.array([1.0]), 1.0),
          np.array([0.0, 0.0, 1.0 / 256]), 0))
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
    cols = inference._Point(model, beta)
    a_max = inference._abs_peak(cols, *cols.diagonal, 0)
    assert a_max == pytest.approx(abs(t_mat[1, 2]), rel=1e-15)


@pytest.mark.parametrize("model_name", ["GMM", "MR"])
@pytest.mark.parametrize("sigma", [None, 1.0])
def test_lazy_columns_are_symmetric(model_name, sigma):
    cfg = ExperimentConfig(model=model_name, sigma=sigma).resolve()
    for seed in range(3):
        model, trace, _ = fit_replicate(cfg, seed)
        cols = inference._Point(model, trace.estimate)
        t_cols = np.array([cols[i] for i in range(model.dim)])
        assert np.max(np.abs(t_cols - t_cols.T)) <= 1e-15 * np.max(np.abs(t_cols))


@pytest.mark.parametrize("below, diagonals", [(False, 0), (True, 1)],
                         ids=["at", "one_ulp_below"])
def test_certificate_margin_at_the_cross_column(rng, monkeypatch, below, diagonals):
    # lam equal to max|T_ga| certifies w = 0 from column alpha alone; one ulp
    # below it, the LP runs (its diagonal counted here) and w is not 0; no
    # path builds the matrix, and both give the full-matrix statistics
    model, beta = gmm_instance(rng)
    lam = float(np.max(np.abs(np.delete(inference._Point(model, beta)[4], 4))))
    if below:
        lam = float(np.nextafter(lam, 0.0))
    cfg = InferenceConfig(alpha_index=4, lam=lam)
    counts = count_curvature_matrices(monkeypatch)
    diagonal = GaussianMixture._diagonal
    monkeypatch.setattr(GaussianMixture, "_diagonal",
                        lambda self, nu: counts.update(["diagonal"]) or diagonal(self, nu))
    res = score_test(model, beta, cfg)
    assert counts == Counter(diagonal=diagonals)
    assert res.w_hat.any() == below
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
    column, read = MixtureRegression._column, []

    def poisoned(self, weights, alpha):
        col = column(self, weights, alpha)
        read.append(alpha)
        if (alpha == cfg.alpha_index) == (poisoned_index == "alpha"):
            col[0] = np.nan
        return col

    monkeypatch.setattr(MixtureRegression, "_column", poisoned)
    with pytest.raises(ValueError, match="curvature column must be finite"):
        score_test(model, trace.estimate, InferenceConfig(alpha_index=cfg.alpha_index))
    assert len(read) == (1 if poisoned_index == "alpha" else 2)
    # nothing of a decorrelation that raised is kept: a second test reads
    # the same columns again
    with pytest.raises(ValueError, match="curvature column must be finite"):
        wald_test(model, trace.estimate, InferenceConfig(alpha_index=cfg.alpha_index))
    assert read[len(read) // 2:] == read[: len(read) // 2]


def test_p_values_keep_their_tail():
    # 2(1 - Phi(|z|)) was exactly 0 for every |z| >= 8.3; at a support
    # coordinate both statistics here are about 30
    from scipy.special import ndtr

    cfg = ExperimentConfig(model="GMM", d=16, n=60, s_star=2, alpha_index=0).resolve()
    model, trace, _ = fit_replicate(cfg, 0)
    icfg = InferenceConfig(alpha_index=0)
    for res in (score_test(model, trace.estimate, icfg),
                wald_test(model, trace.estimate, icfg)):
        assert 8.3 < abs(res.statistic) < 35 and res.reject
        assert res.p_value > 0
        assert res.p_value == pytest.approx(2 * ndtr(-abs(res.statistic)), rel=1e-12)
