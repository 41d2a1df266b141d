"""Peak memory of the replicate path, in units of one d x d float64 array
at the model defaults (d = 256, n = 100), or of one (n, d) array for data
generation and the RMC E-step.

The bounds are the measured peaks of the current code plus a small margin,
far less than one d x d array, so that a reintroduced d x d temporary (the
curvature matrix on the inference path, an ``np.abs`` copy of T, a second
product in the curvature matrix, a copy of T for its symmetrization, a
copy of T_gg for the LP) fails here.  Measured for MR: ``curvature_matrix``
1.03 (T itself, which BLAS fills in place, and the rows of the few lifted
samples) and ``default_lambda`` 0.00, both off the replicate path now, and
``infer_replicate`` 0.98 (the data, 0.39, the homotopy's basis buffers,
0.38 while its rows of A[S, :] and A[:, J] double from 16 to 32, and the
few dozen curvature columns the LP reads; no d x d array).  A GMM
replicate at the defaults certifies w = 0 from one curvature column: its
score and Wald tests peak at 0.03, its ``fit_replicate`` at 0.50 and its
``infer_replicate`` at 0.52 (the data, 0.39, plus vectors).  Neither
calls ``curvature_matrix``.  GMM ``gen_dataset`` builds the data inside
the noise draw's own array: 1.14 (n, d) arrays at (n, d) = (100, 256) and
1.17 at (800, 128).  The RMC ``grad_q`` at its defaults (d = 256, n =
100) peaks at 0.06 of one (n, d) float64 array.
"""

import tracemalloc

import pytest

from truncem.datagen import GenSpec, gen_dataset, make_beta_star
from truncem.harness import ExperimentConfig, fit_replicate, infer_replicate
from truncem.inference import InferenceConfig, default_lambda, score_test, wald_test
from truncem.models import GaussianMixture, MixtureRegression


def peak_in_d2(fn, d):
    fn()  # warm up lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8.0 * d * d)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mr_fit():
    cfg = ExperimentConfig(model="MR").resolve()
    model, trace, _ = fit_replicate(cfg, 0)
    return cfg, model, trace.estimate


@pytest.mark.parametrize("name, bound", [
    ("curvature_matrix", 1.10),
    ("default_lambda", 0.05),
    ("infer_replicate", 1.08),
])
def test_mr_decorrelation_peak_memory(mr_fit, name, bound):
    cfg, model, beta = mr_fit
    t_mat = model.curvature_matrix(beta)
    fn = {
        "curvature_matrix": lambda: model.curvature_matrix(beta),
        "default_lambda": lambda: default_lambda(t_mat, model.n_samples),
        "infer_replicate": lambda: infer_replicate(cfg, 0),
    }[name]
    assert peak_in_d2(fn, model.dim) <= bound


def test_gmm_inference_allocates_no_d_by_d_array():
    # a d x d curvature matrix alone would reach 1.0 in the tests and
    # lift infer_replicate above fit_replicate
    cfg = ExperimentConfig(model="GMM").resolve()
    model, trace, _ = fit_replicate(cfg, 0)
    icfg = InferenceConfig(alpha_index=cfg.alpha_index)

    def tests():
        fresh = GaussianMixture(model.y, model.sigma)  # no memoized decorrelation
        score_test(fresh, trace.estimate, icfg)
        wald_test(fresh, trace.estimate, icfg)

    assert peak_in_d2(tests, model.dim) < 0.5
    fit = peak_in_d2(lambda: fit_replicate(cfg, 0), model.dim)
    assert fit <= 0.6
    assert peak_in_d2(lambda: infer_replicate(cfg, 0), model.dim) <= fit + 0.05


@pytest.mark.parametrize("model", ["GMM", "MR"])
def test_infer_replicate_builds_no_curvature_matrix(monkeypatch, model):
    # the LP reads curvature columns; the matrix stays off the replicate path
    def refuse(self, beta):
        raise AssertionError("curvature_matrix called")

    for cls in (GaussianMixture, MixtureRegression):
        monkeypatch.setattr(cls, "curvature_matrix", refuse)
    cfg = ExperimentConfig(model=model).resolve()
    for seed in range(3):
        assert infer_replicate(cfg, seed)["degenerate"] == 0


@pytest.mark.parametrize("n, d", [(100, 256), (800, 128)])
def test_gmm_gen_dataset_holds_one_n_by_d_array(n, d):
    # the signs and the support are added inside the noise draw's array; a
    # separate noise or scaled-noise array would reach 2.0 here
    spec = GenSpec("GMM", n, d, make_beta_star(d, (4, 4, 4, 6, 6)), 1.0, seed=0)
    assert peak_in_d2(lambda: gen_dataset(spec), d) * d / n <= 1.25


def test_rmc_grad_q_allocates_no_n_by_d_array():
    # the E-step works on n-vectors over the cached observed design; a
    # single (n, d) temporary (such as mask * x) would reach 1.0 here
    cfg = ExperimentConfig(model="RMC").resolve()
    model, trace, _ = fit_replicate(cfg, 0)
    beta = trace.estimate
    peak = peak_in_d2(lambda: model.grad_q(beta), model.dim)
    assert peak * model.dim / model.n_samples < 0.5  # in (n, d) arrays
