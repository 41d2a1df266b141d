"""Symmetries of the fit and the tests, on the whole generate -> fit -> test
pipeline.

Negating the responses and the initialization maps every model's EM path
to its mirror image, so the estimate is negated bit for bit; the mixtures'
statistics are then negated, their p-values and reject flags unchanged and
their intervals reflected.  Permuting the coordinates (data columns,
initialization and tested index) permutes the estimate; only the order of
the sums over coordinates changes, so statistics agree to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from truncem.datagen import GenSpec, gen_dataset, make_beta_star, make_init
from truncem.em import EmConfig, run_em
from truncem.errors import DegenerateInformationError
from truncem.harness import (
    DEFAULT_M_STEP,
    DEFAULT_REL_ERR,
    DEFAULT_SIGMA,
    default_beta_values,
    init_stream,
)
from truncem.inference import InferenceConfig, score_test, wald_test
from truncem.models import GaussianMixture, MissingCovariateRegression, MixtureRegression

N, S_STAR = 80, 3


@st.composite
def cases(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(8, 32))
    seed = draw(st.integers(0, 2**16))
    beta_star = make_beta_star(d, default_beta_values(S_STAR))
    model = gen_dataset(GenSpec(kind, N, d, beta_star, DEFAULT_SIGMA[kind],
                                p_missing=0.1 if kind == "RMC" else 0.0, seed=seed))
    init = make_init(beta_star, DEFAULT_REL_ERR[kind], init_stream(seed))
    # a null coordinate or one of the support
    alpha = draw(st.sampled_from([0, d - 1]))
    perm = np.array(draw(st.permutations(range(d))))
    return model, init, alpha, perm


def transformed(model, sign=1.0, perm=slice(None)):
    """The same data with responses times ``sign`` and columns in ``perm``
    order."""
    y = sign * model.y
    if model.tag == "GMM":
        return GaussianMixture(y[:, perm], model.sigma)
    if model.tag == "MR":
        return MixtureRegression(model.x[:, perm], y, model.sigma)
    return MissingCovariateRegression(model.x[:, perm], model.mask[:, perm], y, model.sigma)


def fit(model, init):
    cfg = EmConfig(s_hat=S_STAR, n_iter=10, m_step=DEFAULT_M_STEP[model.tag])
    return run_em(model, init, cfg).estimate


def run_tests(model, beta_hat, alpha):
    cfg = InferenceConfig(alpha_index=alpha)
    try:
        return score_test(model, beta_hat, cfg), wald_test(model, beta_hat, cfg)
    except DegenerateInformationError:
        return None


@settings(max_examples=12, deadline=None)
@given(cases(("GMM", "MR", "RMC")))
def test_negated_data_negates_the_fit_and_the_statistics(case):
    model, init, alpha, _ = case
    negated = transformed(model, sign=-1.0)
    beta_hat = fit(model, init)
    beta_neg = fit(negated, -init)
    assert np.array_equal(beta_neg, -beta_hat)
    if model.tag == "RMC":
        return
    got, want = run_tests(negated, beta_neg, alpha), run_tests(model, beta_hat, alpha)
    assert (got is None) == (want is None)
    for g, w in zip(got or (), want or ()):
        assert g.statistic == -w.statistic
        assert g.p_value == w.p_value
        assert g.reject == w.reject
        assert (g.ci_lo, g.ci_hi) == (-w.ci_hi, -w.ci_lo)


@settings(max_examples=12, deadline=None)
@given(cases(("GMM", "MR")))
def test_permuted_coordinates_permute_the_fit_and_keep_the_tests(case):
    model, init, alpha, perm = case
    beta_hat = fit(model, init)
    beta_perm = fit(transformed(model, perm=perm), init[perm])
    assert np.array_equal(beta_perm != 0, beta_hat[perm] != 0)
    np.testing.assert_allclose(beta_perm, beta_hat[perm], rtol=1e-9, atol=0)
    alpha_perm = int(np.flatnonzero(perm == alpha)[0])
    got = run_tests(transformed(model, perm=perm), beta_perm, alpha_perm)
    want = run_tests(model, beta_hat, alpha)
    assert (got is None) == (want is None)
    for g, w in zip(got or (), want or ()):
        assert g.reject == w.reject
        np.testing.assert_allclose(
            [g.statistic, g.p_value, g.ci_lo, g.ci_hi],
            [w.statistic, w.p_value, w.ci_lo, w.ci_hi], rtol=1e-9, atol=0)
