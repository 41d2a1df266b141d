import math

import numpy as np
import pytest

from conftest import count_m_steps, random_gmm, random_mr, random_rmc
from oracles import full_em_trace
from truncem import harness
from truncem.datagen import make_beta_star
from truncem.em import EmConfig, EmTrace, run_em
from truncem.errors import UnsupportedOperationError
from truncem.harness import ExperimentConfig
from truncem.models import GaussianMixture, MissingCovariateRegression, MixtureRegression
from truncem.sparsity import hard_truncate, top_support


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(s_hat=0, n_iter=1)
    with pytest.raises(ValueError):
        EmConfig(s_hat=1, n_iter=-1)
    with pytest.raises(ValueError):
        EmConfig(s_hat=1, n_iter=1, m_step="newton")
    with pytest.raises(ValueError):
        EmConfig(s_hat=1, n_iter=1, m_step="gradient", eta=-1.0)
    for eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            EmConfig(s_hat=1, n_iter=1, m_step="gradient", eta=eta)


def test_zero_iterations_returns_truncated_init(rng):
    model = random_gmm(rng)
    init = rng.standard_normal(model.dim)
    trace = run_em(model, init, EmConfig(s_hat=2, n_iter=0))
    assert len(trace.iterates) == 1
    expect = hard_truncate(init, top_support(init, 2))
    assert np.array_equal(trace.iterates[0], expect)
    assert np.array_equal(trace.estimate, expect)
    assert np.isfinite([model.loglik(b) for b in trace.iterates]).all()
    assert trace.supports == []


def test_iterates_are_sparse_and_supports_consistent(rng):
    model = random_gmm(rng, n=30, d=8)
    init = rng.standard_normal(8)
    cfg = EmConfig(s_hat=3, n_iter=6)
    trace = run_em(model, init, cfg)
    assert len(trace.iterates) == 7
    for beta in trace.iterates:
        assert np.count_nonzero(beta) <= 3
    for beta, support, nxt in zip(trace.iterates, trace.supports, trace.iterates[1:]):
        half = model.m_step_exact(beta)
        assert np.array_equal(support, top_support(half, 3))
        assert np.array_equal(nxt, hard_truncate(half, support))


def test_determinism_bit_identical(rng):
    model = random_gmm(rng, n=25, d=6)
    init = rng.standard_normal(6)
    cfg = EmConfig(s_hat=2, n_iter=5)
    t1 = run_em(model, init, cfg)
    t2 = run_em(model, init, cfg)
    for a, b in zip(t1.iterates, t2.iterates):
        assert np.array_equal(a, b)
    assert [model.loglik(b) for b in t1.iterates] == [
        model.loglik(b) for b in t2.iterates
    ]


def test_full_support_exact_em_ascends(rng):
    for _ in range(20):
        model = random_gmm(rng, n=15, d=4)
        init = rng.standard_normal(4)
        trace = run_em(model, init, EmConfig(s_hat=4, n_iter=20))
        diffs = np.diff([model.loglik(b) for b in trace.iterates])
        assert np.all(diffs >= -1e-9)


def test_exact_m_step_rejected_for_rmc(rng):
    model = random_rmc(rng)
    with pytest.raises(UnsupportedOperationError):
        run_em(model, np.ones(model.dim), EmConfig(s_hat=2, n_iter=1))


def test_init_shape_and_s_hat_checked(rng):
    model = random_gmm(rng, d=4)
    with pytest.raises(ValueError):
        run_em(model, np.ones(5), EmConfig(s_hat=2, n_iter=1))
    with pytest.raises(ValueError):
        run_em(model, np.ones(4), EmConfig(s_hat=5, n_iter=1))


@pytest.mark.parametrize("resample", [False, True])
def test_run_em_evaluates_no_loglik(rng, resample):
    # neither the estimate nor the decorrelated tests read the log
    # likelihood, so the loop must not pay for it
    for make, m_step in (
        (random_gmm, "exact"),
        (random_mr, "gradient"),
        (random_rmc, "gradient"),
    ):
        model = make(rng, n=30, d=6)
        calls = []

        def counting_loglik(beta, loglik=model.loglik):
            calls.append(beta)
            return loglik(beta)

        model.loglik = counting_loglik
        cfg = EmConfig(s_hat=2, n_iter=10, m_step=m_step, resample=resample)
        trace = run_em(model, rng.standard_normal(6), cfg)
        assert len(trace.iterates) == 11
        assert calls == []


def test_oracle_recovery_tiny_noise(rng):
    d, n, sigma = 10, 50, 1e-6
    beta_star = np.zeros(d)
    beta_star[:2] = [1.5, -2.0]
    signs = rng.choice([-1.0, 1.0], n)
    y = signs[:, None] * beta_star + sigma * rng.standard_normal((n, d))
    model = GaussianMixture(y, sigma)
    init = beta_star + 0.1 * rng.standard_normal(d)
    trace = run_em(model, init, EmConfig(s_hat=2, n_iter=1))
    beta1 = trace.iterates[1]
    if beta1 @ beta_star < 0:
        beta1 = -beta1
    assert np.linalg.norm(beta1 - beta_star) <= 1e-3


# ---------------------------------------------------------------------------
# resampled mode


def test_resampled_block_rule(rng):
    # n=10, T=3: blocks {0..2}, {3..5}, {6..8}; sample 9 unused
    model = random_gmm(rng, n=10, d=4)
    seen = []
    original_subset = model.subset

    def spying_subset(indices):
        seen.append(np.asarray(indices))
        return original_subset(indices)

    model.subset = spying_subset
    cfg = EmConfig(s_hat=2, n_iter=3, resample=True)
    run_em(model, rng.standard_normal(4), cfg)
    assert [s.tolist() for s in seen] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_resampled_single_block_matches_plain(rng):
    model = random_gmm(rng, n=12, d=5)
    init = rng.standard_normal(5)
    plain = run_em(model, init, EmConfig(s_hat=2, n_iter=1))
    res = run_em(
        model, init, EmConfig(s_hat=2, n_iter=1, resample=True)
    )
    for a, b in zip(plain.iterates, res.iterates):
        assert np.array_equal(a, b)


def test_resampled_too_many_blocks(rng):
    model = random_gmm(rng, n=3, d=4)
    cfg = EmConfig(s_hat=2, n_iter=5, resample=True)
    with pytest.raises(ValueError):
        run_em(model, np.ones(4), cfg)


def test_resampled_error_matches_plain_at_block_size(rng):
    # the resampled loop's final M-step sees one block of n/T samples, so
    # its error is comparable to a plain run on a block-sized dataset
    d, n, n_iter, s = 20, 1000, 5, 3
    block = n // n_iter
    beta_star = np.zeros(d)
    beta_star[:s] = [4.0, 4.0, 6.0]

    def err(beta):
        return min(
            np.linalg.norm(beta - beta_star), np.linalg.norm(beta + beta_star)
        )

    errs_res, errs_block = [], []
    for _ in range(10):
        signs = rng.choice([-1.0, 1.0], n)
        y = signs[:, None] * beta_star + rng.standard_normal((n, d))
        model = GaussianMixture(y, 1.0)
        init = beta_star + 0.125 * np.linalg.norm(
            beta_star
        ) * rng.standard_normal(d) / np.sqrt(d)
        res = run_em(
            model, init, EmConfig(s_hat=s, n_iter=n_iter, resample=True)
        )
        small = run_em(
            model.subset(np.arange(block)),
            init,
            EmConfig(s_hat=s, n_iter=n_iter),
        )
        errs_res.append(err(res.estimate))
        errs_block.append(err(small.estimate))
    rms_res = float(np.sqrt(np.mean(np.square(errs_res))))
    rms_block = float(np.sqrt(np.mean(np.square(errs_block))))
    assert rms_res <= 2.0 * rms_block


def test_trace_estimate_property():
    trace = EmTrace(iterates=[np.zeros(2), np.ones(2)])
    assert np.array_equal(trace.estimate, np.ones(2))


# ---------------------------------------------------------------------------
# the exit at an exact fixed point

MODEL_CLASSES = {"GMM": GaussianMixture, "MR": MixtureRegression,
                 "RMC": MissingCovariateRegression}


def assert_same_bytes(trace, full):
    """Iterate for iterate and support for support, equal bytes, dtype and
    shape (``np.array_equal`` would call -0.0 equal to 0.0)."""
    assert len(trace.iterates) == len(full.iterates)
    assert len(trace.supports) == len(full.supports)
    for a, b in zip(trace.iterates + trace.supports, full.iterates + full.supports):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def m_steps_run(trace):
    """M-steps ``run_em`` ran: each makes one new iterate, and the exit
    fills the trace with the last one."""
    return len({id(beta) for beta in trace.iterates}) - 1


@pytest.mark.parametrize("settings, seeds, stops_early", [
    # the CLI defaults stop at t = 2 on every seed; sigma = 3 at t = 4-9
    pytest.param(dict(model="GMM"), range(50), True, id="gmm-defaults"),
    pytest.param(dict(model="GMM", sigma=3.0), range(10), True, id="gmm-sigma-3"),
    pytest.param(dict(model="MR", d=64, m_step="exact"), range(10), True,
                 id="mr-exact-d64"),
    pytest.param(dict(model="MR"), range(5), False, id="mr-gradient"),
    pytest.param(dict(model="RMC"), range(5), False, id="rmc-gradient"),
    pytest.param(dict(model="GMM", resample=True), range(5), False, id="gmm-resample"),
])
def test_fixed_point_exit_matches_the_full_loop(monkeypatch, settings, seeds, stops_early):
    runs = []

    def recorded(model, init, cfg):
        runs.append((model, init, cfg))
        return run_em(model, init, cfg)

    monkeypatch.setattr(harness, "run_em", recorded)
    cfg = ExperimentConfig(**settings).resolve()
    steps = []
    for seed in seeds:
        _, trace, _ = harness.fit_replicate(cfg, seed)
        assert_same_bytes(trace, full_em_trace(*runs.pop()))
        steps.append(m_steps_run(trace))
    if stops_early:
        assert min(steps) < cfg.n_iter
    else:
        assert steps == [cfg.n_iter] * len(seeds)


@pytest.mark.parametrize("settings, calls", [
    pytest.param(dict(model="GMM"), ["m_step_exact"] * 2, id="gmm-defaults"),
    pytest.param(dict(model="MR"), ["m_step_gradient"] * 10, id="mr-gradient"),
    pytest.param(dict(model="GMM", resample=True), ["m_step_exact"] * 10,
                 id="gmm-resample"),
])
def test_m_steps_run_until_a_fixed_point(monkeypatch, settings, calls):
    cfg = ExperimentConfig(**settings).resolve()
    counted = count_m_steps(monkeypatch, MODEL_CLASSES[cfg.model])
    _, trace, _ = harness.fit_replicate(cfg, 0)
    assert counted == calls
    assert m_steps_run(trace) == len(calls)
    assert len(trace.iterates) == cfg.n_iter + 1 and len(trace.supports) == cfg.n_iter


class NegatesOneEntry:
    """A deterministic M-step that flips the sign of entry 1, which the
    support keeps: from (1, 0, 0) the iterates alternate between +0.0 and
    -0.0 there, which ``np.array_equal`` calls equal."""

    dim = 3

    def __init__(self):
        self.calls = 0

    def m_step_exact(self, beta):
        self.calls += 1
        return np.array([1.0, -beta[1], 0.0])


def test_signed_zero_is_not_a_fixed_point():
    model, init, cfg = NegatesOneEntry(), np.array([1.0, 0.0, 0.0]), EmConfig(s_hat=2, n_iter=6)
    trace = run_em(model, init, cfg)
    assert model.calls == cfg.n_iter
    assert [math.copysign(1.0, beta[1]) for beta in trace.iterates] == [1.0, -1.0] * 3 + [1.0]
    assert_same_bytes(trace, full_em_trace(NegatesOneEntry(), init, cfg))


def test_trace_evaluates_loglik_once_per_distinct_iterate(monkeypatch):
    # the GMM defaults stop at t = 2, so the fill repeats the third iterate
    runs, evaluated = [], []
    loglik = GaussianMixture.loglik

    def recorded(model, init, cfg):
        runs.append((model, init, cfg))
        return run_em(model, init, cfg)

    def counted(self, beta):
        evaluated.append(beta)
        return loglik(self, beta)

    monkeypatch.setattr(harness, "run_em", recorded)
    monkeypatch.setattr(GaussianMixture, "loglik", counted)
    cfg = ExperimentConfig(model="GMM", seed=0)
    rows = harness.run_trace(cfg)
    assert len(evaluated) == 3 and len(rows) == cfg.n_iter + 1
    model, init, em_cfg = runs.pop()
    full = full_em_trace(model, init, em_cfg)
    beta_star = make_beta_star(cfg.d, cfg.beta_values)
    assert rows == [{"t": t,
                     "opt_error": float(np.linalg.norm(beta - full.estimate)),
                     "est_error": harness.sign_aligned_error(beta, beta_star, cfg.model),
                     "loglik": loglik(model, beta)}
                    for t, beta in enumerate(full.iterates)]


class BlockRows:
    """Samples whose M-step ignores beta and returns their mean row."""

    def __init__(self, rows):
        self.rows = rows
        self.dim, self.n_samples = rows.shape[1], rows.shape[0]

    def subset(self, indices):
        return BlockRows(self.rows[indices])

    def m_step_exact(self, beta):
        return self.rows.mean(axis=0)


def test_resampled_em_runs_past_a_repeated_iterate():
    # blocks 0 and 1 give the same iterate and block 2 another: a repeat
    # under resampling is no fixed point, since each step reads a new block
    model = BlockRows(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    init = np.array([0.0, 1.0])
    cfg = EmConfig(s_hat=1, n_iter=3, resample=True)
    trace = run_em(model, init, cfg)
    assert trace.iterates[1].tobytes() == trace.iterates[2].tobytes()
    assert trace.estimate.tolist() == [0.0, 2.0]
    assert_same_bytes(trace, full_em_trace(model, init, cfg))
