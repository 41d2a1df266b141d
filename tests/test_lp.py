import numpy as np
import pytest

from oracles import full_l1_linf_lp, l1_linf_oracle, lp_vertex_oracle
from truncem import lp
from truncem.datagen import GenSpec, gen_dataset, make_beta_star
from truncem.errors import LpInfeasibleError, LpUnboundedError
from truncem.harness import ExperimentConfig, fit_replicate
from truncem.inference import default_lambda
from truncem.lp import (
    FEAS_TOL,
    _l1_min_linf_residual,
    _solve_block,
    clime_inverse,
    dantzig_direction,
    solve_lp,
)


def dantzig_residual(t_mat, alpha_index, w):
    keep = np.delete(np.arange(t_mat.shape[0]), alpha_index)
    t_ga = t_mat[keep, alpha_index]
    t_gg = t_mat[np.ix_(keep, keep)]
    return float(np.max(np.abs(t_ga - t_gg @ w)))


def random_symmetric(rng, d, scale=1.0):
    a = scale * rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# solve_lp


def test_solve_lp_simple():
    sol = solve_lp([1.0, 1.0], [[-1.0, 0.0]], [-1.0])
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_infeasible():
    with pytest.raises(LpInfeasibleError):
        solve_lp([1.0], [[1.0]], [-1.0])


def test_solve_lp_unbounded():
    with pytest.raises(LpUnboundedError):
        solve_lp([-1.0], [[0.0]], [1.0])


def test_solve_lp_bad_shapes():
    with pytest.raises(ValueError):
        solve_lp([1.0, 1.0], [[1.0]], [1.0])


def test_solve_lp_matches_vertex_enumeration(rng):
    for _ in range(20):
        c = rng.standard_normal(3)
        a_ub = rng.standard_normal((4, 3))
        b_ub = rng.uniform(0.5, 2.0, size=4)
        # box rows keep the region bounded so the oracle applies
        a_ub = np.vstack([a_ub, np.eye(3)])
        b_ub = np.concatenate([b_ub, np.full(3, 10.0)])
        sol = solve_lp(c, a_ub, b_ub)
        x_ref, obj_ref = lp_vertex_oracle(c, a_ub, b_ub)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)
        assert np.all(a_ub @ sol.x <= b_ub + 1e-8)
        assert np.all(sol.x >= -1e-9)


# ---------------------------------------------------------------------------
# dantzig_direction


def test_dantzig_large_lambda_gives_zero(rng):
    t_mat = random_symmetric(rng, 5)
    keep = np.delete(np.arange(5), 2)
    lam = float(np.max(np.abs(t_mat[keep, 2]))) * 1.001
    w = dantzig_direction(t_mat, 2, lam)
    assert np.array_equal(w, np.zeros(4))


def counting_linprog(monkeypatch):
    """Route ``truncem.lp.linprog`` through a recorder of the shape of
    each call's ``A_ub``."""
    from truncem import lp

    calls = []
    solve = lp.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", counted)
    return calls


def test_dantzig_lambda_at_cross_column_norm_skips_lp(rng, monkeypatch):
    calls = counting_linprog(monkeypatch)
    t_mat = random_symmetric(rng, 5)
    lam = float(np.max(np.abs(np.delete(t_mat[:, 2], 2))))
    assert np.array_equal(dantzig_direction(t_mat, 2, lam), np.zeros(4))
    assert calls == []


def test_dantzig_lambda_just_below_cross_column_norm_solves(rng, monkeypatch):
    calls = counting_linprog(monkeypatch)
    t_mat = random_symmetric(rng, 5)
    keep = np.delete(np.arange(5), 2)
    lam = float(np.nextafter(np.max(np.abs(t_mat[keep, 2])), 0.0))
    w = dantzig_direction(t_mat, 2, lam)
    assert len(calls) >= 1
    ref = l1_linf_oracle(t_mat[np.ix_(keep, keep)], t_mat[keep, 2], lam)
    assert np.sum(np.abs(w)) == pytest.approx(ref[1], abs=1e-7)
    assert dantzig_residual(t_mat, 2, w) <= lam + 1e-8


def test_dantzig_d2_soft_threshold(rng):
    for _ in range(20):
        t10 = float(rng.standard_normal())
        t11 = float(rng.standard_normal())
        if abs(t11) < 0.1:
            continue
        lam = float(rng.uniform(0.0, 1.0))
        t_mat = np.array([[1.0, t10], [t10, t11]])
        w = dantzig_direction(t_mat, 0, lam)
        ratio = t10 / t11
        expect = np.sign(ratio) * max(0.0, (abs(t10) - lam) / abs(t11))
        assert w[0] == pytest.approx(expect, abs=1e-8)


def test_dantzig_matches_oracle(rng):
    for d in (2, 3, 4, 5):
        for _ in range(8):
            t_mat = random_symmetric(rng, d)
            alpha = int(rng.integers(d))
            w = dantzig_direction(t_mat, alpha, 0.1)
            keep = np.delete(np.arange(d), alpha)
            ref = l1_linf_oracle(t_mat[np.ix_(keep, keep)], t_mat[keep, alpha], 0.1)
            assert ref is not None
            assert np.sum(np.abs(w)) == pytest.approx(ref[1], abs=1e-7)
            assert dantzig_residual(t_mat, alpha, w) <= 0.1 + 1e-8


def test_dantzig_lambda_monotonicity(rng):
    t_mat = random_symmetric(rng, 4)
    lams = [0.01, 0.05, 0.1, 0.3, 1.0]
    norms = [np.sum(np.abs(dantzig_direction(t_mat, 1, lam))) for lam in lams]
    for small, large in zip(norms, norms[1:]):
        assert small >= large - 1e-8


def test_dantzig_local_l1_certificate(rng):
    # no small feasible perturbation of one coordinate shrinks the l1 norm
    t_mat = random_symmetric(rng, 4)
    lam = 0.1
    w = dantzig_direction(t_mat, 0, lam)
    base = np.sum(np.abs(w))
    for j in range(3):
        for step in (1e-4, -1e-4):
            cand = w.copy()
            cand[j] += step
            if dantzig_residual(t_mat, 0, cand) <= lam:
                assert np.sum(np.abs(cand)) >= base - 1e-9


def test_dantzig_invalid_arguments(rng):
    t_mat = random_symmetric(rng, 3)
    with pytest.raises(ValueError):
        dantzig_direction(t_mat, 3, 0.1)
    with pytest.raises(ValueError):
        dantzig_direction(t_mat, 0, -0.1)
    with pytest.raises(ValueError):
        # |t| > NaN is all False, which would pass for "w = 0 is optimal"
        dantzig_direction(t_mat, 0, np.nan)
    with pytest.raises(ValueError):
        dantzig_direction(np.ones((1, 1)), 0, 0.1)


# ---------------------------------------------------------------------------
# working set of rows and columns against the full LP


@pytest.mark.parametrize("kind", ["symmetric", "rank_deficient", "rounded"])
def test_working_set_matches_full_lp(rng, kind):
    feasible = 0
    for _ in range(40):
        d = int(rng.integers(2, 30))
        target = rng.standard_normal(d)
        lam = float(rng.uniform(0.05, 1.0))
        if kind == "symmetric":
            a_mat = random_symmetric(rng, d)
        elif kind == "rank_deficient":
            # n < d samples, split as in an MR decorrelation LP
            x = rng.standard_normal((int(rng.integers(1, d)), d + 1))
            t_mat = -x.T @ x / x.shape[0]
            a_mat, target = t_mat[1:, 1:], t_mat[1:, 0]
        else:
            # one decimal creates ties among |target_i|, lam and the duals
            a_mat = np.round(random_symmetric(rng, d), 1)
            target, lam = np.round(target, 1), round(lam, 1)
        try:
            ref = full_l1_linf_lp(a_mat, target, lam)
        except LpInfeasibleError:
            with pytest.raises(LpInfeasibleError):
                _l1_min_linf_residual(a_mat, target, lam)
            continue
        feasible += 1
        w = _l1_min_linf_residual(a_mat, target, lam)
        assert np.sum(np.abs(w)) == pytest.approx(np.sum(np.abs(ref)), abs=1e-9)
        assert np.max(np.abs(target - a_mat @ w)) <= lam + FEAS_TOL
    assert feasible >= 10


def test_working_set_matches_full_lp_on_mr_curvature():
    model, trace, _ = fit_replicate(ExperimentConfig(model="MR").resolve(), 0)
    beta = trace.estimate.copy()
    beta[9] = 0.0  # the score test's evaluation point
    t_mat = model.curvature_matrix(beta)
    lam = default_lambda(t_mat, model.n_samples)
    keep = np.delete(np.arange(model.dim), 9)
    ref = full_l1_linf_lp(t_mat[np.ix_(keep, keep)], t_mat[keep, 9], lam)
    assert np.count_nonzero(ref) > 0
    w = dantzig_direction(t_mat, 9, lam)
    assert np.max(np.abs(w - ref)) <= 1e-9


def test_working_set_widens_columns_when_start_block_is_singular(monkeypatch):
    calls = counting_linprog(monkeypatch)
    a_mat = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = np.array([1.0, 0.0, 0.0])
    w = _l1_min_linf_residual(a_mat, target, 0.5)
    # R = J = {0} with A[R, R] = 0 is infeasible; then J is every column
    assert calls == [(2, 6)]
    assert np.allclose(w, full_l1_linf_lp(a_mat, target, 0.5), atol=1e-12)
    assert np.sum(np.abs(w)) == pytest.approx(l1_linf_oracle(a_mat, target, 0.5)[1])


def test_working_set_finds_support_outside_start_rows(monkeypatch):
    calls = counting_linprog(monkeypatch)
    a_mat = np.array([[0.1, 1.0], [1.0, 1.0]])
    target = np.array([1.0, 0.0])
    w = _l1_min_linf_residual(a_mat, target, 0.1)
    # R = J = {0}; column 1 prices out, then w violates row 1
    assert calls == [(2, 4), (4, 4)]
    assert w[1] != 0.0
    assert np.allclose(w, full_l1_linf_lp(a_mat, target, 0.1), atol=1e-12)
    assert np.sum(np.abs(w)) == pytest.approx(l1_linf_oracle(a_mat, target, 0.1)[1])


def split_lp(block, t_r, lam):
    """The restricted LP of a working-set block, always through ``solve_lp``."""
    return solve_lp(
        np.ones(2 * block.shape[1]),
        np.block([[block, -block], [-block, block]]),
        np.concatenate([t_r + lam, lam - t_r]),
    )


def test_one_by_one_block_closed_form_matches_solve_lp(rng):
    for a_abs in np.logspace(-3, 3, 13):
        for a_sign in (1.0, -1.0):
            for t_sign in (1.0, -1.0):
                for lam in (0.0, *rng.uniform(0.0, 2.0, size=3)):
                    block = np.array([[a_sign * a_abs * rng.uniform(0.5, 2.0)]])
                    t_r = np.array([t_sign * (lam + rng.exponential())])
                    got = _solve_block(block, t_r, lam)
                    ref = split_lp(block, t_r, lam)
                    assert np.array_equal(got.x, ref.x)
                    assert got.objective == ref.objective
                    assert np.array_equal(got.duals, ref.duals)


def test_one_by_one_block_with_zero_diagonal_widens_as_before(monkeypatch):
    a_mat = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = np.array([1.0, 0.0, 0.0])
    with pytest.raises(LpInfeasibleError):
        _solve_block(a_mat[:1, :1], target[:1], 0.5)
    with pytest.raises(LpInfeasibleError):
        split_lp(a_mat[:1, :1], target[:1], 0.5)
    w = _l1_min_linf_residual(a_mat, target, 0.5)
    calls = counting_linprog(monkeypatch)
    monkeypatch.setattr(lp, "_solve_block", split_lp)
    assert np.array_equal(w, _l1_min_linf_residual(a_mat, target, 0.5))
    assert calls == [(2, 2), (2, 6)]


@pytest.mark.parametrize("d", [32, 64])
def test_clime_at_default_lambda_solves_no_lp(monkeypatch, d):
    cfg = ExperimentConfig(model="MR", d=d).resolve()
    model = gen_dataset(GenSpec("MR", n=cfg.n, d=d, beta_star=make_beta_star(d, cfg.beta_values),
                                sigma=cfg.sigma, seed=0))
    sigma_hat = model.design_covariance()
    calls = counting_linprog(monkeypatch)
    theta = clime_inverse(sigma_hat, model.clime_lambda)
    assert calls == []
    monkeypatch.setattr(lp, "_solve_block", split_lp)
    assert np.array_equal(theta, clime_inverse(sigma_hat, model.clime_lambda))
    assert calls == [(2, 2)] * d


def test_working_set_rejects_nonfinite_data_outside_start_block():
    a_mat = np.eye(3)
    a_mat[2, 1] = np.nan
    with pytest.raises(ValueError):
        _l1_min_linf_residual(a_mat, np.array([1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        _l1_min_linf_residual(np.eye(3), np.array([1.0, np.nan, 0.0]), 0.5)


# ---------------------------------------------------------------------------
# clime_inverse


def test_clime_identity_shrinks_diagonal():
    theta = clime_inverse(np.eye(4), 0.2)
    assert np.allclose(theta, 0.8 * np.eye(4), atol=1e-8)


def test_clime_identity_large_lambda_zero():
    assert np.allclose(clime_inverse(np.eye(3), 1.0), 0.0, atol=1e-9)


def test_clime_lambda_at_least_one_skips_lp(rng, monkeypatch):
    calls = counting_linprog(monkeypatch)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T / 4 + 0.5 * np.eye(4)
    for lam in (1.0, 2.5):
        assert np.array_equal(clime_inverse(sigma, lam), np.zeros((4, 4)))
    assert calls == []


def test_clime_identity_no_offdiagonal():
    for lam in (0.0, 0.3, 0.7, 0.99):
        theta = clime_inverse(np.eye(3), lam)
        off = theta - np.diag(np.diag(theta))
        assert np.allclose(off, 0.0, atol=1e-8)


def test_clime_matches_oracle(rng):
    for d in (2, 3, 4, 5):
        for _ in range(4):
            a = rng.standard_normal((d, d))
            sigma = a @ a.T / d + 0.5 * np.eye(d)
            theta = clime_inverse(sigma, 0.05)
            for j in range(d):
                target = np.zeros(d)
                target[j] = 1.0
                ref = l1_linf_oracle(sigma, target, 0.05)
                assert np.sum(np.abs(theta[:, j])) == pytest.approx(
                    ref[1], abs=1e-7
                )
                assert np.max(np.abs(sigma @ theta[:, j] - target)) <= 0.05 + 1e-8


def test_clime_infeasible_names_column():
    with pytest.raises(LpInfeasibleError, match="column 0"):
        clime_inverse(np.zeros((2, 2)), 0.5)


@pytest.mark.parametrize("lam", [-0.1, np.nan])
def test_clime_rejects_negative_or_nan_lambda(lam):
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        clime_inverse(np.eye(3), lam)
