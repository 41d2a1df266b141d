import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from oracles import (
    NumpyScanBasis,
    dantzig_direction_reference,
    default_lambda,
    full_l1_linf_lp,
    l1_linf_oracle,
    l1_min_linf_residual_reference,
    numpy_scan_homotopy,
)
from truncem import lp
from truncem.datagen import GenSpec, gen_dataset, make_beta_star
from truncem.errors import LpInfeasibleError, LpSolverError
from truncem.harness import ExperimentConfig, fit_replicate
from truncem.inference import InferenceConfig, score_test
from truncem.lp import (
    FEAS_TOL,
    _certified,
    _l1_min_linf_residual,
    clime_inverse,
    dantzig_direction,
)


def dantzig_residual(t_mat, alpha_index, w):
    keep = np.delete(np.arange(t_mat.shape[0]), alpha_index)
    t_ga = t_mat[keep, alpha_index]
    t_gg = t_mat[np.ix_(keep, keep)]
    return float(np.max(np.abs(t_ga - t_gg @ w)))


def random_symmetric(rng, d, scale=1.0):
    a = scale * rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def l1_min(a_mat, target, lam):
    """The native solver with the pivot scale ``max |A|`` of the whole
    matrix, as ``clime_inverse`` passes it."""
    return _l1_min_linf_residual(a_mat, target, lam, lp._abs_max(a_mat))


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
    assert calls == []
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
# the native solver against the full LP


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
                l1_min(a_mat, target, lam)
            continue
        feasible += 1
        w = l1_min(a_mat, target, lam)
        assert np.sum(np.abs(w)) == pytest.approx(np.sum(np.abs(ref)), abs=1e-9)
        assert np.max(np.abs(target - a_mat @ w)) <= lam + FEAS_TOL
    assert feasible >= 10


def mr_curvature_at_defaults():
    model, trace, _ = fit_replicate(ExperimentConfig(model="MR").resolve(), 0)
    return model.curvature_matrix(trace.estimate)


@pytest.mark.parametrize("kind", ["mr", "random"])
def test_dantzig_block_copies_match_ix_reference(rng, monkeypatch, kind):
    # the LP is posed on T itself with row and column alpha masked out; w
    # must equal the solution of the np.ix_-gathered T_gg and T_ga bit for
    # bit, at either edge too
    t_mat = mr_curvature_at_defaults() if kind == "mr" else random_symmetric(rng, 40)
    d = t_mat.shape[0]
    solve, seen = _l1_min_linf_residual, []

    def recording_solve(a_mat, target, lam, a_max, masked=None):
        seen.append((a_mat, target.copy(), masked))
        return solve(a_mat, target, lam, a_max, masked)

    monkeypatch.setattr(lp, "_l1_min_linf_residual", recording_solve)
    for alpha in (0, 1, 9, d - 2, d - 1):
        keep = np.delete(np.arange(d), alpha)
        t_gg, t_ga = t_mat[np.ix_(keep, keep)], t_mat[keep, alpha]
        lam = 0.5 * float(np.max(np.abs(t_ga)))
        w = dantzig_direction(t_mat, alpha, lam)
        a_mat, target, masked = seen.pop()
        assert a_mat is t_mat and masked == alpha
        assert target[alpha] == 0.0 and np.array_equal(target[keep], t_ga)
        assert np.any(w)
        assert np.array_equal(w, l1_min(t_gg, t_ga, lam))


def test_dantzig_columns_reads_only_row_alpha_and_basis_rows():
    # an exactly symmetric T read through a mapping of rows gives w bit for
    # bit, and the LP asks for row alpha and the rows of its basis only
    t_mat = mr_curvature_at_defaults()
    lam = default_lambda(t_mat, 100)
    read = []

    class Rows(dict):
        def __missing__(self, i):
            read.append(i)
            row = self[i] = t_mat[i]
            return row

    w = lp.dantzig_columns(Rows(), 9, lam, lp._abs_max(t_mat, 9))
    assert np.any(w)
    assert np.array_equal(w, dantzig_direction(t_mat, 9, lam))
    assert read[0] == 9 and len(read) < 50


def test_dantzig_matches_block_copy_reference_on_mr_seeds():
    # the masked solve over the buffered basis against the homotopy that
    # copies T_gg and re-gathers and re-inverts its basis at every pivot
    cfg = ExperimentConfig(model="MR").resolve()
    for seed in range(50):
        model, trace, _ = fit_replicate(cfg, seed)
        beta = trace.estimate.copy()
        beta[9] = 0.0  # the score test's evaluation point
        t_mat = model.curvature_matrix(beta)
        lam = default_lambda(t_mat, model.n_samples)
        w = dantzig_direction(t_mat, 9, lam)
        assert np.any(w)
        assert np.array_equal(w, dantzig_direction_reference(t_mat, 9, lam)), seed


def mr_dataset(d):
    """The seed-0 MR dataset at the command-line defaults and dimension d."""
    cfg = ExperimentConfig(model="MR", d=d).resolve()
    return gen_dataset(GenSpec("MR", n=cfg.n, d=d, beta_star=make_beta_star(d, cfg.beta_values),
                               sigma=cfg.sigma, seed=0))


def test_clime_columns_match_reference_homotopy_at_small_lambda():
    # the dense CLIME columns of scripts/bench_lp.py (d=64, lam=0.05):
    # dozens of pivots each, every one through the buffered basis
    sigma_hat = mr_dataset(64).design_covariance()
    for j, e_j in enumerate(np.eye(64)):
        w = l1_min(sigma_hat, e_j, 0.05)
        assert np.array_equal(w, l1_min_linf_residual_reference(sigma_hat, e_j, 0.05)), j


def test_homotopy_scale_is_max_abs_entry(rng, monkeypatch):
    # a_max is max(max A, -min A) over the LP's rows and columns: no |A|
    # copy, and max|T_gg| for a decorrelation LP, the same value bit for bit
    homotopy, seen = lp._homotopy, []

    def recording_homotopy(a_mat, target, lam, a_max, masked=None):
        seen.append(a_max)
        return homotopy(a_mat, target, lam, a_max, masked)

    monkeypatch.setattr(lp, "_homotopy", recording_homotopy)
    t_mr = mr_curvature_at_defaults()
    for a_mat in (random_symmetric(rng, 8), -np.abs(random_symmetric(rng, 8)) - np.eye(8),
                  t_mr[1:, 1:]):
        target = a_mat[:, 0] + 0.1
        l1_min(a_mat, target, 0.5 * float(np.max(np.abs(target))))
        assert seen.pop() == np.max(np.abs(a_mat))
    big_cross = random_symmetric(rng, 8)
    big_cross[5, 2] = big_cross[2, 5] = 10.0  # the largest entry is in row/column 2
    for t_mat, alpha in ((t_mr, 9), (t_mr, 0), (t_mr, 255), (big_cross, 2), (big_cross, 4)):
        keep = np.delete(np.arange(t_mat.shape[0]), alpha)
        dantzig_direction(t_mat, alpha, 0.5 * float(np.max(np.abs(t_mat[keep, alpha]))))
        assert seen.pop() == np.max(np.abs(t_mat[np.ix_(keep, keep)]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["t_gg", "t_ga"])
def test_dantzig_rejects_nonfinite_curvature(rng, bad, where):
    t_mat = random_symmetric(rng, 6)
    i, j = (3, 4) if where == "t_gg" else (0, 4)  # T_gg and T_ga at alpha 0
    t_mat[i, j] = t_mat[j, i] = bad
    with pytest.raises(ValueError, match="LP data must be finite"):
        dantzig_direction(t_mat, 0, 1e-3)
    if np.isnan(bad):
        # the default lambda is then NaN too, which the lam check rejects
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            dantzig_direction(t_mat, 0, default_lambda(t_mat, 50))


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


def test_homotopy_enters_off_diagonal_column_when_start_diagonal_is_zero(monkeypatch):
    calls = counting_linprog(monkeypatch)
    a_mat = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = np.array([1.0, 0.0, 0.0])
    w = l1_min(a_mat, target, 0.5)
    # row 0 binds first, and a_00 = 0, so column 1 enters the basis
    assert calls == []
    assert np.allclose(w, full_l1_linf_lp(a_mat, target, 0.5), atol=1e-12)
    assert np.sum(np.abs(w)) == pytest.approx(l1_linf_oracle(a_mat, target, 0.5)[1])


def test_homotopy_finds_support_outside_start_rows(monkeypatch):
    calls = counting_linprog(monkeypatch)
    a_mat = np.array([[0.1, 1.0], [1.0, 1.0]])
    target = np.array([1.0, 0.0])
    w = l1_min(a_mat, target, 0.1)
    # row 0 binds first and column 1 enters; later row 1 binds too
    assert calls == []
    assert w[1] != 0.0
    assert np.allclose(w, full_l1_linf_lp(a_mat, target, 0.1), atol=1e-12)
    assert np.sum(np.abs(w)) == pytest.approx(l1_linf_oracle(a_mat, target, 0.1)[1])


def split_lp(block, t_r, lam):
    """The Dantzig LP of a small block on its split form, solved by HiGHS."""
    return linprog(
        np.ones(2 * block.shape[1]),
        A_ub=np.block([[block, -block], [-block, block]]),
        b_ub=np.concatenate([t_r + lam, lam - t_r]),
        bounds=(0, None),
        method="highs",
    )


def test_one_by_one_lp_matches_solve_lp(rng, monkeypatch):
    calls = counting_linprog(monkeypatch)
    for a_abs in np.logspace(-3, 3, 13):
        for a_sign in (1.0, -1.0):
            for t_sign in (1.0, -1.0):
                for lam in (0.0, *rng.uniform(0.0, 2.0, size=3)):
                    block = np.array([[a_sign * a_abs * rng.uniform(0.5, 2.0)]])
                    t_r = np.array([t_sign * (lam + rng.exponential())])
                    got = l1_min(block, t_r, lam)
                    assert calls == []
                    ref = split_lp(block, t_r, lam)
                    assert got[0] == ref.x[0] - ref.x[1]
                    assert abs(got[0]) == ref.fun


def test_zero_start_diagonal_matches_full_lp(monkeypatch):
    a_mat = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = np.array([1.0, 0.0, 0.0])
    # the start row's own column alone cannot meet it
    assert split_lp(a_mat[:1, :1], target[:1], 0.5).status == 2
    ref = full_l1_linf_lp(a_mat, target, 0.5)
    calls = counting_linprog(monkeypatch)
    assert np.array_equal(l1_min(a_mat, target, 0.5), ref)
    assert calls == []


@pytest.mark.parametrize("d", [32, 64])
def test_clime_at_default_lambda_solves_no_lp(monkeypatch, d):
    model = mr_dataset(d)
    sigma_hat, lam = model.design_covariance(), model.clime_lambda
    calls = counting_linprog(monkeypatch)
    theta = clime_inverse(sigma_hat, lam)
    assert calls == []
    assert np.array_equal(theta, np.diag((1.0 - lam) / np.diag(sigma_hat)))


# ---------------------------------------------------------------------------
# the homotopy's path, certificate and fallback


def mr_gram(x):
    """Split the Gram matrix of the columns of x as an MR decorrelation LP:
    A = G[1:, 1:], t = G[1:, 0].  With fewer rows than columns, A is
    singular, as at the MR defaults."""
    gram = x.T @ x / x.shape[0]
    return gram[1:, 1:], gram[1:, 0]


@st.composite
def dantzig_lps(draw):
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 2 * m))
    # entries on a 0.01 grid: far below it, HiGHS's absolute tolerances
    # rather than the LP decide what is feasible
    entries = st.integers(-200, 200).map(lambda k: k / 100)
    x = np.array(draw(st.lists(entries, min_size=n * (m + 1),
                               max_size=n * (m + 1)))).reshape(n, m + 1)
    a_mat, target = mr_gram(x)
    if draw(st.booleans()):
        # one decimal creates ties among |target_i|, lam and the dual ratios
        a_mat, target = np.round(a_mat, 1), np.round(target, 1)
    assume(np.any(target))
    frac = draw(st.floats(1e-3, 1.0))
    return a_mat, target, frac * float(np.max(np.abs(target)))


@settings(max_examples=300, deadline=None)
@given(dantzig_lps())
def test_homotopy_matches_full_lp_property(lp_data):
    a_mat, target, lam = lp_data
    try:
        ref = full_l1_linf_lp(a_mat, target, lam)
    except LpInfeasibleError:
        with pytest.raises(LpInfeasibleError):
            l1_min(a_mat, target, lam)
        return
    w = l1_min(a_mat, target, lam)
    ref_l1 = float(np.sum(np.abs(ref)))
    assert abs(np.sum(np.abs(w)) - ref_l1) <= 1e-9 * max(1.0, ref_l1)
    assert np.max(np.abs(target - a_mat @ w)) <= lam + FEAS_TOL


def test_mr_decorrelation_lps_call_no_solver(monkeypatch):
    calls = counting_linprog(monkeypatch)
    cfg = ExperimentConfig(model="MR").resolve()
    nonzero = 0
    for seed in range(5):
        model, trace, _ = fit_replicate(cfg, seed)
        beta = trace.estimate.copy()
        beta[9] = 0.0
        t_mat = model.curvature_matrix(beta)
        lam = default_lambda(t_mat, model.n_samples)
        w = dantzig_direction(t_mat, 9, lam)
        nonzero += np.count_nonzero(w) > 0
        assert dantzig_residual(t_mat, 9, w) <= lam + FEAS_TOL
    assert calls == []
    assert nonzero == 5


def test_clime_column_with_dominant_off_diagonal_runs_homotopy(rng, monkeypatch):
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T / 5 + 0.5 * np.eye(5)
    sigma[0, :] *= 0.2
    sigma[:, 0] *= 0.2
    assert np.max(np.abs(sigma[0, 1:])) > abs(sigma[0, 0])
    lam = 0.1
    solved, homotopy = [], lp._l1_min_linf_residual

    def recorded(a_mat, target, lam, a_max):
        solved.append(int(np.argmax(target)))
        return homotopy(a_mat, target, lam, a_max)

    monkeypatch.setattr(lp, "_l1_min_linf_residual", recorded)
    calls = counting_linprog(monkeypatch)
    theta = clime_inverse(sigma, lam)
    assert calls == [] and 0 in solved
    for j in range(5):
        target = np.eye(5)[j]
        ref = full_l1_linf_lp(sigma, target, lam)
        assert np.sum(np.abs(theta[:, j])) == pytest.approx(np.sum(np.abs(ref)), abs=1e-9)
        assert np.max(np.abs(sigma @ theta[:, j] - target)) <= lam + FEAS_TOL
        if j not in solved:
            assert np.array_equal(theta[:, j], (1.0 - lam) / sigma[j, j] * target)


def test_certificate_rejects_suboptimal_or_dual_infeasible_points():
    a_mat = np.array([[0.1, 1.0], [1.0, 1.0]])
    target = np.array([1.0, 0.0])
    w = full_l1_linf_lp(a_mat, target, 0.1)
    # both rows bind at the optimum and both coordinates are in the
    # support, so the basis rows A[S, :] and A[J, :] are all of A; u solves
    # A^T u = sign(w)
    u = np.linalg.solve(a_mat.T, np.sign(w))

    def certified(w, u):
        return _certified(target, 0.1, w, a_mat, u, a_mat, target)

    assert certified(w, u)
    # another vertex of the feasible set, with a larger l1 norm
    vertex = np.linalg.solve(a_mat, target - 0.1)
    assert np.max(np.abs(target - a_mat @ vertex)) <= 0.1 + FEAS_TOL
    assert np.sum(np.abs(vertex)) > np.sum(np.abs(w)) + 0.1
    assert not certified(vertex, u)
    # scaled up until its dual objective meets the vertex's l1 norm, u
    # leaves ||A^T u||_inf <= 1
    assert not certified(vertex, u * np.sum(np.abs(vertex)) / np.sum(np.abs(w)))
    # an infeasible w with the optimal l1 norm
    assert np.max(np.abs(target - a_mat @ w[::-1])) > 0.1 + FEAS_TOL
    assert not certified(w[::-1], u)


def test_infeasible_lp_is_certified_by_a_ray(monkeypatch):
    # the rows ask for w_0 + w_1 near 1 and near -1 at once
    a_mat = np.ones((2, 2))
    target = np.array([1.0, -1.0])
    with pytest.raises(LpInfeasibleError):
        full_l1_linf_lp(a_mat, target, 0.5)
    calls = counting_linprog(monkeypatch)
    with pytest.raises(LpInfeasibleError):
        l1_min(a_mat, target, 0.5)
    assert calls == []


def test_failed_certificate_falls_back_to_one_full_lp(monkeypatch):
    a_mat = np.array([[0.1, 1.0], [1.0, 1.0]])
    target = np.array([1.0, 0.0])
    ref = full_l1_linf_lp(a_mat, target, 0.1)
    monkeypatch.setattr(lp, "_certified", lambda *args: False)
    calls = counting_linprog(monkeypatch)
    assert np.array_equal(l1_min(a_mat, target, 0.1), ref)
    assert calls == [(4, 4)]
    # a decorrelation LP falls back through the same seam, on T_gg alone
    t_mat = np.array([[0.1, 1.0, 1.0], [1.0, 5.0, 0.0], [1.0, 0.0, 1.0]])
    calls.clear()
    assert np.array_equal(dantzig_direction(t_mat, 1, 0.1), ref)
    assert calls == [(4, 4)]


@pytest.mark.parametrize("status, error", [(2, LpInfeasibleError), (4, LpSolverError),
                                           (0, LpSolverError)])
def test_full_lp_maps_solver_status(monkeypatch, status, error):
    # status 2 is infeasibility; any other failure is an LpSolverError with
    # the solver's message; a success is checked, and w = 0 breaks row 0 by 0.9
    monkeypatch.setattr(lp, "_certified", lambda *args: False)
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: OptimizeResult(
        status=status, success=status == 0, message="numerical difficulties",
        x=np.zeros(4)))
    with pytest.raises(error) as raised:
        l1_min(np.array([[0.1, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]), 0.1)
    assert type(raised.value) is error  # LpInfeasibleError is a RuntimeError
    assert ("numerical difficulties" in str(raised.value)) == (status == 4)


def test_fallback_poses_a_tiny_lp_at_unit_scale(monkeypatch):
    # entries of 1e-4 and lam = 3.4e-8 lie below HiGHS's absolute
    # tolerances: posed as is, its w broke a row by 6.7e-8.  Divided by a
    # power of two that brings max|a_ij| into [1, 2), the fallback returns
    # a feasible w with the oracle's l1 norm
    x = 0.01 * np.array([[-1, 1, -1, -1, 0, 1, 0, 1],
                         [-1, 0, 0, 0, 0, 0, -1, -1],
                         [0, 0, 1, -1, 1, -1, -1, -1],
                         [0, -1, 1, 1, 1, 0, -1, -1],
                         [0, 0, 0, 0, 0, 0, -1, 1]])
    a_mat, target = mr_gram(x)
    lam = 3.36e-8
    ref_l1 = float(np.sum(np.abs(full_l1_linf_lp(a_mat, target, lam))))
    monkeypatch.setattr(lp, "_homotopy", lambda *args: None)
    calls = counting_linprog(monkeypatch)
    w = l1_min(a_mat, target, lam)
    assert calls == [(14, 14)]
    assert np.max(np.abs(target - a_mat @ w)) <= lam + FEAS_TOL
    assert np.sum(np.abs(w)) == pytest.approx(ref_l1, rel=1e-9, abs=0.0)


def test_infeasible_masked_lp_is_certified_by_a_ray(monkeypatch):
    # T_gg is rank deficient (all ones) and T_ga asks for w_0 + w_1 near 1
    # and near -1 at once; the ray must ignore row and column alpha
    t_mat = np.array([[1.0, 1.0, 1.0], [1.0, 3.0, -1.0], [1.0, -1.0, 1.0]])
    with pytest.raises(LpInfeasibleError):
        full_l1_linf_lp(np.ones((2, 2)), np.array([1.0, -1.0]), 0.5)
    calls = counting_linprog(monkeypatch)
    with pytest.raises(LpInfeasibleError):
        dantzig_direction(t_mat, 1, 0.5)
    assert calls == []


def count_basis_updates(monkeypatch):
    """Count each basis update of the homotopy, and record the largest
    buffer it allocates."""
    counts = {"border": 0, "replace_row": 0, "replace_col": 0, "downdate": 0, "rows": 0}
    for name in ("border", "replace_row", "replace_col", "downdate"):
        def counted(self, *args, name=name, update=getattr(lp._Basis, name)):
            counts[name] += 1
            return update(self, *args)

        monkeypatch.setattr(lp._Basis, name, counted)
    allocate = lp._Basis._allocate

    def recorded(self, cap):
        counts["rows"] = max(counts["rows"], cap)
        return allocate(self, cap)

    monkeypatch.setattr(lp._Basis, "_allocate", recorded)
    return counts


def test_every_basis_update_is_taken_and_buffers_grow(rng, monkeypatch):
    counts = count_basis_updates(monkeypatch)
    calls = counting_linprog(monkeypatch)
    sigma_hat = mr_dataset(64).design_covariance()
    corpus = [(sigma_hat, e_j, 0.05) for e_j in np.eye(64)[:3]]
    for _ in range(30):
        a_mat, target = mr_gram(np.round(rng.standard_normal((6, 13)), 1))
        corpus.append((a_mat, target, 0.2 * float(np.max(np.abs(target)))))
    for a_mat, target, lam in corpus:
        w = l1_min(a_mat, target, lam)
        assert calls == []
        ref = full_l1_linf_lp(a_mat, target, lam)
        calls.clear()
        assert np.max(np.abs(w - ref)) <= 1e-9
    assert all(counts[name] > 0 for name in ("border", "replace_row", "replace_col", "downdate"))
    assert counts["rows"] > lp._BASIS_ROWS


def updates_taken(homotopy, basis_cls, *lp_args):
    """The result of ``homotopy(*lp_args)``, or the ``LpInfeasibleError`` it
    raised, and its basis updates in order, each as its name and its index
    and sign arguments."""
    log, updates = [], {}
    for name in ("border", "replace_row", "replace_col", "downdate"):
        def logged(self, *args, name=name, update=getattr(basis_cls, name)):
            log.append((name,) + tuple(v for v in args if np.ndim(v) == 0))
            return update(self, *args)

        updates[name] = getattr(basis_cls, name)
        setattr(basis_cls, name, logged)
    try:
        result = homotopy(*lp_args)
    except LpInfeasibleError as exc:
        result = exc
    finally:
        for name, update in updates.items():
            setattr(basis_cls, name, update)
    return result, log


@st.composite
def gram_lps(draw):
    """A Gram-form LP of continuous data: A and t from the Gram matrix of n
    draws of m + 1 coordinates, split as ``mr_gram`` does, or masked, the
    whole Gram matrix with its column ``masked`` as the target (entry
    ``masked`` set to 0), as ``dantzig_columns`` poses it; lam from 0 up to
    ``||t||_inf``.  Each coordinate is 0 or at least 1e-3 in magnitude, so no
    basis inverse overflows: past an infinite entry both homotopies compute
    with nan, whose scans need not agree, and the certificate rejects what
    they return."""
    m = draw(st.integers(2, 10))
    n = draw(st.integers(1, 2 * m))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
    x = np.array(draw(st.lists(entries, min_size=n * (m + 1),
                               max_size=n * (m + 1)))).reshape(n, m + 1)
    if draw(st.booleans()):
        a_mat, masked = x.T @ x / n, draw(st.integers(0, m))
        target = a_mat[masked].copy()
        target[masked] = 0.0
    else:
        (a_mat, target), masked = mr_gram(x), None
    assume(np.any(target))
    lam = draw(st.floats(0.0, 1.0, exclude_max=True)) * float(np.abs(target).max())
    return a_mat, target, lam, lp._abs_max(a_mat, masked), masked


TIED_GRAM = np.array([[3.0, 1.0, -1.0, 0.5],
                      [1.0, 2.0, 0.3, 0.0],
                      [-1.0, 0.3, 2.0, 0.2],
                      [0.5, 0.0, 0.2, 1.0]])
ZERO_ENTRY_GRAM = np.array([[2.0, 0.5, -0.4], [0.5, 1.5, 0.6], [-0.4, 0.6, 1.0]])


@settings(max_examples=300, deadline=None)
@given(gram_lps())
# the first pivot, from w = 0: masked, the largest free |t_i| is tied
# between rows 1 and 2, and the first of them binds
@example((TIED_GRAM, np.array([0.0, 1.0, -1.0, 0.5]), 0.05, lp._abs_max(TIED_GRAM, 0), 0))
# unmasked, t_1 = 0 makes the row hit 0 / 0, so the scan's second pass
# picks the first row at k = 0
@example((ZERO_ENTRY_GRAM, np.array([0.8, 0.0, -0.5]), 0.05, lp._abs_max(ZERO_ENTRY_GRAM),
          None))
def test_homotopy_matches_numpy_scan_reference_bit_for_bit(drawn):
    # the scalar scans, the in-place ray and the contiguous inverse take the
    # pivots of the whole-array numpy scans with the same roundings
    got, updates = updates_taken(lp._homotopy, lp._Basis, *drawn)
    ref, ref_updates = updates_taken(numpy_scan_homotopy, NumpyScanBasis, *drawn)
    assert updates == ref_updates
    assert type(got) is type(ref)
    if isinstance(ref, np.ndarray):
        assert got.tobytes() == ref.tobytes()


def basis_sizes(updates):
    """The largest basis size k an update log reaches."""
    k = top = 0
    for update in updates:
        k += {"border": 1, "downdate": -1}.get(update[0], 0)
        top = max(top, k)
    return top


def test_homotopy_matches_numpy_scan_reference_on_mr_decorrelation(monkeypatch):
    # the score test's LPs at the MR defaults, rows read from the curvature
    # weights at the point and row and column alpha = 9 masked: bases of k up
    # to about 24, some past the buffers' first size, where the drawn LPs
    # (m <= 10) never reach
    lps, homotopy = [], lp._homotopy

    def recorded(*args):
        lps.append(args)
        return homotopy(*args)

    monkeypatch.setattr(lp, "_homotopy", recorded)
    cfg = ExperimentConfig(model="MR").resolve()
    icfg = InferenceConfig(alpha_index=cfg.alpha_index)
    for seed in range(50):
        model, trace, _ = fit_replicate(cfg, seed)
        score_test(model, trace.estimate, icfg)
    assert len(lps) == 50 and all(args[4] == cfg.alpha_index for args in lps)
    sizes = []
    for args in lps:
        got, updates = updates_taken(homotopy, lp._Basis, *args)
        ref, ref_updates = updates_taken(numpy_scan_homotopy, NumpyScanBasis, *args)
        assert updates == ref_updates
        assert got.tobytes() == ref.tobytes()
        sizes.append(basis_sizes(updates))
    assert min(sizes) >= 5
    assert sum(size > lp._BASIS_ROWS for size in sizes) >= 10


def test_working_set_rejects_nonfinite_data_outside_start_block():
    a_mat = np.eye(3)
    a_mat[2, 1] = np.nan
    with pytest.raises(ValueError):
        l1_min(a_mat, np.array([1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        l1_min(np.eye(3), np.array([1.0, np.nan, 0.0]), 0.5)


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


# ---------------------------------------------------------------------------
# no scipy on a command path; HiGHS is imported on the first fallback only

#: run in a fresh interpreter, whose ``sys.modules`` this process cannot taint
_FRESH_PROCESS_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    import truncem
    import truncem.cli
    from truncem import harness, lp

    for model, d in (("GMM", 64), ("MR", 64)):
        cfg = harness.ExperimentConfig(model=model, d=d).resolve("infer")
        harness.infer_replicate(cfg, 0)
    harness.fit_replicate(harness.ExperimentConfig(model="RMC", d=32).resolve(), 0)
    harness.fit_replicate(
        harness.ExperimentConfig(model="MR", d=16, m_step="exact").resolve(), 0)
    harness.run_typeone(harness.ExperimentConfig(model="GMM", d=32, replicates=2))
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not scipy, f"scipy loaded with no fallback: {scipy}"

    from oracles import full_l1_linf_lp

    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    lp._homotopy = lambda *args: None
    w = lp.dantzig_direction(a, 2, 0.1)
    assert np.abs(w).max() > 0
    assert np.abs(w - np.delete(full_l1_linf_lp(a, a[:, 2], 0.1, masked=2), 2)).max() <= 1e-9

    import scipy.optimize

    assert lp.linprog is scipy.optimize.linprog
    try:
        getattr(lp, "no_such_name")
    except AttributeError:
        pass
    else:
        raise AssertionError("lp.no_such_name resolved")
    print("ok")
""")


def test_fresh_process_loads_highs_only_on_fallback():
    """Importing the package and command line, fitting every model,
    testing GMM and MR and a small ``typeone`` load no ``scipy`` module;
    the first fallback imports HiGHS behind ``lp.linprog``, and its w is
    the full LP's."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
