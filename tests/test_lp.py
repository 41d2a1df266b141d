import numpy as np
import pytest

from oracles import l1_linf_oracle, lp_vertex_oracle
from truncem.errors import LpInfeasibleError, LpUnboundedError
from truncem.lp import clime_inverse, dantzig_direction, solve_lp


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
    """Route ``truncem.lp.linprog`` through a call counter."""
    from truncem import lp

    calls = []
    solve = lp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
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
    assert len(calls) == 1
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
        dantzig_direction(np.ones((1, 1)), 0, 0.1)


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


def test_clime_symmetrize_flag(rng):
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T / 4 + 0.5 * np.eye(4)
    theta = clime_inverse(sigma, 0.1, symmetrize=True)
    assert np.allclose(theta, theta.T)
