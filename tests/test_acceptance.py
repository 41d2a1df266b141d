"""End-to-end acceptance gate.

Each test exercises one headline behavior of the package at its stated
tolerance and reports a single PASS/FAIL summary line (printed in the
"acceptance criteria" section after the run).
"""

import math
import time

import numpy as np

import conftest
from conftest import random_gmm, random_mr, random_rmc
from oracles import fd_directional, fd_gradient, l1_linf_oracle
from truncem.datagen import GenSpec, gen_dataset, make_beta_star, make_init
from truncem.em import EmConfig, run_em
from truncem.harness import ExperimentConfig, init_stream, run_scaling, run_trace, run_typeone
from truncem.inference import InferenceConfig, wald_test
from truncem.lp import clime_inverse, dantzig_direction

def record(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {num}: {status} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def geometric_decay(rows, ratio_bound, floor=1e-6):
    opts = [row["opt_error"] for row in rows]
    reached = any(o < floor for o in opts)
    ratios_ok = all(
        opts[t + 1] / opts[t] <= ratio_bound
        for t in range(len(opts) - 1)
        if opts[t] >= floor
    )
    return reached and ratios_ok, min(opts), opts


def test_criterion_1_convergence_traces():
    start = time.time()
    gmm_rows = run_trace(ExperimentConfig(model="GMM", n_iter=10))
    gmm_ok, gmm_floor, _ = geometric_decay(gmm_rows, 0.8)
    mr_rows = run_trace(ExperimentConfig(model="MR", n_iter=10))
    mr_ok, mr_floor, _ = geometric_decay(mr_rows, 0.9)
    elapsed = time.time() - start
    ok = gmm_ok and mr_ok and elapsed <= 20.0
    record(
        1,
        ok,
        f"geometric convergence traces: GMM floor {gmm_floor:.2e} "
        f"(ratio<=0.8), MR floor {mr_floor:.2e} (ratio<=0.9), "
        f"{elapsed:.1f}s",
    )


def scaling_r2(model):
    rows = run_scaling(ExperimentConfig(model=model))
    means = [row for row in rows if row["kind"] == "mean"]
    x = np.array([row["x"] for row in means])
    y = np.array([row["err"] for row in means])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    return float(r2), float(slope)


def test_criterion_2_error_scaling():
    start = time.time()
    r2_gmm, slope_gmm = scaling_r2("GMM")
    r2_mr, slope_mr = scaling_r2("MR")
    elapsed = time.time() - start
    ok = min(r2_gmm, r2_mr) >= 0.9 and slope_gmm > 0 and slope_mr > 0
    record(
        2,
        ok,
        f"error vs sqrt(s* log d / n): R^2 GMM {r2_gmm:.4f}, "
        f"MR {r2_mr:.4f}, slopes positive, {elapsed:.0f}s",
    )


def test_criterion_3_typeone_calibration():
    replicates = 500
    lo, hi = 0.02, 0.08
    start = time.time()
    rates = {}
    for model in ("GMM", "MR"):
        _, summary = run_typeone(
            ExperimentConfig(model=model, replicates=replicates)
        )
        rates[model] = (
            summary["score_rejection_rate"],
            summary["wald_rejection_rate"],
            summary["degenerate"],
        )
    elapsed = time.time() - start
    ok = all(
        lo <= rate <= hi
        for score, wald, _ in rates.values()
        for rate in (score, wald)
    ) and all(deg == 0 for _, _, deg in rates.values())
    record(
        3,
        ok,
        f"type-I rates ({replicates} reps, band [{lo}, {hi}]): "
        f"GMM score/wald {rates['GMM'][0]:.3f}/{rates['GMM'][1]:.3f}, "
        f"MR {rates['MR'][0]:.3f}/{rates['MR'][1]:.3f}, {elapsed:.0f}s",
    )


def test_criterion_4_gradient_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for make in (random_gmm, random_mr, random_rmc):
        for _ in range(20):
            n = int(rng.integers(10, 51))
            d = int(rng.integers(2, 11))
            model = make(rng, n=n, d=d, sigma=1.0)
            beta = rng.standard_normal(d)
            fd = fd_gradient(model.loglik, beta) / n
            grad = model.grad_q(beta)
            err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, float(err))
    record(
        4,
        worst <= 1e-4,
        f"surrogate gradient equals likelihood gradient (unit sigma), "
        f"max rel err {worst:.2e} <= 1e-4",
    )


def test_criterion_5_ascent_and_minorization():
    rng = np.random.default_rng(505)
    worst_ascent = 0.0
    for _ in range(20):
        model = random_gmm(rng, n=15, d=4)
        trace = run_em(
            model, rng.standard_normal(4), EmConfig(s_hat=4, n_iter=20)
        )
        logliks = [model.loglik(b) for b in trace.iterates]
        worst_ascent = min(worst_ascent, float(np.min(np.diff(logliks))))
    worst_slack = 0.0
    sigma = 0.9
    for make in (random_gmm, random_mr, random_rmc):
        model = make(rng, sigma=sigma)
        scale = model.n_samples / sigma**2
        for _ in range(100):
            b1 = rng.standard_normal(model.dim)
            b2 = rng.standard_normal(model.dim)
            slack = (model.loglik(b1) - model.loglik(b2)) - scale * (
                model.q_value(b1, b2) - model.q_value(b2, b2)
            )
            worst_slack = min(worst_slack, float(slack))
    ok = worst_ascent >= -1e-9 and worst_slack >= -1e-9
    record(
        5,
        ok,
        f"EM ascent (min step {worst_ascent:.1e}) and minorization bound "
        f"(min slack {worst_slack:.1e}) >= -1e-9",
    )


def test_criterion_6_lp_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_resid = 0.0
    lam = 0.1
    count = 0
    while count < 50:
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d))
        t_mat = 0.5 * (a + a.T)
        alpha = int(rng.integers(d))
        w = dantzig_direction(t_mat, alpha, lam)
        keep = np.delete(np.arange(d), alpha)
        g = t_mat[np.ix_(keep, keep)]
        target = t_mat[keep, alpha]
        ref = l1_linf_oracle(g, target, lam)
        worst_gap = max(worst_gap, abs(float(np.sum(np.abs(w))) - ref[1]))
        worst_resid = max(worst_resid, float(np.max(np.abs(g @ w - target))))
        count += 1
    count = 0
    while count < 50:
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T / d + 0.5 * np.eye(d)
        theta = clime_inverse(sigma, lam)
        j = int(rng.integers(d))
        target = np.zeros(d)
        target[j] = 1.0
        ref = l1_linf_oracle(sigma, target, lam)
        worst_gap = max(
            worst_gap, abs(float(np.sum(np.abs(theta[:, j]))) - ref[1])
        )
        worst_resid = max(
            worst_resid, float(np.max(np.abs(sigma @ theta[:, j] - target)))
        )
        count += 1
    ok = worst_gap <= 1e-7 and worst_resid <= lam + 1e-8
    record(
        6,
        ok,
        f"LP solutions match vertex enumeration: objective gap "
        f"{worst_gap:.1e} <= 1e-7, residual {worst_resid:.4f} <= {lam}+1e-8",
    )


def test_criterion_7_curvature_directional_fd():
    rng = np.random.default_rng(707)
    worst = 0.0
    for make in (random_gmm, random_mr):
        for _ in range(10):
            model = make(rng, n=30, d=6, sigma=0.8)
            beta = rng.standard_normal(6)
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            t_v = model.curvature_matrix(beta) @ v
            fd = fd_directional(model.grad_q, beta, v, h=1e-6)
            err = np.max(np.abs(t_v - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, float(err))
    record(
        7,
        worst <= 1e-4,
        f"curvature matrix matches directional differences of the gradient, "
        f"max rel err {worst:.2e} <= 1e-4",
    )


def test_criterion_8_confidence_interval_coverage():
    start = time.time()
    cfg = ExperimentConfig(model="GMM", alpha_index=3).resolve()
    beta_star = make_beta_star(cfg.d, cfg.beta_values)
    target = beta_star[3]  # = 6
    icfg = InferenceConfig(alpha_index=3, delta=0.05)
    covered = 0
    midpoints = []
    replicates = 200
    for r in range(replicates):
        seed = cfg.seed + r
        spec = GenSpec("GMM", cfg.n, cfg.d, beta_star, cfg.sigma, seed=seed)
        model = gen_dataset(spec)
        init = make_init(beta_star, cfg.rel_err, init_stream(seed))
        trace = run_em(model, init, EmConfig(s_hat=cfg.s_hat, n_iter=cfg.n_iter))
        beta_hat = trace.estimate
        if beta_hat @ beta_star < 0:
            beta_hat = -beta_hat
        res = wald_test(model, beta_hat, icfg)
        if res.ci_lo <= target <= res.ci_hi:
            covered += 1
        midpoints.append(0.5 * (res.ci_lo + res.ci_hi))
    coverage = covered / replicates
    mean_bar = float(np.mean(midpoints))
    se = float(np.std(midpoints, ddof=1)) / math.sqrt(replicates)
    elapsed = time.time() - start
    ok = 0.90 <= coverage <= 0.99 and abs(mean_bar - target) <= 3 * se
    record(
        8,
        ok,
        f"95% CI coverage of a nonzero coordinate: {coverage:.3f} in "
        f"[0.90, 0.99]; one-step estimate mean {mean_bar:.3f} "
        f"(target {target}, 3se {3 * se:.3f}), {elapsed:.0f}s",
    )
