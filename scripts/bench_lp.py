#!/usr/bin/env python3
"""Per-layer benchmark of the Dantzig LP: the native solver against the full LP.

    python3 scripts/bench_lp.py [--repeats 5] [--out BENCH_lp.json]

Each row solves fixed-seed inputs both ways, ``--repeats`` times each,
alternating which goes first, with BLAS pinned to one thread:

- ``mr-decorrelation-d256``: the score test's decorrelation LPs
  (``dantzig_direction``) for MR at the command-line defaults (d=256,
  n=100, alpha_index 9, default lambda), on the fits of replicate seeds
  0 to 4, one LP each;
- ``clime-d32``, ``clime-d64``, ``clime-d128``: ``clime_inverse`` of the
  MR design covariance at n=100 and seed 0 with the model's default CLIME
  lambda, all d column LPs;
- ``clime-d64-lam0.1``, ``clime-d64-lam0.05``: the same at d=64 with
  lambda 0.1 and 0.05, where the columns are dense (about 21 and 46
  nonzeros) and the homotopy takes many breakpoints.

The native solver is ``truncem.lp`` as it stands: the homotopy in lambda,
with HiGHS only as its fallback.  The full LP is ``full_l1_linf_lp`` from
``tests/oracles.py``, the reference the tests compare against, which puts
all 2m rows and 2m columns into one ``solve_lp`` call.  It replaces
``lp._l1_min_linf_residual`` for the full runs, so both sides of the MR
row run the same public function: ``dantzig_direction`` hands that seam
the whole curvature matrix with row and column alpha masked out, and the
full LP drops them, solves on T_gg and re-inserts the 0.  The full side
of a CLIME row calls it once per column, since ``clime_inverse``
finishes the columns that end at their first breakpoint without it.
Each side reports the median and quartiles of its wall time per run and
per LP, ``linprog`` calls per LP and the mean ``A_ub`` shape per call (0
calls and a 0 x 0 shape when no LP falls back to HiGHS, and when CLIME
finishes every column at its first breakpoint); each row reports the max
|w_native - w_full| and the ratio of the medians.
"""

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from oracles import full_l1_linf_lp  # noqa: E402
from run import blas_runtime, git_sha, src_digest  # noqa: E402

from truncem import lp  # noqa: E402
from truncem.datagen import GenSpec, gen_dataset, make_beta_star  # noqa: E402
from truncem.harness import ExperimentConfig, fit_replicate  # noqa: E402
from truncem.inference import default_lambda  # noqa: E402

ALPHA_INDEX = 9
MR_SEEDS = range(5)
CLIME_CASES = ((32, None), (64, None), (128, None), (64, 0.1), (64, 0.05))


def mr_decorrelation_case():
    """(name, n_lps, solve, solve) for the score test's LPs at the MR defaults,
    one per replicate seed in ``MR_SEEDS``."""
    cfg = ExperimentConfig(model="MR").resolve()
    inputs = []
    for seed in MR_SEEDS:
        model, trace, _ = fit_replicate(cfg, seed)
        beta = trace.estimate.copy()
        beta[ALPHA_INDEX] = 0.0
        t_mat = model.curvature_matrix(beta)
        inputs.append((t_mat, default_lambda(t_mat, model.n_samples)))

    def solve():
        return np.concatenate([lp.dantzig_direction(t, ALPHA_INDEX, lam) for t, lam in inputs])

    return "mr-decorrelation-d256", len(inputs), solve, solve


def clime_case(d, lam):
    """(name, n_lps, native solve, full solve) for CLIME of the MR design
    covariance, at the model's default CLIME lambda when ``lam`` is None."""
    cfg = ExperimentConfig(model="MR", d=d).resolve()
    spec = GenSpec("MR", n=cfg.n, d=d, beta_star=make_beta_star(d, cfg.beta_values),
                   sigma=cfg.sigma, seed=0)
    model = gen_dataset(spec)
    sigma_hat = model.design_covariance()
    name = f"clime-d{d}" if lam is None else f"clime-d{d}-lam{lam}"
    lam = model.clime_lambda if lam is None else lam

    def full():
        return np.column_stack([lp._l1_min_linf_residual(sigma_hat, e_j, lam)
                                for e_j in np.eye(d)])

    return name, d, lambda: lp.clime_inverse(sigma_hat, lam), full


def run_once(solve, full):
    """One timed solve; returns (seconds, w, A_ub shape of each linprog call)."""
    shapes, linprog, l1_min = [], lp.linprog, lp._l1_min_linf_residual

    def recorded(*args, **kwargs):
        shapes.append(kwargs["A_ub"].shape)
        return linprog(*args, **kwargs)

    lp.linprog = recorded
    if full:
        lp._l1_min_linf_residual = full_l1_linf_lp
    try:
        start = time.perf_counter()
        w = solve()
        elapsed = time.perf_counter() - start
    finally:
        lp.linprog, lp._l1_min_linf_residual = linprog, l1_min
    return elapsed, w, shapes


def summarize(times, shapes, n_lps):
    q1, p50, q3 = np.percentile(np.asarray(times) * 1e3, [25, 50, 75])
    return {
        "ms_p50": p50,
        "ms_q1": q1,
        "ms_q3": q3,
        "ms_per_lp_p50": p50 / n_lps,
        "linprog_calls_per_lp": len(shapes) / n_lps,
        "mean_a_ub_rows": float(np.mean([s[0] for s in shapes])) if shapes else 0.0,
        "mean_a_ub_cols": float(np.mean([s[1] for s in shapes])) if shapes else 0.0,
    }


def bench_case(name, n_lps, native, full, repeats):
    native()  # warm-up: imports and first-call set-up
    solves = {"native": native, "full": full}
    times = {"native": [], "full": []}
    shapes, outputs = {}, {}
    for r in range(repeats):
        order = ("native", "full") if r % 2 == 0 else ("full", "native")
        for side in order:
            elapsed, w, calls = run_once(solves[side], full=side == "full")
            times[side].append(elapsed)
            shapes[side], outputs[side] = calls, w
    row = {"name": name, "lps_per_run": n_lps, "repeats": repeats}
    for side in times:
        row[side] = summarize(times[side], shapes[side], n_lps)
    row["max_abs_dw"] = float(np.max(np.abs(outputs["native"] - outputs["full"])))
    row["speedup_p50"] = row["full"]["ms_p50"] / row["native"]["ms_p50"]
    return row


def provenance(repeats):
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"runtime": blas_runtime(),
                 "env": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "platform": platform.platform(),
        "repeats": repeats,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_lp.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    cases = [mr_decorrelation_case()] + [clime_case(d, lam) for d, lam in CLIME_CASES]
    rows = []
    for name, n_lps, native, full in cases:
        row = bench_case(name, n_lps, native, full, args.repeats)
        rows.append(row)
        got, ref = row["native"], row["full"]
        print(f"{name}: native {got['ms_p50']:.1f} ms ({got['linprog_calls_per_lp']:.2f} "
              f"calls/LP), full {ref['ms_p50']:.1f} ms, {row['speedup_p50']:.1f}x, "
              f"max |dw| {row['max_abs_dw']:.1e}", flush=True)
    out = {"provenance": provenance(args.repeats), "rows": rows}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
