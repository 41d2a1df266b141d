#!/usr/bin/env python3
"""Per-layer benchmark of the Dantzig LP: the native solver against the full LP.

    python3 scripts/bench_lp.py [--repeats 5] [--baseline DIR] [--out BENCH_lp.json]

Each row solves fixed-seed inputs both ways, ``--repeats`` times each,
the native solver first and the full LP after it, with BLAS pinned to
one thread:

- ``mr-decorrelation-d256``: the score test's decorrelation LPs
  (``dantzig_direction``) for MR at the command-line defaults (d=256,
  n=100, alpha_index 9, default lambda), on the fits of replicate seeds
  0 to 4, one LP each;
- ``mr-decorrelate-columns-d256``: the score test's whole decorrelation
  at the same five points, the column path of ``inference._decorrelate``
  (curvature columns on demand, the diagonal bound for lambda and
  ``max |T_gg|``, the LP on the columns, ``v^T T v`` on the support)
  against ``decorrelate_full_matrix`` from ``tests/oracles.py`` (the
  curvature matrix, ``default_lambda``, ``dantzig_direction`` and ``v^T T
  v`` on T), both with the native LP, both evaluating the gradient at the
  point (the column path with its curvature weights, from one posterior
  evaluation; the whole-matrix path by ``grad_q``), and with the
  decorrelation the model keeps (``_decorrelated``, or ``_point`` in an
  older checkout) cleared before each point, so both compute the
  curvature weights;
- ``clime-d32``, ``clime-d64``, ``clime-d128``: ``clime_inverse`` of the
  MR design covariance at n=100 and seed 0 with the model's default CLIME
  lambda, all d column LPs; every column ends at its first breakpoint, so
  a call takes no pivot and well under a millisecond, and each timed
  repeat of a native solver makes ``DEFAULT_LAMBDA_CALLS`` calls;
- ``clime-d64-lam0.1``, ``clime-d64-lam0.05``: the same at d=64 with
  lambda 0.1 and 0.05, where the columns are dense (about 21 and 46
  nonzeros) and the homotopy takes many breakpoints.

In the other rows the native solver is ``truncem.lp`` as it stands: the
homotopy in lambda, with HiGHS only as its fallback.  The full LP is
``full_l1_linf_lp`` from ``tests/oracles.py``, the reference the tests
compare against, which puts all 2m rows and 2m columns into one
HiGHS call.  It replaces
``lp._l1_min_linf_residual`` for the full runs, so both sides of the MR
row run the same public function: ``dantzig_direction`` hands that seam
the whole curvature matrix with row and column alpha masked out, and the
full LP drops them, solves on T_gg and re-inserts the 0.  The full side
of a CLIME row calls it once per column, since ``clime_inverse``
finishes the columns that end at their first breakpoint without it.
Each side reports the median and quartiles of its wall time per run (a
repeat's time over its calls) and per LP, ``linprog`` calls per LP and
the mean ``A_ub`` shape per call (0 calls and a 0 x 0 shape when no LP
falls back to HiGHS, and when CLIME finishes every column at its first
breakpoint); each row reports the max |w_native - w_full| and the ratio
of the medians.  A side that runs the homotopy also reports its pivots
(basis updates) per LP, counted in one untimed run, and the median time
per LP over them, ``us_per_pivot_p50``, which includes the per-LP work
around the pivots (and, on the columns row, the curvature columns, the
diagonal bound and the gradient).

Every repeat also times ``control_kernel`` from ``bench/run.py``, fixed
pure-Python work whose time drifts with the host's speed; a row reports
its median as ``ctl_ms_p50``, and each side gives its time per LP and per
pivot in those units too (``ctl_per_lp_p50``, ``ctl_per_pivot_p50``), as
``bench/run.py`` reports replicate times in ``ctl``.  Wall-clock figures
compare only within one run; the ``ctl`` figures also across runs.

``--baseline DIR`` adds a third side to every row: the native solver of
the checkout at DIR (for instance the parent commit; checkouts from
fb3570c on, which keep a decorrelation on the model), whose ``src/truncem`` is
imported as the package ``truncem_baseline`` and run on the same inputs
(its own models, from the same arrays, on the columns row), in every
repeat before the full LP, taking turns with this tree's solver at going
first.  The row then reports ``max_abs_dw_baseline`` and
``speedup_vs_baseline_p50``.
"""

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from oracles import decorrelate_full_matrix, default_lambda, full_l1_linf_lp  # noqa: E402
from run import blas_runtime, control_kernel, git_sha, src_digest  # noqa: E402

from truncem import inference, lp  # noqa: E402
from truncem.datagen import GenSpec, gen_dataset, make_beta_star  # noqa: E402
from truncem.harness import ExperimentConfig, fit_replicate  # noqa: E402
from truncem.inference import InferenceConfig  # noqa: E402

ALPHA_INDEX = 9
MR_SEEDS = range(5)
CLIME_CASES = ((32, None), (64, None), (128, None), (64, 0.1), (64, 0.05))
#: calls per timed repeat of a native solver on the CLIME rows at the
#: default lambda: 0.04-0.1 ms a call, so a repeat takes 10 ms or more
DEFAULT_LAMBDA_CALLS = 250
#: the homotopy's basis updates, one per pivot
UPDATES = ("border", "replace_row", "replace_col", "downdate")


def load_baseline(root):
    """The ``lp``, ``models`` and ``inference`` modules of the checkout at
    ``root``, imported as the package ``truncem_baseline``."""
    init = pathlib.Path(root).resolve() / "src" / "truncem" / "__init__.py"
    if not init.is_file():
        sys.exit(f"--baseline: no package at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        "truncem_baseline", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    modules = {name: importlib.import_module(f"truncem_baseline.{name}")
               for name in ("lp", "models", "inference")}
    digest = hashlib.sha256()  # as bench/run.py's src_digest hashes this tree
    for path in sorted(init.parents[1].rglob("*.py")):
        digest.update(path.relative_to(init.parents[2]).as_posix().encode())
        digest.update(path.read_bytes())
    return dict(modules, src_sha256=digest.hexdigest())


def full_lp(a, target, lam, a_max, masked=None):
    """``full_l1_linf_lp`` at the seam of ``lp._l1_min_linf_residual``."""
    return full_l1_linf_lp(np.asarray(a), target, lam, masked)


def on_full_lp(solve):
    """``solve`` with every Dantzig LP handed to ``full_lp``."""
    def full():
        native, lp._l1_min_linf_residual = lp._l1_min_linf_residual, full_lp
        try:
            return solve()
        finally:
            lp._l1_min_linf_residual = native

    return full


def mr_score_points():
    """(model, beta) of the score test at the MR defaults, one per
    replicate seed in ``MR_SEEDS``."""
    cfg = ExperimentConfig(model="MR").resolve()
    points = []
    for seed in MR_SEEDS:
        model, trace, _ = fit_replicate(cfg, seed)
        beta = trace.estimate.copy()
        beta[ALPHA_INDEX] = 0.0
        points.append((model, beta))
    return points


def mr_decorrelation_case(points, base):
    """(name, n_lps, sides, calls) for the score test's LPs at the MR
    defaults; a side is (solve, the lp module whose homotopy and
    ``linprog`` it runs), and ``calls`` is the native solvers' calls per
    timed repeat."""
    inputs = []
    for model, beta in points:
        t_mat = model.curvature_matrix(beta)
        inputs.append((t_mat, default_lambda(t_mat, model.n_samples)))

    def on(lp_module):
        def solve():
            return np.concatenate([lp_module.dantzig_direction(t, ALPHA_INDEX, lam)
                                   for t, lam in inputs])

        return solve

    sides = {"native": (on(lp), lp), "full": (on_full_lp(on(lp)), lp)}
    if base:
        sides["baseline"] = (on(base["lp"]), base["lp"])
    return "mr-decorrelation-d256", len(inputs), sides, 1


def mr_columns_case(points, base):
    """(name, n_lps, sides, calls) for the score test's decorrelation at
    the MR defaults, the column path against the whole matrix, each
    computing the curvature weights and the gradient afresh."""

    def run(decorrelate, points, icfg):
        def solve():
            out = []
            for model, beta in points:
                # this tree keeps the finished result, older ones the point
                vars(model).pop("_decorrelated", None)
                vars(model).pop("_point", None)
                out.append(decorrelate(model, beta, icfg)[1])
            return np.concatenate(out)

        return solve

    icfg = InferenceConfig(alpha_index=ALPHA_INDEX)
    sides = {"native": (run(inference._decorrelate, points, icfg), lp),
             "full": (run(decorrelate_full_matrix, points, icfg), lp)}
    if base:
        models = [(base["models"].MixtureRegression(m.x, m.y, m.sigma), beta)
                  for m, beta in points]
        sides["baseline"] = (run(base["inference"]._decorrelate, models,
                                 base["inference"].InferenceConfig(alpha_index=ALPHA_INDEX)),
                             base["lp"])
    return "mr-decorrelate-columns-d256", len(points), sides, 1


def clime_case(d, lam, base):
    """(name, n_lps, sides, calls) for CLIME of the MR design covariance, at
    the model's default CLIME lambda when ``lam`` is None."""
    cfg = ExperimentConfig(model="MR", d=d).resolve()
    spec = GenSpec("MR", n=cfg.n, d=d, beta_star=make_beta_star(d, cfg.beta_values),
                   sigma=cfg.sigma, seed=0)
    model = gen_dataset(spec)
    sigma_hat = model.design_covariance()
    name, calls = (f"clime-d{d}", DEFAULT_LAMBDA_CALLS) if lam is None else (
        f"clime-d{d}-lam{lam}", 1)
    lam = model.clime_lambda if lam is None else lam

    def full():
        return np.column_stack([full_lp(sigma_hat, e_j, lam, None) for e_j in np.eye(d)])

    sides = {"native": (lambda: lp.clime_inverse(sigma_hat, lam), lp), "full": (full, lp)}
    if base:
        sides["baseline"] = (lambda: base["lp"].clime_inverse(sigma_hat, lam), base["lp"])
    return name, d, sides, calls


def run_once(solve, lp_module, calls=1):
    """``calls`` timed solves; returns (seconds per solve, w, A_ub shape of
    each linprog call made through ``lp_module``)."""
    shapes, linprog = [], lp_module.linprog

    def recorded(*args, **kwargs):
        shapes.append(kwargs["A_ub"].shape)
        return linprog(*args, **kwargs)

    lp_module.linprog = recorded
    try:
        start = time.perf_counter()
        for _ in range(calls):
            w = solve()
        elapsed = time.perf_counter() - start
    finally:
        lp_module.linprog = linprog
    return elapsed / calls, w, shapes


def count_pivots(solve, lp_module):
    """Basis updates of ``lp_module``'s homotopy in one untimed ``solve``."""
    count, basis = [0], lp_module._Basis
    updates = {name: getattr(basis, name) for name in UPDATES}

    def counted(update):
        def run(*args):
            count[0] += 1
            return update(*args)

        return run

    for name, update in updates.items():
        setattr(basis, name, counted(update))
    try:
        solve()
    finally:
        for name, update in updates.items():
            setattr(basis, name, update)
    return count[0]


def summarize(times, shapes, n_lps, pivots, ctl_ms, calls):
    q1, p50, q3 = np.percentile(np.asarray(times) * 1e3, [25, 50, 75])
    row = {
        "ms_p50": p50,
        "ms_q1": q1,
        "ms_q3": q3,
        "ms_per_lp_p50": p50 / n_lps,
        "ctl_per_lp_p50": p50 / n_lps / ctl_ms,
        "linprog_calls_per_lp": len(shapes) / n_lps / calls,
        "mean_a_ub_rows": float(np.mean([s[0] for s in shapes])) if shapes else 0.0,
        "mean_a_ub_cols": float(np.mean([s[1] for s in shapes])) if shapes else 0.0,
    }
    if pivots is not None:
        row["pivots_per_lp"] = pivots / n_lps
        row["us_per_pivot_p50"] = p50 * 1e3 / pivots if pivots else None
        row["ctl_per_pivot_p50"] = p50 / pivots / ctl_ms if pivots else None
    return row


def bench_case(name, n_lps, sides, calls, repeats):
    """Time every side ``repeats`` times: in each repeat the control kernel,
    then the native solvers, ``calls`` times each, alternating which goes
    first, then the full LP once, so that this tree's and the baseline's
    follow the full LP equally often."""
    pivots = {side: None if side == "full" else count_pivots(*sides[side]) for side in sides}
    for solve, _ in sides.values():
        solve()  # warm-up: imports and first-call set-up
    names = list(sides)
    side_calls = {side: 1 if side == "full" else calls for side in names}
    times = {side: [] for side in names}
    shapes, outputs, control = {}, {}, []
    for r in range(repeats):
        start = time.perf_counter()
        control_kernel()
        control.append(time.perf_counter() - start)
        fast = [side for side in names if side != "full"]
        for side in (fast if r % 2 == 0 else fast[::-1]) + ["full"]:
            elapsed, w, linprogs = run_once(*sides[side], side_calls[side])
            times[side].append(elapsed)
            shapes[side], outputs[side] = linprogs, w
    ctl_ms = float(np.median(control)) * 1e3
    row = {"name": name, "lps_per_run": n_lps, "native_calls_per_repeat": calls,
           "repeats": repeats, "ctl_ms_p50": ctl_ms}
    for side in names:
        row[side] = summarize(times[side], shapes[side], n_lps, pivots[side], ctl_ms,
                              side_calls[side])
    row["max_abs_dw"] = float(np.max(np.abs(outputs["native"] - outputs["full"])))
    row["speedup_p50"] = row["full"]["ms_p50"] / row["native"]["ms_p50"]
    if "baseline" in sides:
        row["max_abs_dw_baseline"] = float(np.max(np.abs(outputs["native"]
                                                         - outputs["baseline"])))
        row["speedup_vs_baseline_p50"] = row["baseline"]["ms_p50"] / row["native"]["ms_p50"]
    return row


def per_pivot(side):
    """``pivots/LP, us/pivot (ctl/pivot)`` of a side, for the printed summary."""
    if side.get("us_per_pivot_p50") is None:
        return "no pivots"
    return (f"{side['pivots_per_lp']:.1f} pivots/LP, {side['us_per_pivot_p50']:.0f} us/pivot "
            f"({side['ctl_per_pivot_p50']:.3g} ctl)")


def provenance(repeats, baseline_sha256=None):
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
        **({"baseline_src_sha256": baseline_sha256} if baseline_sha256 else {}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline", metavar="DIR",
                        help="a checkout whose native solver to time on every row as well")
    parser.add_argument("--out", default=str(ROOT / "BENCH_lp.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    base = load_baseline(args.baseline) if args.baseline else None
    points = mr_score_points()
    cases = ([mr_decorrelation_case(points, base), mr_columns_case(points, base)]
             + [clime_case(d, lam, base) for d, lam in CLIME_CASES])
    rows = []
    for name, n_lps, sides, calls in cases:
        row = bench_case(name, n_lps, sides, calls, args.repeats)
        rows.append(row)
        got, ref = row["native"], row["full"]
        line = (f"{name}: native {got['ms_p50']:.3g} ms, {got['ctl_per_lp_p50']:.3g} ctl/LP "
                f"({got['linprog_calls_per_lp']:.2f} "
                f"calls/LP, {per_pivot(got)}), full {ref['ms_p50']:.1f} ms, "
                f"{row['speedup_p50']:.1f}x, max |dw| {row['max_abs_dw']:.1e}")
        if base:
            old = row["baseline"]
            line += (f"; baseline {old['ms_p50']:.3g} ms ({per_pivot(old)}), "
                     f"{row['speedup_vs_baseline_p50']:.2f}x")
        print(line, flush=True)
    out = {"provenance": provenance(args.repeats, base and base["src_sha256"]), "rows": rows}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
