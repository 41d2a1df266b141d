"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed cycle of resolved ``ExperimentConfig`` cells.
Replicate ``r`` of a run with base seed ``s`` uses cell ``r % len(cycle)``
and seed ``s + r``, as ``truncem typeone`` does, so the inputs are a pure
function of the seed.  Each replicate calls one of the harness's
per-replicate entry points, ``infer_replicate`` or ``fit_replicate``,
looked up on the ``truncem.harness`` module at call time so that the
tracer's wrappers apply when they are installed.

Importing this module imports numpy; the caller pins BLAS first.
"""

import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from truncem import harness
from truncem.harness import ExperimentConfig

#: seed whose per-replicate outputs are kept under ``reference/``
REFERENCE_SEED = 0
REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
#: agreement required of every float output against the reference; the
#: absolute floor only matters for values within 1e-12 of zero
REL_TOL = 1e-6
ABS_TOL = 1e-12

_INFER_FLOATS = ("score_stat", "score_p", "wald_stat", "wald_p", "ci_lo", "ci_hi")
_INFER_FLAGS = ("score_reject", "wald_reject")


def _fit_em_cycle():
    # the `scaling` grid at its defaults, GMM and MR interleaved with
    # RMC fits at the RMC defaults, so every stretch of the run mixes
    # the three E-steps in the same proportion
    cells = []
    for s_star in (2, 4, 6, 8):
        for n in (200, 400, 800):
            cells.append(dict(model="GMM", d=128, n=n, s_star=s_star))
            cells.append(dict(model="MR", d=128, n=n, s_star=s_star))
            cells.append(dict(model="RMC"))
    return cells


#: name -> (entry point, cycle of config overrides); BENCHMARK.json and
#: README.md say why each is a workload
WORKLOADS = {
    "typeone-gmm": ("infer", [dict(model="GMM")]),
    "typeone-mr": ("infer", [dict(model="MR")]),
    "fit-em": ("fit", _fit_em_cycle()),
    "fit-mr-clime": ("fit", [dict(model="MR", d=64, m_step="exact")]),
}

#: replacement dimensions for the self-test's tiny runs
TINY = dict(d=16, n=40)


@dataclass
class Workload:
    name: str
    entry: str  # "infer" or "fit"
    cycle: list  # resolved ExperimentConfig cells
    seed: int
    tiny: bool = False

    def cell(self, r):
        return self.cycle[r % len(self.cycle)]

    def warmup_indices(self):
        """First replicate of each model family in the cycle."""
        seen = {}
        for r, cfg in enumerate(self.cycle):
            seen.setdefault(cfg.model, r)
        return sorted(seen.values())


def make_workload(name, seed, tiny=False):
    entry, cells = WORKLOADS[name]
    if tiny:
        cells = [dict(c, **TINY) for c in cells]
    cycle = [ExperimentConfig(**c).resolve() for c in cells]
    return Workload(name=name, entry=entry, cycle=cycle, seed=seed, tiny=tiny)


class FitCapture:
    """Stands in for ``harness.fit_replicate`` and keeps its last result.

    ``infer_replicate`` returns only the test statistics; the estimate it
    tested is needed for the output check, so it is taken from the fit
    that ``infer_replicate`` itself ran.
    """

    def __init__(self, fit):
        self.fit = fit
        self.last = None

    def __call__(self, cfg, seed):
        self.last = self.fit(cfg, seed)
        return self.last


def install_capture():
    capture = FitCapture(harness.fit_replicate)
    harness.fit_replicate = capture
    return capture


def run_replicate(workload, r):
    """Run replicate ``r``; returns the raw harness output."""
    cfg = workload.cell(r)
    seed = workload.seed + r
    if workload.entry == "infer":
        return harness.infer_replicate(cfg, seed)
    return harness.fit_replicate(cfg, seed)


def make_record(workload, r, raw, capture):
    """Reduce one replicate's output to the values the check compares.

    ``beta_nnz`` is kept for the sparsity invariant and not compared with
    the reference (``support`` already is).
    """
    cfg = workload.cell(r)
    if workload.entry == "infer":
        _, trace, beta_star = capture.last
    else:
        _, trace, beta_star = raw
    beta_hat = trace.estimate
    rec = {
        "status": "ok",
        "support": [int(j) for j in np.flatnonzero(beta_hat)],
        "est_error": harness.sign_aligned_error(beta_hat, beta_star, cfg.model),
        "beta_nnz": int(np.count_nonzero(beta_hat)),
        "s_hat": cfg.s_hat,
    }
    if workload.entry == "infer":
        if raw["degenerate"]:
            rec["status"] = "degenerate"
        else:
            for key in _INFER_FLOATS:
                rec[key] = float(raw[key])
            for key in _INFER_FLAGS:
                rec[key] = int(raw[key])
    return rec


def failure_record(exc):
    return {"status": type(exc).__name__, "reason": str(exc)}


def invariant_errors(rec):
    """Checks that hold for every seed; returns a list of messages."""
    if rec["status"] not in ("ok", "degenerate"):
        return []
    errors = []
    if rec["beta_nnz"] != rec["s_hat"]:
        errors.append(f"beta_hat has {rec['beta_nnz']} nonzeros, s_hat={rec['s_hat']}")
    if not math.isfinite(rec["est_error"]):
        errors.append("est_error is not finite")
    if rec["status"] == "ok" and "score_stat" in rec:
        for key in _INFER_FLOATS:
            if not math.isfinite(rec[key]):
                errors.append(f"{key} is not finite")
        for key in ("score_p", "wald_p"):
            if not 0.0 <= rec[key] <= 1.0:
                errors.append(f"{key}={rec[key]} outside [0, 1]")
        for key in _INFER_FLAGS:
            if rec[key] not in (0, 1):
                errors.append(f"{key}={rec[key]} is not 0/1")
    return errors


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name):
    """Reference records for ``REFERENCE_SEED``, one per replicate."""
    with open(reference_path(name)) as fh:
        return json.load(fh)["records"]


def reference_view(rec):
    """The part of a record that is kept in, and compared with, the reference."""
    out = {"status": rec["status"]}
    if rec["status"] in ("ok", "degenerate"):
        out["support"] = rec["support"]
        out["est_error"] = rec["est_error"]
    for key in _INFER_FLOATS + _INFER_FLAGS:
        if key in rec:
            out[key] = rec[key]
    return out


def reference_errors(rec, ref):
    """Differences between a record and its reference; supports, flags
    and statuses exactly, floats to ``REL_TOL``."""
    got = reference_view(rec)
    if set(got) != set(ref):
        return [f"fields {sorted(got)} != reference {sorted(ref)}"]
    errors = []
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, float):
            if not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                errors.append(f"{key}={have!r}, reference {want!r}")
        elif have != want:
            errors.append(f"{key}={have!r}, reference {want!r}")
    return errors


class OutputCheck:
    """Checks each replicate's record as it is produced.

    Every record is checked against the invariants.  For the reference
    seed at full size, each replicate the reference covers is also
    compared with it; the reference is loaded before the timed loop, so
    the memory the check holds does not grow with the replicates run.
    """

    def __init__(self, workload):
        self.reference = []
        if (workload.seed == REFERENCE_SEED and not workload.tiny
                and reference_path(workload.name).exists()):
            self.reference = load_reference(workload.name)
        self.checked = 0
        self.compared = 0
        self.errors = []

    def __call__(self, r, rec):
        self.checked += 1
        errors = invariant_errors(rec)
        if r < len(self.reference):
            self.compared += 1
            errors += reference_errors(rec, self.reference[r])
        self.errors += [f"replicate {r}: {e}" for e in errors]
