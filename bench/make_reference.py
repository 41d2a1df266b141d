#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark's output check uses.

    python3 bench/make_reference.py [workload ...]

For each workload, runs replicates 0 .. N-1 at the reference seed
through the same code path as ``run.py`` and writes
``bench/reference/<workload>.json``.  N covers about twice the
replicates one 20-second run completes on a 2-core x86-64 machine;
replicates past N are checked against the invariants only.  Floats are
stored to 12 significant digits, far inside the check's 1e-6 relative
tolerance.  Regenerate only when a change to the package is meant to
change its outputs, and say so in that change.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

from run import ROOT, WORKLOAD_NAMES, src_digest  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REPLICATES = {"typeone-gmm": 400, "typeone-mr": 100, "fit-em": 8000, "fit-mr-clime": 50}


def _rounded(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def make(name, capture):
    workload = workloads.make_workload(name, workloads.REFERENCE_SEED)
    records = []
    for r in range(REPLICATES[name]):
        try:
            raw = workloads.run_replicate(workload, r)
            rec = workloads.make_record(workload, r, raw, capture)
        except RuntimeError as exc:
            rec = workloads.failure_record(exc)
        records.append({k: _rounded(v) for k, v in workloads.reference_view(rec).items()})
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(workloads.reference_path(name), "w") as fh:
        json.dump({"workload": name, "seed": workloads.REFERENCE_SEED,
                   "src_sha256": src_digest(), "records": records},
                  fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}: {len(records)} replicates")


if __name__ == "__main__":
    fit_capture = workloads.install_capture()
    for name in sys.argv[1:] or WORKLOAD_NAMES:
        make(name, fit_capture)
