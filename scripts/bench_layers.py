#!/usr/bin/env python3
"""Per-layer baseline of the benchmark workloads, as a committed file.

    python3 scripts/bench_layers.py [--out BENCH_layers.json]

Runs ``python3 bench/run.py --workload W --seed 0 --seconds 8 --trace 1``
once for each workload in ``bench/run.py``, one after another, and keeps
the JSON object each run prints on its last line: ``correct``,
``attempted``, ``failed`` and the per-layer metrics (summed self time and
calls per replicate; see ``bench/README.md``).  The file gets the
provenance block of ``BENCH_lp.json`` (git SHA, ``src`` digest, nproc,
versions, BLAS threads).  Exits non-zero, without writing, if a run fails
or reads ``correct: false``.
"""

import argparse
import json
import pathlib
import subprocess
import sys

# importing bench_lp pins BLAS and puts src/, tests/ and bench/ on sys.path
from bench_lp import ROOT, provenance
from run import WORKLOAD_NAMES  # noqa: E402

SEED = 0
SECONDS = 8


def run_workload(name):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{name}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{name}: outputs disagree with bench/reference/")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    workloads = {}
    for name in WORKLOAD_NAMES:
        workloads[name] = result = run_workload(name)
        metrics = result["metrics"]
        print(f"{name}: {result['attempted']} replicates, failed {result['failed']}, "
              f"loglik calls {metrics['models.loglik.calls']['value']}", flush=True)
    out = {"provenance": dict(provenance(1), seed=SEED, seconds=SECONDS, trace=1),
           "workloads": workloads}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
