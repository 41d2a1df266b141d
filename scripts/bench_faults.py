#!/usr/bin/env python3
"""Minor page faults per replicate of the benchmark workloads.

    python3 scripts/bench_faults.py [--replicates 144] [--out BENCH_faults.json]

Each workload of ``bench/run.py`` runs in a fresh process with BLAS pinned
to one thread, at seed 0.  The process runs the warm-up replicates that
``bench/run.py`` runs, then ``--replicates`` replicates in a closed loop
through ``bench/workloads.py``, checking each output with its
``OutputCheck`` as the benchmark does.  Around each replicate call it reads
``ru_minflt``.  The file reports, per workload and per (model, n) cell of
its cycle (``fit-em`` has seven), the mean minor faults per replicate, with
the provenance block of ``BENCH_lp.json``.  It reports no times: each
workload runs once per invocation, so a time would follow the host's
speed at that moment rather than the code (``bench/run.py`` compares
times in ``ctl`` units instead).  The 144 replicates of the default are
four cycles of ``fit-em``.  Exits non-zero, without writing, if a run
fails or a check reads wrong.
"""

import os

# must precede the first numpy import, here and in each workload's process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(name, replicates):
    """Run one workload in this process; returns its summary."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from run import warm_up

    workload = workloads.make_workload(name, SEED)
    capture = workloads.install_capture()
    warm_up(workloads, workload)
    check = workloads.OutputCheck(workload)
    samples = {}  # cell -> [faults]
    failed = 0
    for r in range(replicates):
        cfg = workload.cell(r)
        before = minor_faults()
        try:
            raw = workloads.run_replicate(workload, r)
        except RuntimeError as exc:  # the solver and degeneracy errors, as in bench/run.py
            raw, rec = None, workloads.failure_record(exc)
        faults = minor_faults() - before
        if raw is not None:
            rec = workloads.make_record(workload, r, raw, capture)
        failed += rec["status"] != "ok"
        check(r, rec)
        samples.setdefault(f"{cfg.model} n={cfg.n}", []).append(faults)

    def summary(rows):
        return {"replicates": len(rows), "minflt_per_replicate": statistics.fmean(rows)}

    every = [row for rows in samples.values() for row in rows]
    return dict(summary(every), failed=failed, correct=not check.errors,
                compared=check.compared, errors=check.errors[:5],
                cells={cell: summary(rows) for cell, rows in samples.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replicates", type=int, default=144)
    parser.add_argument("--out", default=str(ROOT / "BENCH_faults.json"))
    parser.add_argument("--workload", help="internal: measure this workload, print JSON")
    args = parser.parse_args(argv)
    if args.replicates < 1:
        parser.error("--replicates must be positive")
    if args.workload:
        print(json.dumps(measure(args.workload, args.replicates)))
        return
    # importing bench_lp puts src/, tests/ and bench/ on sys.path
    from bench_lp import provenance
    from run import WORKLOAD_NAMES

    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
               "--replicates", str(args.replicates)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name}: exited {proc.returncode}\n{proc.stderr}")
        results[name] = result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{name}: outputs disagree with bench/reference/: {result['errors']}")
        print(f"{name}: {result['minflt_per_replicate']:.1f} faults per replicate", flush=True)
    out = {"provenance": dict(provenance(1), seed=SEED, replicates=args.replicates),
           "workloads": results}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
