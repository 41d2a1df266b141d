#!/usr/bin/env python3
"""Per-layer baseline of the benchmark workloads, as a committed file.

    python3 scripts/bench_layers.py [--out BENCH_layers.json]

Runs ``python3 bench/run.py --workload W --seed 0 --seconds 8 --trace 1``
once for each workload of ``BENCHMARK.json``, one after another, through
``sides.run_bench``, and keeps the JSON object each run prints on its
last line: ``correct``, ``attempted``, ``failed`` and the per-layer
metrics (summed self time and calls per replicate; see
``bench/README.md``).  The file gets the provenance block of
``sides.provenance`` (git SHA, ``src`` digest, nproc, versions).  Exits
non-zero, without writing, if a run fails or reads ``correct: false``.
"""

import argparse
import json
import pathlib

from sides import ROOT, provenance, run_bench

SEED = 0
SECONDS = 8


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    workloads = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = spec["name"]
        workloads[name] = result = run_bench(ROOT, name, SEED, SECONDS, trace=1)
        metrics = result["metrics"]
        print(f"{name}: {result['attempted']} replicates, failed {result['failed']}, "
              f"loglik calls {metrics['models.loglik.calls']['value']}", flush=True)
    out = {"provenance": provenance("numpy", "scipy", seed=SEED, seconds=SECONDS, trace=1),
           "workloads": workloads}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
