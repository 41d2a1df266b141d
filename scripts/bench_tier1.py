#!/usr/bin/env python3
"""Tier-1 wall time, per test, against a baseline checkout.

    python3 scripts/bench_tier1.py --baseline DIR [--out BENCH_tier1.json]

Each of ``ROUNDS`` rounds runs the Tier-1 suite once on this checkout
and once on the checkout at DIR (for instance a ``git archive`` of the
parent commit), taking turns at going first, as
``scripts/bench_pairs.py`` does, after one untimed run of each side.
A run is ``python -m pytest -q --continue-on-collection-errors`` from
the checkout's root with ``PYTHONPATH`` set to its ``src`` and BLAS
pinned to one thread, plus ``--durations=0 --durations-min=0`` for
every test's setup, call and teardown times and ``-p no:cacheprovider``
so that no run leaves state for the next.  Every run gets a new, empty
Hypothesis database (through ``HYPOTHESIS_STORAGE_DIRECTORY``), so both
sides start from the same database state: none.  Runs drop
``PYTHONDONTWRITEBYTECODE``, so the untimed run of each side leaves
bytecode for its rounds.

``BENCH_tier1.json`` records, per side, the suite's wall time (the
process, start to exit), pytest's own figure and the sum of the tests'
durations (the wall time less that sum is what the suite spends outside
its tests, collection included), as median and quartiles, with each
run's outcome line; per test (its setup, call and teardown summed) the
median and quartiles of each side; and the ten tests whose medians
differ the most between the sides.  pytest prints each phase to 10 ms,
so a test's figure is a sum of those roundings.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

from bench_startup import committed_sha, quartiles, tree_digest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0",
          "--durations-min=0", "-p", "no:cacheprovider"]
#: one line of the ``--durations`` report: seconds, phase, test id
_DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$")
#: pytest's closing line, for instance ``402 passed in 27.04s``
_OUTCOME = re.compile(r"^=* ?(\d+ \w+.*) in (\d+\.\d+)s")
LARGEST = 10
#: timed runs of each side, after one untimed run
ROUNDS = 5
#: every run pins BLAS to one thread, as ``scripts/bench_startup.py`` does
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def parse_report(text):
    """The per-test seconds (phases summed), pytest's reported suite time
    and its outcome text, for instance ``402 passed``, of one run's output."""
    tests, outcome, seconds = {}, None, None
    for line in text.splitlines():
        if match := _DURATION.match(line):
            tests[match[2]] = tests.get(match[2], 0.0) + float(match[1])
        elif match := _OUTCOME.match(line):
            outcome, seconds = match[1].strip(), float(match[2])
    if outcome is None:
        raise ValueError("no pytest outcome line in the report")
    return tests, seconds, outcome


def run_suite(checkout):
    """(wall seconds, per-test seconds, pytest's seconds, outcome) of one
    Tier-1 run on ``checkout``."""
    with tempfile.TemporaryDirectory() as database:
        env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(checkout / "src"),
                   HYPOTHESIS_STORAGE_DIRECTORY=database)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *PYTEST], cwd=checkout, env=env,
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - start
    return (elapsed, *parse_report(proc.stdout))


def summarize(runs):
    """Each side's suite figures, each test's median and quartiles per
    side (None where not every run of the side has the test) and the
    tests whose medians differ the most."""
    suite, tests = {}, {}
    for side, side_runs in runs.items():
        walls, durations, seconds, outcomes = zip(*side_runs)
        suite[side] = {"wall_s": quartiles(walls), "pytest_s": quartiles(seconds),
                       "tests_s": quartiles([sum(d.values()) for d in durations]),
                       "outcomes": list(outcomes)}
        for name in set().union(*durations):
            values = [d[name] for d in durations if name in d]
            tests.setdefault(name, dict.fromkeys(runs))[side] = (
                quartiles(values) if len(values) == len(durations) else None)
    diff = {name: row["change"]["p50"] - row["baseline"]["p50"]
            for name, row in tests.items() if row["change"] and row["baseline"]}
    largest = sorted(diff, key=lambda name: -abs(diff[name]))[:LARGEST]
    return {"suite": suite, "tests": dict(sorted(tests.items())), "largest_differences": [
        {"test": name, "baseline_p50": tests[name]["baseline"]["p50"],
         "change_p50": tests[name]["change"]["p50"], "change_minus_baseline": diff[name]}
        for name in largest]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, metavar="DIR",
                        help="the checkout to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_tier1.json"))
    args = parser.parse_args(argv)
    baseline = pathlib.Path(args.baseline).resolve()
    if not (baseline / "tests").is_dir():
        parser.error(f"--baseline: no tests/ under {baseline}")
    checkouts = {"baseline": baseline, "change": ROOT}

    for checkout in checkouts.values():  # untimed: both sides read compiled bytecode
        run_suite(checkout)
    runs = {side: [] for side in checkouts}
    for r in range(ROUNDS):
        for side in (list(checkouts) if r % 2 == 0 else list(checkouts)[::-1]):
            runs[side].append(run_suite(checkouts[side]))
        print(f"round {r + 1}: " + "; ".join(
            f"{side} {runs[side][-1][0]:.1f} s, {runs[side][-1][3]}" for side in checkouts),
            flush=True)

    result = {"provenance": {
        "git_sha": committed_sha(), "src_sha256": tree_digest(ROOT / "src"),
        "baseline": args.baseline, "baseline_src_sha256": tree_digest(baseline / "src"),
        "rounds": ROUNDS, "command": ["python", *PYTEST], "nproc": os.cpu_count(),
        "python": platform.python_version(), "pytest": version("pytest"),
        "hypothesis": version("hypothesis"), "platform": platform.platform()}}
    result.update(summarize(runs))
    for side, row in result["suite"].items():
        print(f"{side}: wall p50 {row['wall_s']['p50']:.2f} s "
              f"[{row['wall_s']['q1']:.2f}, {row['wall_s']['q3']:.2f}], "
              f"tests p50 {row['tests_s']['p50']:.2f} s")
    for row in result["largest_differences"]:
        print(f"{row['change_minus_baseline']:+.3f} s  {row['test']}")
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
