#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a baseline checkout against this one.

    python3 scripts/bench_pairs.py --baseline DIR --workload W --pairs N \\
        --seconds S --seed K

Each pair runs ``bench/run.py --workload W --seed K --seconds S --trace 0``
once from the checkout at DIR (the baseline, for instance a ``git
archive`` of the parent commit) and once from this checkout, each with
its own ``bench/`` and ``src/``, through ``sides.run_bench``; the baseline
goes first in even pairs and this checkout in odd ones, after one untimed
run of each side that leaves it compiled bytecode (``sides.alternate``).
A run that exits non-zero or reads ``correct: false`` stops the script
with a non-zero exit.

It prints each side's median share of failed replicates and, for every
end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change of the medians, the number of pairs each side won
(ties count for neither) and two verdicts:

- ``gain``: the change won at least nine tenths of the pairs, its median
  beats the baseline's by more than the distance between the baseline's
  quartiles, and its median share of failed replicates is no larger;
- ``regression``: ``YES`` when the change's median is worse than the
  baseline's by more than the metric's bound in ``BENCHMARK.json``;
  otherwise ``unresolved`` when the baseline's quartiles are further
  apart than that bound and not every change run beats every baseline
  run, as such a spread cannot tell a regression within the bound from
  none; otherwise ``no``.

It also writes what it prints to ``BENCH_pairs.json`` at the root of
this checkout, one entry per workload: the baseline as given, the seed,
the seconds, the pairs, each side's run metrics in pair order, each
side's median share of failed replicates and the summary rows.  A run
replaces its workload's entry and keeps the others.  Nothing under
``bench/`` is changed.
"""

import argparse
import json
import pathlib
import statistics

from sides import ROOT, alternate, quartiles, run_bench

OUT = ROOT / "BENCH_pairs.json"
SIDES = ("baseline", "change")


def pair_metrics(result):
    """The end-to-end metrics of one run, with its share of failed
    replicates as ``failed_frac``."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    return metrics


def summarize(runs, spec):
    """Medians, quartiles, wins and verdicts of one end-to-end metric."""
    name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
    base = [r[name] for r in runs["baseline"]]
    new = [r[name] for r in runs["change"]]
    bq, nq = quartiles(base), quartiles(new)
    spread = bq["q3"] - bq["q1"]
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    gain = sign * (nq["p50"] - bq["p50"])  # positive when the change is better
    bound = spec["bound"] * abs(bq["p50"])
    fails_more = (statistics.median(r["failed_frac"] for r in runs["change"])
                  > statistics.median(r["failed_frac"] for r in runs["baseline"]))
    every_run_better = min(sign * v for v in new) > max(sign * v for v in base)
    if -gain > bound:
        regression = "YES"
    elif spread > bound and not every_run_better:
        regression = "unresolved"
    else:
        regression = "no"
    return {
        "metric": name,
        "better": spec["better"],
        "baseline": bq,
        "change": nq,
        "rel_change": nq["p50"] / bq["p50"] - 1 if bq["p50"] else None,
        "change_wins": wins,
        "baseline_wins": losses,
        "gain": wins >= 0.9 * len(base) and gain > spread and not fails_more,
        "regression": regression,
    }


def save_entry(path, workload, entry):
    """Set ``workload``'s entry of the JSON object at ``path``, keeping the
    other workloads' entries."""
    entries = json.loads(path.read_text()) if path.is_file() else {}
    entries[workload] = entry
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, metavar="DIR",
                        help="the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    baseline = pathlib.Path(args.baseline).resolve()
    if not (baseline / "bench" / "run.py").is_file():
        parser.error(f"--baseline: no bench/run.py under {baseline}")
    checkouts = {"baseline": baseline, "change": ROOT}
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run(side):
        return pair_metrics(run_bench(checkouts[side], args.workload, args.seed,
                                      args.seconds, trace=0))

    def report(p, runs):
        print(f"pair {p + 1}: " + "; ".join(
            f"{side} " + ", ".join(f"{s['name']} {runs[side][-1][s['name']]:.4g}" for s in specs)
            for side in SIDES), flush=True)

    runs = alternate(run, SIDES, args.pairs, report)
    summary = [summarize(runs, spec) for spec in specs]
    failed = {side: statistics.median(r["failed_frac"] for r in runs[side]) for side in SIDES}
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("failed share         " + "  ".join(f"{side} {failed[side]:.4g}" for side in SIDES))
    for row in summary:
        b, c = row["baseline"], row["change"]
        rel = "n/a" if row["rel_change"] is None else f"{row['rel_change']:+.1%}"
        print(f"{row['metric']:20s} baseline {b['p50']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f"  change {c['p50']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {rel}"
              f"  wins {row['change_wins']}-{row['baseline_wins']}"
              f"  gain {'yes' if row['gain'] else 'no'}"
              f"  regression {row['regression']}")
    save_entry(OUT, args.workload, {
        "baseline": args.baseline, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "runs": runs, "failed_share": failed, "summary": summary})


if __name__ == "__main__":
    main()
