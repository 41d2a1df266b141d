#!/usr/bin/env python3
"""The three standard experiments for both mixture models, at the CLI
defaults, written into one output directory:

- trace_<model>.csv: per-iteration opt_error, est_error and loglik of one
  fit; opt_error on a log scale shows the geometric decay.
- scaling_<model>.csv: estimation error over the (s*, n) grid at d = 128;
  the "mean" rows against x = sqrt(s* log d / n) should be close to linear.
- typeone_<model>.csv/.json: 500 generate -> fit -> test replicates under
  the true null H0: beta_10 = 0 at level 0.05; both rejection rates in the
  summary should land near 0.05.
"""

import argparse
import pathlib

from truncem.cli import main as cli_main

#: experiment -> suffix of its --out path (typeone adds .csv and .json)
EXPERIMENTS = {"trace": ".csv", "scaling": ".csv", "typeone": ""}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for command, suffix in EXPERIMENTS.items():
        for model in ("GMM", "MR"):
            out = outdir / f"{command}_{model.lower()}{suffix}"
            cli_main([command, "--model", model, "--seed", str(args.seed),
                      "--out", str(out)])


if __name__ == "__main__":
    main()
