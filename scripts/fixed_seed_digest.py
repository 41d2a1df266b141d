#!/usr/bin/env python3
"""Digests of the package's fixed-seed outputs, to compare two checkouts.

    PYTHONPATH=src python3 scripts/fixed_seed_digest.py

Prints one JSON line that maps each output below to the sha256 of its
bytes:

- ``infer_replicate-GMM``, ``infer_replicate-MR``: the records of
  ``harness.infer_replicate`` for seeds 0 to 199 at the command-line
  defaults (d=256, n=100), as JSON;
- ``homotopy-pivots-MR``: the pivots of every decorrelation LP those MR
  replicates solve, as JSON: each basis update of the homotopy in order,
  as its name and its index and sign arguments, so that two checkouts
  that take the same pivots print the same digest;
- ``<command>-GMM`` and ``<command>-MR`` for ``trace``, ``fit``,
  ``infer``, ``typeone`` and ``scaling``: what the command prints and
  writes to its ``--out`` file or files on a small config (d=16, n=60,
  s*=2; scaling on the same d, n and s*);
- ``dataset-csv-GMM``, ``dataset-csv-MR`` and ``dataset-csv-RMC``: the
  text ``datagen.dataset_to_csv`` writes for one generated dataset of
  each model (d=16, n=60; RMC with ``p_missing`` 0.25, so that its mask
  has zeros);
- ``fit-data-GMM``, ``infer-data-GMM``, ``fit-data-MR``,
  ``infer-data-MR`` and ``fit-data-RMC``: the same as the commands above
  for ``fit`` and ``infer --data`` on that CSV (RMC has no ``infer``);
- the paths where EM reaches an exact fixed point late or must not stop
  at one, each at the defaults but for its flags: ``fit`` and ``trace``
  of MR with the exact M-step at d=64, n=100 (``*-MR-exact``); ``fit``,
  ``trace`` and ``infer`` of GMM at sigma=3 (``*-GMM-sigma3``); and a
  resampled GMM ``fit`` (``fit-GMM-resample``).

``truncem`` is imported from ``PYTHONPATH``, so comparing two checkouts
is one run with each checkout's ``src`` and a ``diff`` of the two lines.
The commands run in this process, as the ``truncem`` console script runs
them, inside a temporary working directory, and every ``--out`` and
the data file take one relative name there: the config each output
echoes then holds the same paths in every run.  BLAS is pinned to one
thread.
"""

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from truncem import cli, lp  # noqa: E402
from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star  # noqa: E402
from truncem.harness import DEFAULT_SIGMA, ExperimentConfig, infer_replicate  # noqa: E402

SEEDS = range(200)
MODELS = ("GMM", "MR")
SMALL = ("--d", "16", "--n", "60", "--s-star", "2", "--seed", "3")
COMMANDS = {
    "trace": (),
    "fit": (),
    "infer": (),
    "typeone": ("--replicates", "5"),
    "scaling": ("--scaling-d", "16", "--n-grid", "60", "--s-star-grid", "2",
                "--scaling-replicates", "2"),
}
LATE_OR_NO_EXIT = {
    "fit-MR-exact": ("fit", "--model", "MR", "--m-step", "exact", "--d", "64", "--n", "100"),
    "trace-MR-exact": ("trace", "--model", "MR", "--m-step", "exact", "--d", "64",
                       "--n", "100"),
    **{f"{command}-GMM-sigma3": (command, "--model", "GMM", "--sigma", "3")
       for command in ("fit", "trace", "infer")},
    "fit-GMM-resample": ("fit", "--model", "GMM", "--resample"),
}
OUT, DATA = "out", "data.csv"
#: the homotopy's basis updates, one per pivot
UPDATES = ("border", "replace_row", "replace_col", "downdate")


def replicate_records(model):
    cfg = ExperimentConfig(model=model).resolve("typeone")
    return json.dumps([infer_replicate(cfg, seed) for seed in SEEDS]).encode()


@contextlib.contextmanager
def logged_pivots():
    """A list that gets each basis update of ``lp._Basis`` made in the
    block, as its name and its scalar (index and sign) arguments."""
    log, updates = [], {name: getattr(lp._Basis, name) for name in UPDATES}

    def logged(name, update):
        def run(self, *args):
            log.append([name] + [v.item() if isinstance(v, np.generic) else v
                                 for v in args if np.ndim(v) == 0])
            return update(self, *args)

        return run

    for name, update in updates.items():
        setattr(lp._Basis, name, logged(name, update))
    try:
        yield log
    finally:
        for name, update in updates.items():
            setattr(lp._Basis, name, update)


def command_output(*argv):
    """What ``truncem *argv --out out`` prints, then the name and bytes of
    each file it writes, which are removed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        cli.main([*argv, "--out", OUT])
    data = printed.getvalue().encode()
    for path in sorted(pathlib.Path().glob(OUT + "*")):
        data += path.name.encode() + b"\n" + path.read_bytes()
        path.unlink()
    return data


def write_dataset(model):
    """The bytes of one generated dataset that ``dataset_to_csv`` writes
    to ``DATA``."""
    spec = GenSpec(model=model, n=60, d=16, beta_star=make_beta_star(16, (4.0, 6.0)),
                   sigma=DEFAULT_SIGMA[model], p_missing=0.25 if model == "RMC" else 0.0,
                   seed=7)
    dataset_to_csv(gen_dataset(spec), DATA)
    return pathlib.Path(DATA).read_bytes()


def outputs():
    yield "infer_replicate-GMM", replicate_records("GMM")
    with logged_pivots() as pivots:
        records = replicate_records("MR")
    yield "infer_replicate-MR", records
    yield "homotopy-pivots-MR", json.dumps(pivots).encode()
    for model in MODELS:
        for command, flags in COMMANDS.items():
            yield f"{command}-{model}", command_output(command, "--model", model,
                                                       *SMALL, *flags)
        yield f"dataset-csv-{model}", write_dataset(model)
        for command in ("fit", "infer"):
            yield f"{command}-data-{model}", command_output(command, "--model", model,
                                                            "--data", DATA)
    yield "dataset-csv-RMC", write_dataset("RMC")
    yield "fit-data-RMC", command_output("fit", "--model", "RMC", "--data", DATA)
    for name, argv in LATE_OR_NO_EXIT.items():
        yield name, command_output(*argv)


def main():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs()}
        finally:
            os.chdir(cwd)
    print(json.dumps(digests))


if __name__ == "__main__":
    main()
