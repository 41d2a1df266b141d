"""Fixed-seed outputs of every pipeline, pinned against a golden file.

``golden.json`` holds the JSON-ready output of each case below.  Supports,
reject flags, iteration counts and degenerate flags must match exactly;
floats must match to a relative 1e-12.  Refactors that should not change
what a command computes are checked against it.

Regenerate the file only from a commit whose outputs are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import pathlib

import pytest

from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star
from truncem.harness import (
    ExperimentConfig,
    run_fit,
    run_infer,
    run_scaling,
    run_trace,
    run_typeone,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
REL_TOL = 1e-12

SMALL = dict(d=24, n=80, s_star=3, alpha_index=5, seed=7)
#: name -> (pipeline, config overrides)
CASES = {
    "gmm-trace": ("trace", dict(model="GMM")),
    "gmm-fit": ("fit", dict(model="GMM")),
    "gmm-infer": ("infer", dict(model="GMM")),
    "gmm-typeone": ("typeone", dict(model="GMM", replicates=5)),
    # noise large enough that the plug-in information of replicate 3 is
    # not positive
    "gmm-typeone-degenerate": ("typeone", dict(model="GMM", n=20, sigma=20.0,
                                               replicates=5)),
    "gmm-infer-degenerate": ("infer", dict(model="GMM", n=20, sigma=20.0, seed=10)),
    "mr-trace": ("trace", dict(model="MR")),
    "mr-fit": ("fit", dict(model="MR")),
    "mr-infer": ("infer", dict(model="MR")),
    "mr-typeone": ("typeone", dict(model="MR", replicates=5)),
    "rmc-trace": ("trace", dict(model="RMC")),
    "rmc-fit": ("fit", dict(model="RMC")),
    "gmm-fit-resample": ("fit", dict(model="GMM", n=100, n_iter=5, resample=True)),
    "gmm-scaling": ("scaling", dict(model="GMM", s_star_grid=(2, 3), n_grid=(60,),
                                    scaling_replicates=2, scaling_d=16)),
    "gmm-fit-data": ("fit", dict(model="GMM", data_csv=True)),
    "mr-infer-data": ("infer", dict(model="MR", data_csv=True)),
}

PIPELINES = {
    "trace": run_trace,
    "fit": run_fit,
    "infer": run_infer,
    "typeone": run_typeone,
    "scaling": run_scaling,
}


def _write_data(model, directory):
    """External-data input: the case's own synthetic dataset as a CSV."""
    cfg = ExperimentConfig(**SMALL, model=model).resolve()
    beta_star = make_beta_star(cfg.d, cfg.beta_values)
    data = gen_dataset(GenSpec(model, cfg.n, cfg.d, beta_star, cfg.sigma,
                               seed=cfg.seed))
    path = pathlib.Path(directory) / f"{model}.csv"
    dataset_to_csv(data, path)
    return str(path)


def run_case(name, directory):
    pipeline, overrides = CASES[name]
    settings = dict(SMALL, **overrides)
    if settings.get("data_csv"):
        settings["data_csv"] = _write_data(settings["model"], directory)
    out = PIPELINES[pipeline](ExperimentConfig(**settings))
    if settings.get("data_csv"):
        out["config"]["data_csv"] = "<data>"  # a per-run temporary path
    # through JSON, as the commands write it: tuples become lists
    return json.loads(json.dumps(out))


def assert_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}")
    else:
        # ints, bools, strings and None: supports, flags and counts
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden, tmp_path):
    assert_matches(run_case(name, tmp_path), golden[name])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = {name: run_case(name, tmp) for name in sorted(CASES)}
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN} ({len(result)} cases)")
