"""Seeded synthetic data for the three models, plus initialization.

All randomness flows through ``numpy.random.default_rng`` (PCG64 seeded
via SeedSequence), so a given ``GenSpec`` reproduces the same dataset
bit for bit on any platform, and nearby seeds give independent streams.
Gaussian variates use numpy's ziggurat ``standard_normal``.

Draw order per model (fixed, do not reorder):
  GMM:  signs (n), then noise (n, d)
  MR:   design (n, d), signs (n), noise (n)
  RMC:  design (n, d), noise (n), mask uniforms (n, d)
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .models import GaussianMixture, MissingCovariateRegression, MixtureRegression

_MODELS = {cls.tag: cls for cls in (GaussianMixture, MixtureRegression,
                                    MissingCovariateRegression)}
MODEL_TAGS = tuple(_MODELS)


@dataclass
class GenSpec:
    """Recipe for one synthetic dataset."""

    model: str
    n: int
    d: int
    beta_star: np.ndarray
    sigma: float
    p_missing: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        if self.beta_star.shape != (self.d,):
            raise ValueError("beta_star must have length d")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0 <= self.p_missing < 1:
            raise ValueError("p_missing must lie in [0, 1)")
        if self.model in ("GMM", "MR") and not self.beta_star.any():
            raise ValueError(f"{self.model} requires a nonzero beta_star")


def make_beta_star(d, values):
    """Sparse truth: ``values`` in the leading coordinates, zeros after."""
    values = np.asarray(values, dtype=float)
    if values.size > d:
        raise ValueError("more values than dimensions")
    beta = np.zeros(d)
    beta[: values.size] = values
    return beta


def gen_dataset(spec: GenSpec):
    """Generate data per ``spec`` and wrap it in the matching model."""
    rng = np.random.default_rng(spec.seed)
    if spec.model == "GMM":
        signs = rng.integers(0, 2, size=spec.n) * 2.0 - 1.0
        y = rng.standard_normal((spec.n, spec.d))  # the data, built in place
        y *= spec.sigma
        nz = np.flatnonzero(spec.beta_star)  # adding +-0 elsewhere is exact
        y[:, nz] += signs[:, None] * spec.beta_star[nz]
        return GaussianMixture(y, spec.sigma)
    if spec.model == "MR":
        x = rng.standard_normal((spec.n, spec.d))
        signs = rng.integers(0, 2, size=spec.n) * 2.0 - 1.0
        y = signs * (x @ spec.beta_star) + spec.sigma * rng.standard_normal(spec.n)
        return MixtureRegression(x, y, spec.sigma)
    x = rng.standard_normal((spec.n, spec.d))
    y = x @ spec.beta_star + spec.sigma * rng.standard_normal(spec.n)
    mask = rng.uniform(size=(spec.n, spec.d))
    np.greater_equal(mask, spec.p_missing, out=mask)  # 0/1 in the draw's array
    return MissingCovariateRegression(x, mask, y, spec.sigma)


def make_init(beta_star, rel_err, seed):
    """Truth plus a seeded random direction of exact relative length.

    The perturbation is scaled so that the l2 distance to ``beta_star``
    equals ``rel_err * ||beta_star||_2`` up to roundoff.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    if not 0 <= rel_err < np.inf:
        raise ValueError("rel_err must be nonnegative")
    if rel_err == 0:
        return beta_star.copy()
    norm = math.sqrt(beta_star.dot(beta_star))  # np.linalg.norm of a 1-D vector
    if norm == 0:
        raise ValueError("beta_star must be nonzero when rel_err > 0")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(beta_star.shape[0])
    direction /= math.sqrt(direction.dot(direction))
    return beta_star + rel_err * norm * direction


def dataset_to_csv(model, path):
    """Write the samples of a model's dataset as CSV, one row per sample.

    The columns are the model's ``sample_arrays`` side by side: an array
    with one entry per sample is one column under its name, one with an
    entry per coordinate d columns under its initial and the coordinate
    (no two declared arrays share an initial).  GMM rows are
    y_0..y_{d-1}, MR rows x_0..x_{d-1}, y and RMC rows x_0..x_{d-1},
    m_0..m_{d-1}, y.
    """
    header, blocks = [], []
    for name, per_coordinate in model.sample_arrays:
        header += [f"{name[0]}{j}" for j in range(model.dim)] if per_coordinate else [name]
        values = getattr(model, name).reshape(model.n_samples, -1)
        # the mask's 0/1 entries are written as integers, every other number
        # as the repr of its float, which reads back bit for bit
        number = int if name == "mask" else float
        blocks.append([[repr(number(v)) for v in row] for row in values.tolist()])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([text for block in row for text in block] for row in zip(*blocks))


def dataset_from_csv(tag, path, sigma):
    """Read a dataset written by ``dataset_to_csv`` back into a model."""
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = []
        for k, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {k} has {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: row {k}: {exc}") from None
    if not rows or not header:  # a file of blank lines has rows of no fields
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    cls = _MODELS[tag]
    wide = sum(per_coordinate for _, per_coordinate in cls.sample_arrays)
    narrow = len(cls.sample_arrays) - wide
    d, extra = divmod(data.shape[1] - narrow, wide)
    if extra:
        raise ValueError(f"{path}: {tag} needs {wide}d + {narrow} columns, got {data.shape[1]}")
    arrays, start = [], 0
    for _, per_coordinate in cls.sample_arrays:
        arrays.append(data[:, start : start + d] if per_coordinate else data[:, start])
        start += d if per_coordinate else 1
    return cls(*arrays, sigma)
