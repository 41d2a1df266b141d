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

MODEL_TAGS = ("GMM", "MR", "RMC")


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
    """Write the samples of a model's dataset as CSV.

    GMM rows: y_0..y_{d-1}.  MR rows: x_0..x_{d-1}, y.  RMC rows:
    x_0..x_{d-1}, m_0..m_{d-1}, y (mask entries are 0/1).
    """
    d = model.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if model.tag == "GMM":
            writer.writerow([f"y{j}" for j in range(d)])
            for row in model.y:
                writer.writerow([repr(float(v)) for v in row])
        elif model.tag == "MR":
            writer.writerow([f"x{j}" for j in range(d)] + ["y"])
            for xi, yi in zip(model.x, model.y):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
        else:
            writer.writerow(
                [f"x{j}" for j in range(d)] + [f"m{j}" for j in range(d)] + ["y"]
            )
            for xi, mi, yi in zip(model.x, model.mask, model.y):
                writer.writerow(
                    [repr(float(v)) for v in xi]
                    + [str(int(v)) for v in mi]
                    + [repr(float(yi))]
                )


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
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if tag == "GMM":
        return GaussianMixture(data, sigma)
    if tag == "MR":
        return MixtureRegression(data[:, :-1], data[:, -1], sigma)
    if data.shape[1] % 2 == 0:
        raise ValueError(f"{path}: RMC needs 2d + 1 columns, got {data.shape[1]}")
    d = (data.shape[1] - 1) // 2
    return MissingCovariateRegression(
        data[:, :d], data[:, d : 2 * d], data[:, -1], sigma
    )
