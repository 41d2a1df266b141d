"""Truncated high-dimensional EM with decorrelated score/Wald inference.

The package fits two-component latent-variable models (symmetric Gaussian
mixture, mixture of regressions, regression with missing covariates) by an
EM loop whose M-step output is hard-truncated to its largest-magnitude
coordinates, and provides debiased hypothesis tests and confidence
intervals for single coordinates of the fitted parameter.
"""

from .errors import (
    DegenerateInformationError,
    LpInfeasibleError,
    UnsupportedOperationError,
)
from .sparsity import hard_truncate, top_support
from .models import GaussianMixture, MissingCovariateRegression, MixtureRegression
from .lp import clime_inverse, dantzig_direction
from .em import EmConfig, EmTrace, run_em
from .inference import InferenceConfig, InferenceResult, score_test, wald_test
from .datagen import GenSpec, gen_dataset, make_beta_star, make_init

__all__ = [
    "DegenerateInformationError",
    "EmConfig",
    "EmTrace",
    "GaussianMixture",
    "GenSpec",
    "InferenceConfig",
    "InferenceResult",
    "LpInfeasibleError",
    "MissingCovariateRegression",
    "MixtureRegression",
    "UnsupportedOperationError",
    "clime_inverse",
    "dantzig_direction",
    "gen_dataset",
    "hard_truncate",
    "make_beta_star",
    "make_init",
    "run_em",
    "score_test",
    "top_support",
    "wald_test",
]
