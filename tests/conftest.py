"""Shared fixtures and small random model factories."""

import numpy as np
import pytest

from truncem.models import GaussianMixture, MissingCovariateRegression, MixtureRegression

#: one summary line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_gmm(rng, n=20, d=5, sigma=1.0, scale=2.0):
    y = scale * rng.standard_normal((n, d))
    return GaussianMixture(y, sigma)


def random_mr(rng, n=20, d=5, sigma=1.0, scale=2.0):
    x = rng.standard_normal((n, d))
    y = scale * rng.standard_normal(n)
    return MixtureRegression(x, y, sigma)


def random_rmc(rng, n=20, d=5, sigma=1.0, p_missing=0.3):
    x = rng.standard_normal((n, d))
    mask = (rng.uniform(size=(n, d)) >= p_missing).astype(float)
    y = 2.0 * rng.standard_normal(n)
    return MissingCovariateRegression(x, mask, y, sigma)


def count_m_steps(monkeypatch, cls):
    """Record every M-step call on instances of ``cls``, by method name."""
    calls = []
    for name in ("m_step_exact", "m_step_gradient"):
        def counted(self, *args, _name=name, _method=getattr(cls, name)):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
