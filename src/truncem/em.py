"""The truncated EM loop, with an optional data-splitting mode."""

from dataclasses import dataclass, field

import numpy as np

from .sparsity import hard_truncate, top_support

EXACT = "exact"
GRADIENT = "gradient"


@dataclass
class EmConfig:
    """Knobs of the truncated EM loop.

    s_hat: number of coordinates kept by the truncation step.
    n_iter: number of EM iterations; an exact fixed point ends the loop
        and is repeated up to this many.
    m_step: "exact" or "gradient".
    eta: stepsize for the gradient M-step.
    resample: use a fresh contiguous data block per iteration.
    """

    s_hat: int
    n_iter: int
    m_step: str = EXACT
    eta: float = 1.0
    resample: bool = False

    def __post_init__(self):
        if self.s_hat < 1:
            raise ValueError("s_hat must be >= 1")
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if self.resample and self.n_iter < 1:
            raise ValueError("resampled EM needs n_iter >= 1")
        if self.m_step not in (EXACT, GRADIENT):
            raise ValueError(f"unknown m_step {self.m_step!r}")
        if self.m_step == GRADIENT and not 0 <= self.eta < np.inf:
            raise ValueError("eta must be nonnegative")


@dataclass
class EmTrace:
    """Full iterate history of one EM run.

    ``iterates`` holds beta^(0) ... beta^(T) and ``supports`` the
    truncation supports: ``iterates[t + 1]`` keeps, at ``supports[t]``, the
    ``s_hat`` largest entries of the M-step from ``iterates[t]``, or repeat
    an exact fixed point.  The log
    likelihood is not recorded: neither the estimate nor the decorrelated
    tests read it, so callers that report it evaluate ``model.loglik`` on
    the iterates.
    """

    iterates: list = field(default_factory=list)
    supports: list = field(default_factory=list)

    @property
    def estimate(self):
        return self.iterates[-1]


def resample_block(n_samples, n_iter):
    """Samples per block of resampled EM over ``n_iter >= 1`` iterations."""
    if n_samples < n_iter:
        raise ValueError(f"cannot split {n_samples} samples into {n_iter} blocks")
    return n_samples // n_iter


def run_em(model, init, cfg: EmConfig):
    """Truncated EM: alternate the M-step with hard truncation.

    Returns an EmTrace with n_iter + 1 iterates.  Without ``cfg.resample``
    an iterate that repeats the last byte for byte ends the loop, since the
    map is deterministic, and fills the trace (the same arrays; no caller
    writes to them).  With ``cfg.resample`` iteration t sees only the t-th
    data block: the first ``n_iter * (n // n_iter)`` samples are split into
    ``n_iter`` contiguous blocks in the given order and trailing samples
    are discarded.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (model.dim,):
        raise ValueError(f"init must have shape ({model.dim},)")
    if cfg.s_hat > model.dim:
        raise ValueError("s_hat exceeds the parameter dimension")
    if cfg.resample:
        block = resample_block(model.n_samples, cfg.n_iter)
    trace = EmTrace()
    beta = hard_truncate(init, top_support(init, cfg.s_hat))
    trace.iterates.append(beta)
    for t in range(cfg.n_iter):
        source = model
        if cfg.resample:
            source = model.subset(np.arange(t * block, (t + 1) * block))
        if cfg.m_step == EXACT:
            half = source.m_step_exact(beta)
        else:
            half = source.m_step_gradient(beta, cfg.eta)
        support = top_support(half, cfg.s_hat)
        prev, beta = beta, np.zeros(half.shape)
        beta[support] = half[support]  # hard_truncate without re-checking the support
        trace.supports.append(support)
        trace.iterates.append(beta)
        if not cfg.resample and beta.tobytes() == prev.tobytes():  # -0.0 is not 0.0
            trace.supports += [support] * (cfg.n_iter - 1 - t)
            trace.iterates += [beta] * (cfg.n_iter - 1 - t)
            break
    return trace
