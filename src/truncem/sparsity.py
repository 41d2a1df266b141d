"""Hard-sparsity primitives: top-s support extraction and truncation."""

import numpy as np


def top_support(beta, s):
    """Indices of the s largest-magnitude entries of ``beta``.

    Ties are broken in favor of the smaller index, so the result is
    deterministic; in particular a zero vector with s > 0 yields
    ``{0, ..., s-1}``.

    Parameters
    ----------
    beta : array_like, shape (d,)
    s : int
        Number of indices to keep, 0 <= s <= d.

    Returns
    -------
    np.ndarray of int, sorted ascending, length min(s, d).
    """
    beta = np.asarray(beta, dtype=float)
    d = beta.shape[0]
    if s < 0 or s > d:
        raise ValueError(f"support size s={s} outside [0, {d}]")
    if s == 0:
        return np.empty(0, dtype=int)
    mag = np.abs(beta)
    part = mag.copy()  # np.partition and np.flatnonzero, without their wrappers
    part.partition(d - s)
    support = (mag >= part[d - s]).nonzero()[0]
    if support.size == s:  # no tie or NaN at the cut: the argsort keeps these
        return support
    # stable sort on -|beta| keeps smaller indices first among ties
    order = np.argsort(-mag, kind="stable")
    return np.sort(order[:s])


def hard_truncate(beta, support):
    """Zero out every entry of ``beta`` outside ``support``."""
    beta = np.asarray(beta, dtype=float)
    support = np.asarray(support, dtype=int)
    if support.size and (support.min() < 0 or support.max() >= beta.shape[0]):
        raise ValueError("support index out of range")
    out = np.zeros(beta.shape)
    out[support] = beta[support]
    return out
