"""Trial sizing and distribution tests shared by the harness and the suite."""
from __future__ import annotations

import math

import numpy as np


def chernoff_halfwidth(m: int, delta: float) -> float:
    """Two-sided deviation lam such that m trials fail it with probability
    at most delta."""
    if m < 1:
        raise ValueError("need at least one trial")
    if not 0 < delta <= 1:
        raise ValueError("failure probability must be in (0, 1]")
    return math.sqrt(math.log(2 / delta) / (2 * m))


def chi_square_gof(observed: np.ndarray, weights: np.ndarray) -> tuple[float, float, int]:
    """Goodness of fit of observed counts against integer (or rational)
    weights; returns (statistic, p-value, degrees of freedom).

    Bins with zero weight must be empty: any observation there makes the
    null impossible and the p-value is exactly 0. The statistic is
    Pearson's sum and the p-value the chi-square survival function, both
    the bits ``scipy.stats.chisquare`` gives, without scipy: the p-value is
    :func:`fsjunta._chi2.chdtrc`, a float-for-float port of scipy's
    ``chdtrc``, imported here rather than at module level since only
    fs-dist runs this test.

    It works on two float64 copies of its inputs and nothing else as long
    as them (bar one bool mask): every step of the statistic runs in place,
    in the order ``scipy.stats.chisquare`` runs it. The inputs may be any
    integer arrays, the strided fields of a record array included, and are
    not modified.
    """
    from ._chi2 import chdtrc

    obs = np.array(observed, dtype=np.float64)
    expected = np.array(weights, dtype=np.float64)
    if obs.shape != expected.shape:
        raise ValueError("observed and weights must align")
    support = expected > 0
    if not support.all():
        if np.any(obs[~support] > 0):
            return math.inf, 0.0, int(np.count_nonzero(support)) - 1
        obs, expected = obs[support], expected[support]
    if obs.size == 1:
        # Point mass: nothing to test once off-support bins are known empty.
        return 0.0, 1.0, 0
    # scipy.stats.chisquare's float64 operations, in its order:
    # expected = weights / sum(weights) * sum(obs), then
    # stat = sum((obs - expected) ** 2 / expected); x ** 2 is x * x.
    expected /= expected.sum()
    expected *= obs.sum()
    obs -= expected
    obs *= obs
    obs /= expected
    stat = float(obs.sum())
    dof = int(obs.size) - 1
    return stat, chdtrc(dof, stat), dof
