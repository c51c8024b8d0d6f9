"""Brute-force row log-likelihoods, used by the tests as oracles.

Built from scipy's distribution pmfs rather than the series kernel's own
helpers, so agreement between the two routes is evidence, not tautology.
"""

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom, nbinom, poisson

from nmixfit import ModelError, RowLikelihoodInput


def row_loglik_bruteforce(row: RowLikelihoodInput, n_max: int) -> float:
    """Direct log-sum-exp over the latent abundance from max(y) to ``n_max``."""
    ystar = int(np.max(row.y))
    n_max = int(n_max)
    if n_max < ystar:
        raise ModelError(f"n_max={n_max} is below the largest count {ystar}")
    grid = np.arange(ystar, n_max + 1)
    if row.theta is None:
        terms = poisson.logpmf(grid, row.lam)
    else:
        terms = nbinom.logpmf(grid, row.theta, row.theta / (row.theta + row.lam))
    for j in range(row.y.size):
        terms = terms + binom.logpmf(row.y[j], grid, row.p[j])
    return float(logsumexp(terms))


def bruteforce_table(counts, mask, lam, p, theta, n_max):
    """Vectorised brute-force row log-likelihoods over per-row grids.

    Each row's grid runs from its own max(y) to its entry of ``n_max``,
    so the term count matches what the recursion summed.
    """
    ystar = np.max(np.where(mask, counts, -np.inf), axis=1)
    n_max = np.asarray(n_max, dtype=float)
    width = int(np.max(n_max - ystar)) + 1
    grid = ystar[:, None] + np.arange(width, dtype=float)[None, :]
    if theta is None:
        terms = poisson.logpmf(grid, lam[:, None])
    else:
        terms = nbinom.logpmf(grid, theta, theta / (theta + lam[:, None]))
    for j in range(counts.shape[1]):
        col = binom.logpmf(counts[:, j][:, None], grid, p[:, j][:, None])
        if mask[:, j].all():
            terms = terms + col
        else:
            terms = terms + np.where(mask[:, j][:, None], col, 0.0)
    valid = grid <= n_max[:, None]
    return logsumexp(np.where(valid, terms, -np.inf), axis=1)
