"""Reference computations for checking nmixfit, sharing no code with it.

Everything here is built from scipy.stats pmfs and closed forms, so a
fault in nmixfit's series kernel, truncation rule or parameter mapping
cannot hide in the reference as well.

Model: row i has latent N_i ~ Poisson(lam_i) or NB(size theta, mean
lam_i), and each observed survey j records y_ij ~ Binomial(N_i, p_ij),
with lam = exp(X beta) and p = expit(W alpha).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, logsumexp
from scipy.stats import binom, nbinom, norm, poisson

REL_TOL = 1e-12
_START_WIDTH = 64
_MAX_WIDTH = 1 << 22


def row_logliks(y, p, lam, theta=None, mask=None):
    """Brute-force log-likelihood of every row.

    The grid over N starts at each row's largest count and is doubled
    until doubling it again moves no row's likelihood by more than 1e-12
    relative (its log by more than 1e-12 absolute, or relative when the
    log is large).

    y, p : (n_rows, n_surveys); lam : (n_rows,); theta : NB size or None;
    mask : True where a survey was carried out (default all True).
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mask = np.ones(y.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    y = np.where(mask, y, 0.0)
    p = np.where(mask, p, 0.5)
    out = np.empty(y.shape[0])
    rows = np.arange(y.shape[0])
    width = _START_WIDTH
    prev = _logsum(y, p, mask, lam, theta, width)
    while rows.size:
        width *= 2
        if width > _MAX_WIDTH:
            raise ArithmeticError(f"oracle grid did not settle for rows {rows[:5]}")
        cur = _logsum(y[rows], p[rows], mask[rows], lam[rows], theta, width)
        done = np.abs(cur - prev) <= REL_TOL * np.maximum(1.0, np.abs(cur))
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
    return out


def _logsum(y, p, mask, lam, theta, width):
    ystar = np.max(np.where(mask, y, -1.0), axis=1)
    grid = ystar[:, None] + np.arange(width, dtype=float)[None, :]
    if theta is None:
        terms = poisson.logpmf(grid, lam[:, None])
    else:
        terms = nbinom.logpmf(grid, theta, theta / (theta + lam[:, None]))
    for j in range(y.shape[1]):
        col = binom.logpmf(y[:, j][:, None], grid, p[:, j][:, None])
        terms = terms + np.where(mask[:, j][:, None], col, 0.0)
    return logsumexp(terms, axis=1)


def model_loglik(x, abundance, detection, y, mask=None, nb=True):
    """Table log-likelihood at the stacked vector x = (beta, alpha, log_theta).

    abundance : (n_rows, p_lambda); detection : (n_rows, n_surveys, p_detect).
    """
    x = np.asarray(x, dtype=float)
    k, m = abundance.shape[1], detection.shape[2]
    lam = np.exp(abundance @ x[:k])
    p = expit(detection @ x[k : k + m])
    theta = math.exp(x[k + m]) if nb else None
    return float(np.sum(row_logliks(y, p, lam, theta, mask)))


def log_prior(x, n_coef, mean=0.0, precision=0.01):
    """Independent normal priors on the first n_coef entries; flat beyond."""
    return float(np.sum(norm.logpdf(np.asarray(x)[:n_coef], mean, 1.0 / math.sqrt(precision))))


def central_gradient(f, x, rel_step=1e-4):
    """Central differences with steps rel_step * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def thinned_poisson(y, lam, p):
    """One survey, Poisson mixture: y ~ Poisson(lam p)."""
    return float(poisson.logpmf(y, lam * p))


def thinned_negbin(y, lam, p, theta):
    """One survey, NB mixture: y ~ NB(size theta, mean lam p)."""
    return float(nbinom.logpmf(y, theta, theta / (theta + lam * p)))


def all_zero_poisson(lam, p):
    """Poisson mixture, every count zero: log L = lam (prod(1 - p_j) - 1)."""
    return float(lam * (np.prod(1.0 - np.asarray(p, dtype=float)) - 1.0))


def lognormal_lambda(abundance, beta_hat, cov_beta):
    """Median exp(x b) and mean exp(x b + x'Sx/2) of lam = exp(x beta),
    beta ~ N(beta_hat, cov_beta), with the sd x'Sx^(1/2) of log lam."""
    eta = abundance @ beta_hat
    var = np.einsum("ij,jk,ik->i", abundance, cov_beta, abundance)
    return np.exp(eta), np.exp(eta + 0.5 * var), np.sqrt(var)
