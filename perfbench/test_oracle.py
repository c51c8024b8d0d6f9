"""The benchmark's oracle against closed forms.

    python3 -m pytest perfbench/test_oracle.py
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom, lognorm, poisson

import oracle

# (lambda, p, y), including the rows the fixed hard cap of nmixfit's series
# reports as divergent
POISSON_ROWS = [(0.5, 0.3, 0.0), (50.0, 0.5, 27.0), (2000.0, 0.02, 40.0),
                (5e4, 0.001, 10.0), (2e4, 0.01, 150.0)]


def _close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(1.0, abs(b))


@pytest.mark.parametrize("lam,p,y", POISSON_ROWS)
def test_single_survey_poisson_is_thinned_poisson(lam, p, y):
    got = oracle.row_logliks([[y]], [[p]], [lam])[0]
    assert _close(got, oracle.thinned_poisson(y, lam, p))


@pytest.mark.parametrize("theta", [0.05, 1.0, 7.5])
@pytest.mark.parametrize("lam,p,y", [(3.0, 0.6, 2.0), (80.0, 0.2, 9.0), (400.0, 0.05, 31.0)])
def test_single_survey_negbin_is_thinned_negbin(lam, p, y, theta):
    got = oracle.row_logliks([[y]], [[p]], [lam], theta=theta)[0]
    assert _close(got, oracle.thinned_negbin(y, lam, p, theta))


@pytest.mark.parametrize("lam,p", [(0.1, (0.9,)), (20.0, (0.3, 0.2, 0.5)), (3000.0, (0.01, 0.02))])
def test_all_zero_poisson_closed_form(lam, p):
    got = oracle.row_logliks([[0.0] * len(p)], [list(p)], [lam])[0]
    assert _close(got, oracle.all_zero_poisson(lam, p))


def test_all_zero_closed_form_is_the_poisson_sum():
    # lam (prod(1-p) - 1) summed out by hand over a grid far past the mass
    lam, p = 20.0, np.array([0.3, 0.2, 0.5])
    n = np.arange(0, 400)
    direct = logsumexp(poisson.logpmf(n, lam) + n * np.sum(np.log1p(-p)))
    assert _close(oracle.all_zero_poisson(lam, p), direct)


def test_grid_doubling_matches_a_wide_fixed_grid():
    y, p, lam = np.array([12.0, 9.0, 14.0]), np.array([0.4, 0.3, 0.5]), 30.0
    n = np.arange(14, 5000)
    direct = logsumexp(poisson.logpmf(n, lam) + sum(binom.logpmf(y[j], n, p[j]) for j in range(3)))
    assert _close(oracle.row_logliks([y], [p], [lam])[0], direct, 1e-13)


def test_masked_survey_contributes_nothing():
    full = oracle.row_logliks([[4.0]], [[0.3]], [10.0])[0]
    masked = oracle.row_logliks([[4.0, 99.0]], [[0.3, 0.9]], [10.0], mask=[[True, False]])[0]
    assert full == masked


def test_lognormal_lambda_matches_scipy_lognorm():
    abundance = np.array([[1.0, 0.3], [1.0, -0.4]])
    beta = np.array([2.0, -1.0])
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    median, mean, sd_log = oracle.lognormal_lambda(abundance, beta, cov)
    for i, x in enumerate(abundance):
        s = math.sqrt(x @ cov @ x)
        ref = lognorm(s, scale=math.exp(x @ beta))
        assert sd_log[i] == pytest.approx(s, rel=1e-14)
        assert median[i] == pytest.approx(ref.median(), rel=1e-14)
        assert mean[i] == pytest.approx(ref.mean(), rel=1e-14)


def test_log_prior_is_the_normal_density():
    x = np.array([0.5, -2.0, 3.0, 7.0])
    expected = 3 * (-0.5 * math.log(2 * math.pi * 100.0)) - (0.25 + 4.0 + 9.0) / 200.0
    assert oracle.log_prior(x, 3) == pytest.approx(expected, rel=1e-14)


def test_central_gradient_of_a_quadratic_is_exact():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    x = np.array([0.7, -1.3])
    grad = oracle.central_gradient(lambda v: -0.5 * v @ a @ v, x)
    assert np.allclose(grad, -a @ x, rtol=0, atol=1e-9)
