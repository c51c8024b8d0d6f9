"""nmixfit's own special functions against mpmath at 30 digits and scipy."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from nmixfit._special import digamma, expit, gammaln, log_factorial, trigamma, xlog1py

mpmath.mp.dps = 30


def _grid():
    """x log-uniform on [1e-8, 1e9], then integers and half-integers."""
    rng = np.random.default_rng(2024)
    ints = np.arange(1.0, 41.0)
    return np.concatenate([np.exp(rng.uniform(np.log(1e-8), np.log(1e9), 400)), ints, ints - 0.5])


def _mp(f, x):
    return np.array([float(f(mpmath.mpf(float(v)))) for v in x])


CASES = [
    (gammaln, mpmath.loggamma, sc.gammaln, 2e-14),
    (digamma, mpmath.digamma, sc.digamma, 1e-14),
    (trigamma, lambda v: mpmath.polygamma(1, v), lambda v: sc.polygamma(1, v), 1e-14),
]


@pytest.mark.parametrize("ours, exact, scipy_f, tol", CASES, ids=["gammaln", "digamma", "trigamma"])
def test_matches_mpmath_and_scipy(ours, exact, scipy_f, tol):
    x = _grid()
    got = ours(x)
    for ref in (_mp(exact, x), scipy_f(x)):
        assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("f", [gammaln, digamma, trigamma])
def test_a_scalar_is_each_element_of_an_array_to_the_bit(f):
    """A per-row theta array gives each row what a scalar theta gives it."""
    x = _grid()
    assert [float(f(v)) for v in x] == list(f(x))


LARGE_X = [0.5, 2.5, 7.9, 8.0, 1e39, 1e200]
# the values from before the recurrence's discarded terms stopped overflowing
PINNED = [
    (gammaln, [0.5723649429246986, 0.28468287047291696, 8.324265868008812, 8.525161361065413,
               8.880081862676778e+40, 4.595170185988092e+202]),
    (digamma, [-1.9635100260214227, 0.7031566406452434, 2.002238487563571, 2.0156414779556098,
               89.80081862676778, 460.51701859880916]),
    (trigamma, [4.93480220054468, 0.4903577561002349, 0.1349307834566344, 0.13313701469403108,
                1.0000000000000001e-39, 1e-200]),
]


@pytest.mark.parametrize("f, want", PINNED, ids=["gammaln", "digamma", "trigamma"])
def test_large_arguments_warn_nothing_and_keep_their_bits(f, want):
    """From 1e39 a product of gammaln's x + i would overflow, and from 1e154
    trigamma's squares of them and every 1 / x^2; none of that may warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(f(np.array(LARGE_X))) == want
        assert [float(f(x)) for x in LARGE_X] == want


def test_log_factorial_is_the_lgamma_table_below_4096():
    n = np.arange(4096.0)
    assert np.array_equal(log_factorial(n), [math.lgamma(k + 1.0) for k in n])


def test_log_factorial_follows_stirling_above_the_table():
    n = np.array([4095.0, 4096.0, 4097.0, 1e4, 123457.0, 1e6, 1e7])
    got = log_factorial(n)
    want = _mp(lambda v: mpmath.loggamma(v + 1), n)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert float(log_factorial(5000.0)) == pytest.approx(math.lgamma(5001.0), rel=1e-15)


def test_expit_at_zero_and_both_ends():
    x = np.array([0.0, 800.0, -800.0, np.inf, -np.inf])
    with np.errstate(over="raise", invalid="raise"):
        assert list(expit(x)) == [0.5, 1.0, 0.0, 1.0, 0.0]


def test_xlog1py_is_zero_where_a_is_zero():
    assert float(xlog1py(0.0, -1.0)) == 0.0
    a, b = np.array([0.0, 2.0, 3.0]), np.array([-1.0, -0.5, 0.25])
    np.testing.assert_allclose(xlog1py(a, b), sc.xlog1py(a, b), rtol=1e-15)
