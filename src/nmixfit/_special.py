"""The special functions the likelihood and the links need, in numpy.

``log_factorial`` reads integers below ``_TABLE`` from a table of
``math.lgamma``.  ``gammaln``, ``digamma`` and ``trigamma`` move x below
``_SHIFT`` up by ``_SHIFT`` with their recurrences, then sum eight terms
in 1 / z^2 of the asymptotic series of Abramowitz & Stegun 6.1.41, 6.3.18
and 6.4.12.  A scalar takes the same arithmetic as each element of an array.
"""

import math

import numpy as np

_TABLE = 4096
_LOG_FACT = np.array([math.lgamma(k + 1.0) for k in range(_TABLE)])
_SHIFT = 8  # a power of two, for _fold
_STEPS = np.arange(_SHIFT, dtype=float)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Bernoulli numbers B_2 .. B_16; at z = _SHIFT each series' next term is below 1e-15
_B = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_LGAMMA_C = [b / ((2 * k + 2) * (2 * k + 1)) for k, b in enumerate(_B)]
_DIGAMMA_C = [b / (2 * k + 2) for k, b in enumerate(_B)]


def _series(coefs, w):
    """sum_k coefs[k] w^k by Horner's rule."""
    acc = coefs[-1] * w
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= w
    return acc + coefs[0]


def _fold(op, terms):
    """op over the first axis in pairs: the same order for a scalar as per element."""
    while len(terms) > 1:
        terms = op(terms[::2], terms[1::2])
    return terms[0]


def _inv_square(z):
    """1 / z^2, which is 0 once z^2 overflows (z above about 1.3e154)."""
    with np.errstate(over="ignore"):
        return 1.0 / (z * z)


def _stirling(z):
    """log Gamma(z) for z >= _SHIFT."""
    return (z - 0.5) * np.log(z) - z + (_HALF_LOG_2PI + _series(_LGAMMA_C, _inv_square(z)) / z)


def _shifted(x):
    """Mask of x < _SHIFT, x moved up there, and the recurrence's x + i,
    i < _SHIFT, from 1 where x is not low, so no discarded product overflows."""
    x = np.asarray(x, dtype=float)
    low = x < _SHIFT
    return low, np.where(low, x + _SHIFT, x), np.add.outer(_STEPS, np.where(low, x, 1.0))


def log_factorial(n):
    """log n! for non-negative integers: a table read below _TABLE, else Stirling."""
    n = np.asarray(n, dtype=float)
    if not np.any(big := n >= _TABLE):
        return _LOG_FACT.take(n.astype(np.intp), mode="clip")
    # clipped before the cast: past 2**63 a double has no intp to give
    return np.where(big, _stirling(n + 1.0), _LOG_FACT.take(np.minimum(n, _TABLE - 1).astype(np.intp)))


def gammaln(x):
    """log Gamma(x) for x > 0."""
    low, z, terms = _shifted(x)
    return _stirling(z) - np.where(low, np.log(_fold(np.multiply, terms)), 0.0)


def digamma(x):
    """psi(x) = d log Gamma(x) / dx for x > 0."""
    low, z, terms = _shifted(x)
    w = _inv_square(z)
    psi = np.log(z) - 0.5 / z - w * _series(_DIGAMMA_C, w)
    return psi - np.where(low, _fold(np.add, np.reciprocal(terms, out=terms)), 0.0)


def trigamma(x):
    """psi'(x) for x > 0."""
    low, z, terms = _shifted(x)
    w = _inv_square(z)
    psi1 = (1.0 + 0.5 / z + w * _series(_B, w)) / z
    return psi1 + np.where(low, _fold(np.add, np.reciprocal(terms * terms, out=terms)), 0.0)


def xlog1py(a, b):
    """a * log(1 + b), taken as 0 where a = 0 whatever b is."""
    return a * np.log1p(np.where(a == 0, 0.0, b))


def expit(x):
    """The logistic function 1 / (1 + exp(-x))."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
