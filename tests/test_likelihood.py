"""Marginal likelihood kernel: analytic identities, the brute-force
oracle, truncation behaviour, the exact score and Hessian, and the
finite-difference helpers the tests use as oracles.

The recursive evaluator and the brute-force evaluator share no code
beyond the input container, so agreement between them is evidence, not
tautology.
"""

import ast
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, nbinom, poisson

from nmixfit import (
    DesignMatrices,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    RowLikelihoodInput,
    SimConfig,
    fit_ml,
    posterior_n,
    row_loglik_detail,
    simulate,
    table_loglik,
    table_loglik_hessian,
    table_row_logliks,
)
from nmixfit import likelihood
from nmixfit.likelihood import _batch_series, _kernel_inputs, log_count_density
from nmixfit.model import P_CLAMP

from bruteforce import row_loglik_bruteforce
from derivatives import (
    finite_diff_gradient,
    finite_diff_hessian,
    numeric_gradient,
    richardson_gradient,
)


def _row(y, p, lam, theta=None):
    return RowLikelihoodInput(
        y=np.asarray(y, dtype=float), p=np.asarray(p, dtype=float),
        lam=lam, theta=theta,
    )


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _thinned_logpmf(y, lam, p, theta=None):
    """One survey's marginal: thinning scales the mean, keeps the NB size."""
    mean = lam * p
    if theta is None:
        return poisson.logpmf(y, mean)
    return nbinom.logpmf(y, theta, theta / (theta + mean))


class TestThinningIdentities:
    """A binomially thinned mixture count has a closed-form marginal."""

    @pytest.mark.parametrize("lam,p", [(0.5, 0.9), (3.0, 0.4), (40.0, 0.07)])
    def test_single_survey_poisson(self, lam, p):
        for y in range(26):
            got = row_loglik_detail(_row([y], [p], lam)).loglik
            assert _rel_err(got, _thinned_logpmf(y, lam, p)) < 1e-12

    @pytest.mark.parametrize("lam,p,theta", [(2.0, 0.3, 0.7), (25.0, 0.6, 4.0)])
    def test_single_survey_negative_binomial(self, lam, p, theta):
        for y in range(26):
            got = row_loglik_detail(_row([y], [p], lam, theta)).loglik
            assert _rel_err(got, _thinned_logpmf(y, lam, p, theta)) < 1e-10

    @pytest.mark.parametrize("p", [[0.5], [0.2, 0.7], [0.35, 0.5, 0.65]])
    def test_all_zero_poisson_row(self, p):
        """With every count zero the sum collapses to a single exponential:
        sum_N Pois(N; lam) prod_j (1-p_j)^N = exp(lam (prod_j (1-p_j) - 1)).
        """
        lam = 7.3
        got = row_loglik_detail(_row([0.0] * len(p), p, lam)).loglik
        want = lam * (np.prod(1.0 - np.asarray(p)) - 1.0)
        assert _rel_err(got, want) < 1e-12

    def test_all_zero_single_survey_matches_minus_lam_p(self):
        got = row_loglik_detail(_row([0.0], [0.25], 4.0)).loglik
        assert _rel_err(got, -4.0 * 0.25) < 1e-12


class TestBruteForceOracle:
    @given(
        lam=st.floats(0.1, 100.0),
        theta=st.one_of(st.none(), st.floats(0.5, 10.0)),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_direct_summation(self, lam, theta, data):
        """Recursion equals log-sum-exp over the same latent grid, for
        arbitrary counts, not just counts typical of the model."""
        j = data.draw(st.integers(1, 3))
        p = [data.draw(st.floats(0.01, 0.99)) for _ in range(j)]
        y = [float(data.draw(st.integers(0, 40))) for _ in range(j)]
        detail = row_loglik_detail(_row(y, p, lam, theta))
        brute = row_loglik_bruteforce(_row(y, p, lam, theta), n_max=detail.n_max)
        assert _rel_err(detail.loglik, brute) < 1e-10

    def test_missing_surveys_equal_reduced_table(self):
        """A NaN cell contributes nothing: the row must score exactly like
        the same row with that survey column removed."""
        logits = np.log(np.array([0.4, 0.5, 0.6]) / (1 - np.array([0.4, 0.5, 0.6])))
        params = ParameterVector(beta=np.array([np.log(9.0)]), alpha=np.array([1.0]),
                                 log_theta=np.log(2.0))
        with_gap = table_loglik(
            params,
            ObservationTable(np.array([[3.0, np.nan, 2.0]])),
            DesignMatrices(np.ones((1, 1)), logits.reshape(1, 3, 1)),
            MixtureFamily.NEGBIN,
        )
        reduced = table_loglik(
            params,
            ObservationTable(np.array([[3.0, 2.0]])),
            DesignMatrices(np.ones((1, 1)), logits[[0, 2]].reshape(1, 2, 1)),
            MixtureFamily.NEGBIN,
        )
        assert with_gap == reduced

    @pytest.mark.parametrize("theta", [None, 2.5])
    def test_distribution_sums_to_one_single_survey(self, theta):
        lam, p = 3.0, 0.4
        lls = [
            row_loglik_detail(_row([float(y)], [p], lam, theta)).loglik
            for y in range(200)
        ]
        assert math.fsum(np.exp(lls)) == pytest.approx(1.0, abs=1e-10)

    def test_distribution_sums_to_one_two_surveys(self):
        lam, p = 2.5, (0.55, 0.3)
        total = math.fsum(
            np.exp(row_loglik_detail(_row([float(a), float(b)], p, lam)).loglik)
            for a in range(50)
            for b in range(50)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestTruncation:
    def test_grid_always_reaches_largest_count(self):
        detail = row_loglik_detail(_row([17.0, 2.0], [0.5, 0.5], 1.0))
        assert detail.n_max >= 17
        assert detail.n_terms >= 1
        assert np.isfinite(detail.loglik)

    def test_tighter_floor_changes_little(self, monkeypatch):
        """The increment floor bounds the discarded tail, so shrinking it
        by three decades must move the answer by less than the old floor."""
        row = _row([4.0, 9.0, 6.0], [0.3, 0.45, 0.5], 30.0, 1.5)
        assert likelihood._REL_FLOOR == 1e-12
        loose = row_loglik_detail(row).loglik
        monkeypatch.setattr(likelihood, "_REL_FLOOR", 1e-15)
        tight = row_loglik_detail(row).loglik
        assert abs(loose - tight) < 1e-11 * max(1.0, abs(tight))

    def test_hard_cap_divergence_is_an_error(self, monkeypatch):
        # the posterior of N has sd ~700, far wider than a budget of 50
        # terms; the error names the budget and never claims divergence
        row = _row([0.0], [0.5], 1e6)
        monkeypatch.setattr(likelihood, "_TERM_BUDGET", 50)
        with pytest.raises(NumericError, match="term budget exhausted") as info:
            row_loglik_detail(row)
        assert "the budget is 50 terms past the start" in str(info.value)
        assert "divergent" not in str(info.value)

    def test_left_tail_too_heavy_for_the_floor_is_summed_from_lower(self, monkeypatch):
        # at a floor of 1e-30 the terms below mode - 9 sd are not negligible,
        # so the row is summed again from a lower start
        row = _row([10.0], [0.001], 5e4)
        default = row_loglik_detail(row)
        monkeypatch.setattr(likelihood, "_REL_FLOOR", 1e-30)
        tight = row_loglik_detail(row)
        assert 10 < tight.n_min < default.n_min
        assert _rel_err(tight.loglik, _thinned_logpmf(10, 5e4, 0.001)) < 1e-10

    def test_bruteforce_grid_must_cover_counts(self):
        with pytest.raises(ModelError):
            row_loglik_bruteforce(_row([12.0], [0.5], 3.0), n_max=11)


class TestExtremeInputs:
    def test_huge_mean_with_rare_detection(self):
        # terms grow by ~e^990 from N = 0 to the summand's mode near 990;
        # the sum starts just below the mode, and must still deliver the
        # thinning identity
        row = _row([0.0], [0.01], 1000.0)
        assert row_loglik_detail(row).n_min > 0
        assert _rel_err(row_loglik_detail(row).loglik, -10.0) < 1e-12

    def test_large_counts_stay_finite_and_match_oracle(self):
        row = _row([1000.0, 998.0, 1005.0], [0.5, 0.5, 0.5], 2000.0)
        detail = row_loglik_detail(row)
        assert np.isfinite(detail.loglik)
        brute = row_loglik_bruteforce(row, n_max=detail.n_max)
        assert _rel_err(detail.loglik, brute) < 1e-10

    def test_huge_theta_warns_nothing(self):
        """At theta = 1e39 the NB pmf's log Gamma once overflowed in a branch
        whose result is discarded (the suite makes that warning an error)."""
        assert np.isfinite(row_loglik_detail(_row([3.0, 2.0, 4.0], [0.5] * 3, 10.0, 1e39)).loglik)

    def test_tiny_detection_negative_binomial(self):
        row = _row([2.0], [0.001], 50.0, 0.5)
        detail = row_loglik_detail(row)
        want = nbinom.logpmf(2, 0.5, 0.5 / (0.5 + 50.0 * 0.001))
        assert _rel_err(detail.loglik, want) < 1e-10

    @pytest.mark.parametrize("lam", [10.0, 1e5])
    @pytest.mark.parametrize(
        "y", [(3.0, 5.0, 2.0), (0.0, 0.0, 0.0), (40.0, 35.0, 50.0), (2e4, 2e4, 2e4)]
    )
    def test_theta_at_the_draw_floor(self, y, lam):
        """theta = e^-700, the floor the CLI clips posterior draws of theta
        to, makes phi = 1 / theta about 1e304: neither (N - 1) phi (past
        double range for N above 1.8e4) nor lam phi (past it at lam = 1e5)
        may overflow on the way to the oracle's value."""
        row = _row(y, [0.5] * 3, lam, math.exp(-700.0))
        detail = row_loglik_detail(row)
        want = row_loglik_bruteforce(row, n_max=detail.n_max)
        assert np.isfinite(detail.loglik)
        assert _rel_err(detail.loglik, want) <= 1e-10


# a term budget wide enough for every row of the extreme-regime tests
_WIDE_BUDGET = 4_000_000

_LOG_LAM = st.floats(math.log(0.01), math.log(1e6))
_P = st.one_of(st.floats(1e-4, 0.99), st.floats(math.log(1e-4), math.log(0.99)).map(math.exp))
_THETA = st.one_of(st.none(), st.floats(math.log(0.05), math.log(50.0)).map(math.exp))


def _value_or_budget_error(row, want):
    """The row's log-likelihood equals ``want`` to 1e-9 relative, or it
    raises the term-budget error and a wider budget then gives ``want``."""
    try:
        got = row_loglik_detail(row).loglik
    except NumericError as exc:
        message = str(exc)
        assert "term budget exhausted" in message
        assert "divergent" not in message
        budget = likelihood._TERM_BUDGET
        # a function-scoped fixture would not reset between @given examples
        with mock.patch.object(likelihood, "_TERM_BUDGET", _WIDE_BUDGET):
            detail = row_loglik_detail(row)
        assert detail.n_terms > budget
        got = detail.loglik
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestExtremeRegimes:
    """Closed forms over lam in [0.01, 1e6], p in [1e-4, 0.99] and theta in
    {None} U [0.05, 50]: every row gives its value or names an exhausted
    term budget, never a wrong value or a divergence."""

    @given(log_lam=_LOG_LAM, p=_P, theta=_THETA, q=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_single_survey_thinning(self, log_lam, p, theta, q):
        lam = math.exp(log_lam)
        mean = lam * p
        # the count is a quantile of its own marginal, tails included
        law = poisson(mean) if theta is None else nbinom(theta, theta / (theta + mean))
        y = float(law.ppf(min(max(q, 1e-6), 1.0 - 1e-6)))
        _value_or_budget_error(_row([y], [p], lam, theta), _thinned_logpmf(y, lam, p, theta))

    @given(log_lam=_LOG_LAM, p=st.lists(_P, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_all_zero_poisson(self, log_lam, p):
        lam = math.exp(log_lam)
        want = lam * (np.prod(1.0 - np.asarray(p)) - 1.0)
        _value_or_budget_error(_row([0.0] * len(p), p, lam), want)


class TestInputValidation:
    def test_rejects_probability_on_boundary(self):
        for bad_p in (0.0, 1.0):
            with pytest.raises(ModelError):
                _row([1.0], [bad_p], 2.0)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ModelError):
            _row([1.2], [0.5], 2.0)

    def test_rejects_non_positive_mean(self):
        with pytest.raises(ModelError):
            _row([1.0], [0.5], 0.0)

    def test_rejects_non_positive_theta(self):
        with pytest.raises(ModelError):
            _row([1.0], [0.5], 2.0, theta=0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            _row([1.0, 2.0], [0.5], 2.0)


class TestCountDensity:
    def test_poisson_log_pmf(self):
        n = np.arange(40, dtype=float)
        np.testing.assert_allclose(
            log_count_density(n, 6.5, 0.0), poisson.logpmf(n, 6.5), rtol=1e-12
        )

    def test_negative_binomial_log_pmf(self):
        n = np.arange(40, dtype=float)
        got = log_count_density(n, 6.5, 1.0 / 2.3)
        want = nbinom.logpmf(n, 2.3, 2.3 / (2.3 + 6.5))
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_leading_term_takes_log_factorial_once_per_row(monkeypatch):
    """One leading-term call on an n-row, 3-survey Poisson table evaluates
    log_factorial on 8n elements: log s! for the pmf and once for the
    binomial factors, then log y! and log (s - y)! per survey."""
    n = 40
    counts = np.random.default_rng(5).poisson(3.0, size=(n, 3)).astype(float)
    sizes = []
    log_factorial = likelihood.log_factorial

    def counting(x):
        sizes.append(np.size(x))
        return log_factorial(x)

    monkeypatch.setattr(likelihood, "log_factorial", counting)
    likelihood._leading_log_term(counts.max(axis=1), counts, np.full(n, 4.0), np.full((n, 3), 0.4), np.zeros(n))
    assert sum(sizes) == 8 * n


@pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma"])
def test_theta_terms_run_once_per_table(name):
    """A batch of tables, each of one theta, takes a function of theta
    alone on one value per table, not per row, with each row's bits."""
    f, sizes = getattr(likelihood, name), []

    def counting(x):
        sizes.append(np.size(x))
        return f(x)

    theta = np.repeat([2.0, 3.5, 2.0], [4, 5, 3])
    np.testing.assert_array_equal(likelihood._once(counting, theta), f(theta))
    assert likelihood._once(counting, theta[4:9]) == f(theta[4:9])[0]
    assert sizes == [3, 1]


class TestTableLevel:
    def _toy(self):
        counts = np.array([[1.0, 3.0], [0.0, np.nan], [5.0, 4.0]])
        table = ObservationTable(counts)
        designs = DesignMatrices(
            abundance_design=np.array([[1.0, 0.3], [1.0, -0.1], [1.0, 0.8]]),
            detection_design=np.concatenate(
                [np.ones((3, 2, 1)), np.linspace(-1, 1, 6).reshape(3, 2, 1)], axis=2
            ),
        )
        params = ParameterVector(
            beta=np.array([1.2, 0.5]), alpha=np.array([0.2, -0.4]), log_theta=0.3
        )
        return table, designs, params

    def test_total_is_sum_of_row_contributions(self):
        table, designs, params = self._toy()
        rows = table_row_logliks(params, table, designs, MixtureFamily.NEGBIN)
        total = table_loglik(params, table, designs, MixtureFamily.NEGBIN)
        assert rows.shape == (3,)
        assert total == pytest.approx(rows.sum(), rel=1e-15)

    def test_rows_match_single_row_kernel(self):
        table, designs, params = self._toy()
        rows = table_row_logliks(params, table, designs, MixtureFamily.NEGBIN)
        lam0 = float(np.exp(designs.abundance_design[0] @ params.beta))
        p0 = 1.0 / (1.0 + np.exp(-(designs.detection_design[0] @ params.alpha)))
        direct = row_loglik_detail(
            _row([1.0, 3.0], p0, lam0, theta=np.exp(0.3))
        ).loglik
        assert rows[0] == pytest.approx(direct, rel=1e-12)

    def test_family_and_dispersion_must_agree(self):
        table, designs, params = self._toy()
        with pytest.raises(ModelError):
            table_loglik(params, table, designs, MixtureFamily.POISSON)
        no_theta = ParameterVector(beta=params.beta, alpha=params.alpha)
        with pytest.raises(ModelError):
            table_loglik(no_theta, table, designs, MixtureFamily.NEGBIN)

    def test_design_row_mismatch(self):
        table, designs, params = self._toy()
        short = DesignMatrices(
            designs.abundance_design[:2], designs.detection_design[:2]
        )
        with pytest.raises(ModelError):
            table_loglik(params, table, short, MixtureFamily.NEGBIN)


class TestDerivativeHelpers:
    def test_gradient_on_smooth_function(self):
        def f(x):
            return math.sin(x[0]) + x[1] ** 2 - 3.0 * x[0] * x[1]

        x = np.array([0.3, -1.2])
        got = finite_diff_gradient(f, x)
        want = np.array([math.cos(0.3) + 3.6, -2.4 - 0.9])
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_hessian_on_quadratic_is_exact_curvature(self):
        m = np.array([[2.0, 0.5], [0.5, 1.5]])

        def f(x):
            return -0.5 * x @ m @ x

        h = finite_diff_hessian(f, np.array([0.4, -0.7]))
        np.testing.assert_allclose(h, -m, atol=1e-5)
        np.testing.assert_allclose(h, h.T)

    def test_gradient_rejects_non_finite_probe(self):
        def f(x):
            return math.inf if x[0] > 1.0 else 0.0

        with pytest.raises(NumericError):
            finite_diff_gradient(f, np.array([1.0]))

    def test_model_gradient_against_independent_surface(self):
        """Numeric gradient of the recursive total equals the same finite
        difference applied to the brute-force total."""
        counts = np.array([[2.0, 4.0], [1.0, 0.0], [7.0, 5.0]])
        table = ObservationTable(counts)
        designs = DesignMatrices(
            abundance_design=np.array([[1.0, 0.2], [1.0, -0.4], [1.0, 0.9]]),
            detection_design=np.ones((3, 2, 1)),
        )
        params = ParameterVector(beta=np.array([1.5, 0.3]), alpha=np.array([-0.2]))
        got = numeric_gradient(params, table, designs, MixtureFamily.POISSON)

        def brute_total(x):
            pv = ParameterVector.from_array(x, 2, 1, has_dispersion=False)
            lam = np.exp(designs.abundance_design @ pv.beta)
            p = 1.0 / (1.0 + np.exp(-(designs.detection_design @ pv.alpha)))
            return sum(
                row_loglik_bruteforce(_row(counts[i], p[i], lam[i]), n_max=400)
                for i in range(3)
            )

        want = finite_diff_gradient(brute_total, params.to_array())
        np.testing.assert_allclose(got, want, atol=1e-5)


def _single_row_case(y, lam, p, theta=None):
    """One intercept-only row: beta = log(lam), alpha = logit(p)."""
    n = len(y)
    return (
        ObservationTable(np.array([y], dtype=float)),
        DesignMatrices(np.ones((1, 1)), np.ones((1, n, 1))),
        ParameterVector(
            beta=[math.log(lam)], alpha=[math.log(p / (1.0 - p))],
            log_theta=None if theta is None else math.log(theta),
        ),
    )


def _covariate_case(missing=False):
    rng = np.random.default_rng(5)
    n_rows, n_surveys = 12, 3
    x = rng.normal(size=n_rows)
    w = rng.normal(size=(n_rows, n_surveys))
    counts = rng.binomial(rng.poisson(np.exp(2.0 + 0.5 * x))[:, None], 0.4, size=(n_rows, n_surveys))
    counts = counts.astype(float)
    if missing:
        counts[2, 1] = counts[7, 0] = counts[7, 2] = np.nan
    designs = DesignMatrices(
        np.column_stack([np.ones(n_rows), x]),
        np.stack([np.ones((n_rows, n_surveys)), w], axis=2),
    )
    params = ParameterVector(beta=[1.9, 0.4], alpha=[-0.3, 0.6], log_theta=0.8)
    return ObservationTable(counts), designs, params


def _clamped_case():
    """Row 0, survey 0 has logit p = -40 and row 1, survey 1 has +40:
    both cells sit on the P_CLAMP bounds, where p no longer moves."""
    counts = np.array([[1.0, 4.0, 3.0], [2.0, 5.0, 1.0], [0.0, 2.0, 3.0]])
    indicator = np.zeros((3, 3, 2))
    indicator[0, 0, 0] = indicator[1, 1, 1] = 1.0
    designs = DesignMatrices(
        np.column_stack([np.ones(3), [0.2, -0.5, 0.9]]),
        np.concatenate([np.ones((3, 3, 1)), indicator], axis=2),
    )
    params = ParameterVector(beta=[2.0, 0.3], alpha=[0.1, -40.0, 40.0])
    return ObservationTable(counts), designs, params


def _multi_block_case():
    """39 rows with lambda 5 and one with lambda 400: the first block is
    sized for the small rows, so the large one spans several blocks."""
    rng = np.random.default_rng(8)
    big = np.zeros(40)
    big[-1] = 1.0
    lam = np.where(big > 0, 400.0, 5.0)
    latent = rng.negative_binomial(2.0, 2.0 / (2.0 + lam))
    counts = rng.binomial(latent[:, None], 0.4, size=(40, 3)).astype(float)
    designs = DesignMatrices(np.column_stack([np.ones(40), big]), np.ones((40, 3, 1)))
    params = ParameterVector(beta=[math.log(5.0), math.log(80.0)], alpha=[-0.4], log_theta=math.log(2.0))
    return ObservationTable(counts), designs, params


_SCORE_CASES = {
    "poisson": (_covariate_case, MixtureFamily.POISSON),
    "nb": (_covariate_case, MixtureFamily.NEGBIN),
    "missing-cells": (lambda: _covariate_case(missing=True), MixtureFamily.NEGBIN),
    "clamped-p": (_clamped_case, MixtureFamily.POISSON),
    "multi-block-nb": (_multi_block_case, MixtureFamily.NEGBIN),
}

# Rows whose summand's mode lies far above max(y), so the sum starts
# higher: (y, lam, p, theta).  The first three names are kept so that
# their score-case test ids stay stable.
_MOVED_ROWS = {
    "logspace-poisson": ([1000.0, 1000.0, 1000.0], 2000.0, 0.5, None),
    # summed from max(y), the sum of k t_k would overflow here
    "moment-overflow": ([100.0, 100.0, 100.0], 2000.0, 0.5, None),
    "logspace-nb": ([200.0, 180.0, 210.0], 1e4, 0.02, 3.0),
    "large-counts": ([1000.0, 1000.0, 1000.0], 50.0, 0.5, None),
    # a fixed cap of 10,000 terms past max(y) cannot reach these modes
    "far-mode-5e4": ([10.0], 5e4, 0.001, None),
    "far-mode-2e4": ([150.0], 2e4, 0.01, None),
    # 50 surveys at p = 0.99: the mode is only ~36 above max(y), but
    # g(max(y)) is e^-937 of g(mode), so a sum from max(y) would overflow
    "many-surveys": (
        list(np.random.default_rng(50).binomial(5064, 0.99, 50).astype(float)), 5000.0, 0.99, None
    ),
}


def _moved_case(name):
    y, lam, p, theta = _MOVED_ROWS[name]
    family = MixtureFamily.POISSON if theta is None else MixtureFamily.NEGBIN
    return (lambda: _single_row_case(y, lam, p, theta)), family


_SCORE_CASES.update({name: _moved_case(name) for name in _MOVED_ROWS})


def _score_case(name):
    make, family = _SCORE_CASES[name]
    table, designs, params = make()
    if family is MixtureFamily.POISSON:
        params = ParameterVector(beta=params.beta, alpha=params.alpha)
    return table, designs, params, family


def _richardson(fn, table, designs, params, family):
    """Richardson-extrapolated differences of fn over the stacked vector:
    the large-count rows curve so sharply in beta that plain steps of
    1e-5 are off by ~1e-5."""

    def f(x):
        pv = ParameterVector.from_array(x, designs.p_lambda, designs.p_detect, family.has_dispersion)
        return fn(pv, table, designs, family)

    return richardson_gradient(f, params.to_array())


class TestMovedStart:
    """Rows whose sum starts above max(y) match their oracles."""

    @pytest.mark.parametrize("name", sorted(_MOVED_ROWS))
    def test_start_moves_and_matches_oracle(self, name):
        y, lam, p, theta = _MOVED_ROWS[name]
        row = _row(y, [p] * len(y), lam, theta)
        detail = row_loglik_detail(row)
        assert detail.n_min > max(y)
        assert detail.n_terms == detail.n_max - detail.n_min + 1
        if len(y) == 1:
            want = _thinned_logpmf(y[0], lam, p, theta)
        else:
            want = row_loglik_bruteforce(row, n_max=detail.n_max + 1000)
        assert _rel_err(detail.loglik, want) < 1e-10


class TestPerRowTheta:
    def test_matches_one_scalar_theta_call_per_row(self):
        """A per-row theta array gives, on every row, exactly what a
        scalar-theta call gives that row: 58 small rows (two with a
        missing cell), one spanning several blocks and one whose start
        moves."""
        rng = np.random.default_rng(21)
        lam = np.concatenate([rng.uniform(2.0, 12.0, 58), [400.0, 1e4]])
        counts = rng.binomial(rng.poisson(lam)[:, None], 0.4, size=(60, 3)).astype(float)
        counts[-1] = [200.0, 180.0, 210.0]
        p = np.concatenate([rng.uniform(0.3, 0.6, (59, 3)), np.full((1, 3), 0.02)])
        # missing cells: count 0 and p = 0
        counts[3, 1] = counts[17, 0] = p[3, 1] = p[17, 0] = 0.0
        phi = 1.0 / rng.uniform(0.5, 8.0, 60)

        ll, n_min, n_max, mom = _batch_series(counts, lam, p, phi, moments=True)
        assert n_min[-1] > 210 and n_max[-2] - n_min[-2] > 2 * 64
        for i in range(60):
            ll_i, n_min_i, n_max_i, mom_i = _batch_series(
                counts, lam, p, np.full(60, phi[i]), moments=True
            )
            assert ll[i] == ll_i[i]
            assert (n_min[i], n_max[i]) == (n_min_i[i], n_max_i[i])
            assert tuple(f[i] for f in mom) == tuple(f[i] for f in mom_i)

    def test_mixed_phi_matches_one_phi_call_per_row(self, monkeypatch):
        """One batch mixes phi = 0 (Poisson) rows, rows with phi in (0, 1]
        and rows with phi > 1 (theta < 1, whose ratio bound differs).  Each
        row gives exactly what a call in which every row has that row's phi
        gives it: small rows (two with a missing cell), a wide row, and one
        moved row of each family.  Blocks one term wide test every N for a
        stop, each row's own N whatever the phi of the others."""
        monkeypatch.setattr(likelihood, "_BLOCK_MAX", 1)
        rng = np.random.default_rng(22)
        lam = np.concatenate([rng.uniform(2.0, 12.0, 27), [400.0, 1e4, 2000.0]])
        counts = rng.binomial(rng.poisson(lam)[:, None], 0.4, size=(30, 3)).astype(float)
        counts[-2:] = [[200.0, 180.0, 210.0], [100.0, 100.0, 100.0]]
        p = np.concatenate([rng.uniform(0.3, 0.6, (28, 3)), np.full((2, 3), 0.5)])
        counts[3, 1] = counts[17, 0] = p[3, 1] = p[17, 0] = 0.0
        kind = np.arange(30) % 3
        phi = np.select([kind == 1, kind == 2], [rng.uniform(0.05, 1.0, 30), rng.uniform(1.5, 20.0, 30)])
        phi[-3:] = [0.5, 1.0 / 3.0, 0.0]

        ll, n_min, n_max, mom = _batch_series(counts, lam, p, phi, moments=True)
        assert n_max[-3] - n_min[-3] > 2 * 64
        assert n_min[-2] > 210 and n_min[-1] > 100
        for i in range(30):
            ll_i, n_min_i, n_max_i, mom_i = _batch_series(
                counts, lam, p, np.full(30, phi[i]), moments=True
            )
            assert ll[i] == ll_i[i]
            assert (n_min[i], n_max[i]) == (n_min_i[i], n_max_i[i])
            assert tuple(f[i] for f in mom) == tuple(f[i] for f in mom_i)


def _kernel_regime(lam, p, rows, seed):
    """Intercept-only Poisson rows (phi = 0) with three surveys, as the
    benchmark's kernel regimes draw them."""
    rng = np.random.default_rng(seed)
    counts = rng.binomial(rng.poisson(lam, rows)[:, None], p, (rows, 3)).astype(float)
    return counts, np.full(rows, lam), np.full((rows, 3), p), np.zeros(rows)


def _mixed_rows(theta="none", missing=False, clamped=False):
    """40 rows of three surveys, lambda 2-60, as (counts, lam, p, phi)."""
    rng = np.random.default_rng(31)
    lam = rng.uniform(2.0, 60.0, 40)
    counts = rng.binomial(rng.poisson(lam)[:, None], 0.45, (40, 3)).astype(float)
    p = rng.uniform(0.3, 0.7, (40, 3))
    if missing:
        for cell in ((3, 1), (11, 0), (11, 2)):
            counts[cell] = p[cell] = 0.0
    if clamped:
        p[5, 0], p[9, 2] = P_CLAMP, 1.0 - P_CLAMP
    th = {"none": None, "scalar": 2.5, "per-row": rng.uniform(0.5, 6.0, 40)}[theta]
    return counts, lam, p, likelihood._phi(th, 40)


def _moved_row(name):
    y, lam, p, theta = _MOVED_ROWS[name]
    counts = np.array([y], dtype=float)
    return counts, np.array([lam]), np.full(counts.shape, p), likelihood._phi(theta, 1)


_LAYOUT_CASES = {
    "poisson": lambda: _mixed_rows(),
    "nb-scalar-theta": lambda: _mixed_rows("scalar"),
    "nb-per-row-theta": lambda: _mixed_rows("per-row"),
    "missing-cells": lambda: _mixed_rows("scalar", missing=True),
    "clamped-p": lambda: _mixed_rows(clamped=True),
    "left-tail-retry": lambda: _moved_row("far-mode-5e4"),
    "kernel-sparse": lambda: _kernel_regime(2000.0, 0.02, 100, 3),
    "kernel-large": lambda: _kernel_regime(2000.0, 0.5, 100, 4),
}
_LAYOUT_CASES.update({f"moved-{name}": (lambda name=name: _moved_row(name)) for name in _MOVED_ROWS})


def _block_ends(block_max):
    """The offsets from a row's start at which its blocks end, up to the
    term budget, for blocks at most ``block_max`` terms wide."""
    ends = [min(likelihood._FIRST_BLOCK, block_max)]
    while ends[-1] < likelihood._TERM_BUDGET:
        ends.append(min(ends[-1] + min(ends[-1], block_max), likelihood._TERM_BUDGET))
    return ends


class TestBlockLayout:
    """A row stops only at the end of one of its blocks, so where they end
    moves its summed range and the rounding of its sums, not its value
    beyond the floor."""

    @pytest.mark.parametrize("name", sorted(_LAYOUT_CASES))
    def test_narrow_blocks_give_the_same_series(self, name, monkeypatch):
        """Blocks of at most 8 terms: each row starts where it did and its
        summed range holds the start's term and whole blocks, so n_max -
        n_min is a block end, with its value within 1e-12 of the default
        blocks'.  A row that stops at another N leaves another tail out of
        its moments, weighted by k and k^2 (up to 3e-11 of var N at the
        1e-12 floor), so the moments are compared at a floor of 1e-24,
        where block ends move them by rounding alone."""
        args = _LAYOUT_CASES[name]()
        if name == "left-tail-retry":
            # at 1e-30 the far-mode row's left tail is not negligible, so it is summed again
            monkeypatch.setattr(likelihood, "_REL_FLOOR", 1e-30)
        default = likelihood._BLOCK_MAX
        ll, n_min, n_max, _ = _batch_series(*args, moments=True)
        assert np.all(np.isin(n_max - n_min, _block_ends(default)))
        monkeypatch.setattr(likelihood, "_BLOCK_MAX", 8)
        ll_8, n_min_8, n_max_8, _ = _batch_series(*args, moments=True)
        np.testing.assert_array_equal(n_min_8, n_min)
        assert np.all(np.isin(n_max_8 - n_min_8, _block_ends(8)))
        np.testing.assert_allclose(ll_8, ll, rtol=1e-12, atol=0.0)

        monkeypatch.setattr(likelihood, "_REL_FLOOR", min(likelihood._REL_FLOOR, 1e-24))
        mom_8 = _batch_series(*args, moments=True)[3]
        monkeypatch.setattr(likelihood, "_BLOCK_MAX", default)
        mom = _batch_series(*args, moments=True)[3]
        for got, want in zip(mom_8, mom):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_value_and_moment_passes_sum_the_same_blocks(self):
        """A pass for the value alone gives every row, moved or not, Poisson
        or NB, the value and summed range of a pass with moments, to the bit."""
        tables = [_nb_moved_rows(), _kernel_regime(2000.0, 0.02, 60, 5), _mixed_rows("per-row", missing=True)]
        batch = tuple(np.concatenate(parts) for parts in zip(*tables))
        value = _batch_series(*batch, moments=False)
        with_moments = _batch_series(*batch, moments=True)
        assert value[3] is None and np.all(np.isfinite(value[0]))
        for got, want in zip(value[:3], with_moments[:3]):
            np.testing.assert_array_equal(got, want)


def _nb_rows(rows, seed):
    """NB rows of three surveys with a per-row theta, as (counts, lam, p, phi)."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(20.0, 80.0, rows)
    counts = rng.binomial(rng.poisson(lam)[:, None], 0.5, (rows, 3)).astype(float)
    return counts, lam, rng.uniform(0.3, 0.7, (rows, 3)), 1.0 / rng.uniform(0.5, 6.0, rows)


def _kernel_table(counts, lam, p):
    """An intercept-only Poisson table with one lambda and one p."""
    n, j = counts.shape
    return (
        ParameterVector(beta=[math.log(lam)], alpha=[math.log(p / (1.0 - p))]),
        ObservationTable(counts),
        DesignMatrices(np.ones((n, 1)), np.ones((n, j, 1))),
    )


def _assert_same_series(got, want, rows=slice(None)):
    """Rows ``rows`` of one _batch_series result equal another result to
    the bit, moments included if it has them."""
    for g, w in zip((*got[:3], *(got[3] or ())), (*want[:3], *(want[3] or ()))):
        np.testing.assert_array_equal(g[rows], w)


def _slab_counts(monkeypatch):
    """The number of slabs each of the kernel's blocks was cut into."""
    counts = []
    row_slabs = likelihood._row_slabs

    def counted(n_rows, width):
        slabs = row_slabs(n_rows, width)
        counts.append(len(slabs))
        return slabs

    monkeypatch.setattr(likelihood, "_row_slabs", counted)
    return counts


class TestSlabs:
    """Each block of the summation is worked in slabs of rows whose arrays
    hold at most _SLAB elements; where the slabs end changes nothing."""

    @pytest.mark.parametrize("n_rows", [1, 2, 15, 16, 17, 31, 33, 48, 49, 705, 20_000])
    @pytest.mark.parametrize("width", [1, 3, 53, 2049, 4096, 5000, 200_000])
    def test_slabs_cover_the_rows_in_aligned_bounded_pieces(self, n_rows, width):
        """No slab holds more rows than fit in _SLAB elements (one row at
        least), and where two rows fit the last slab is no lone row."""
        slabs = likelihood._row_slabs(n_rows, width)
        assert [i for r in slabs for i in range(r.start, r.stop)] == list(range(n_rows))
        fit = max(likelihood._SLAB // width, 1)
        sizes = [r.stop - r.start for r in slabs]
        assert max(sizes) <= fit
        assert fit == 1 or max(sizes) * width <= likelihood._SLAB
        assert fit == 1 or len(slabs) == 1 or sizes[-1] > 1

    def test_no_block_buffer_exceeds_a_slab(self, monkeypatch):
        """The widest blocks (4096 terms) still fit 8 rows in a slab, which
        neither a value pass's buffers nor a moment pass's ever exceed."""
        assert likelihood._SLAB // likelihood._BLOCK_MAX >= 8
        sizes = []
        ratio_parts = likelihood._ratio_parts

        def recorded(n_grid, *args, **kwargs):
            sizes.append(np.size(n_grid))
            return ratio_parts(n_grid, *args, **kwargs)

        monkeypatch.setattr(likelihood, "_ratio_parts", recorded)
        for moments in (False, True):
            sizes.clear()
            _batch_series(*_kernel_regime(50.0, 0.5, 20_000, 8), moments=moments)
            assert len(sizes) > 5 and max(sizes) <= likelihood._SLAB

    def test_values_equal_the_halves(self, monkeypatch):
        """A table of several slabs gives each row's log-likelihood to the
        bit as its half of the table alone does."""
        counts = _kernel_regime(50.0, 0.5, 8000, 9)[0]
        slabs = _slab_counts(monkeypatch)
        whole = table_row_logliks(*_kernel_table(counts, 50.0, 0.5), MixtureFamily.POISSON)
        assert slabs[0] > 2
        halves = [
            table_row_logliks(*_kernel_table(part, 50.0, 0.5), MixtureFamily.POISSON)
            for part in (counts[:4000], counts[4000:])
        ]
        np.testing.assert_array_equal(whole, np.concatenate(halves))

    def test_moments_equal_the_halves(self, monkeypatch):
        """NB with a per-row theta: 9,000 rows span several slabs of the
        first, 16-wide block, and each half gives its rows' series alone."""
        whole = _nb_rows(9000, 10)
        slabs = _slab_counts(monkeypatch)
        got = _batch_series(*whole, moments=True)
        assert slabs[0] > 1
        for rows in (slice(0, 4500), slice(4500, None)):
            _assert_same_series(got, _batch_series(*(a[rows] for a in whole), moments=True), rows)

    def test_moments_do_not_depend_on_the_slab_size(self, monkeypatch):
        """Rows cut into slabs give the moments of one slab for the whole
        table, to the bit, on rows that differ from each other.  20,001 rows
        make the first block's slabs uneven: nine of 2,048 rows and one of
        1,569."""
        args = _nb_rows(20_001, 11)
        slabs = _slab_counts(monkeypatch)
        got = _batch_series(*args, moments=True)
        assert slabs[0] > 2
        monkeypatch.setattr(likelihood, "_SLAB", 1 << 40)
        _assert_same_series(got, _batch_series(*args, moments=True))

    def test_memory_stays_bounded_on_a_large_table(self):
        """20,000 typical rows peak far below the 47.5 MiB of five full
        rows x width buffers; numpy reports its buffers to tracemalloc."""
        params, table, designs = _kernel_table(_kernel_regime(50.0, 0.5, 20_000, 12)[0], 50.0, 0.5)
        tracemalloc.start()
        try:
            table_row_logliks(params, table, designs, MixtureFamily.POISSON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


def _ratio_grids(monkeypatch):
    """The shapes of the grids the kernel evaluates r on, as two lists that
    fill as it runs: its blocks' (into the pass's buffers) and the rest."""
    blocks, others = [], []
    ratio_parts = likelihood._ratio_parts

    def counted(n_grid, y0, keep, phi, work=None):
        (others if work is None else blocks).append(np.shape(n_grid))
        return ratio_parts(n_grid, y0, keep, phi, work)

    monkeypatch.setattr(likelihood, "_ratio_parts", counted)
    return blocks, others


def _grid_points_per_row(monkeypatch, counts, lam, p, phi, moments=True):
    """Block grid points the kernel evaluates per row, and terms it sums per row."""
    blocks, _ = _ratio_grids(monkeypatch)
    _, n_min, n_max, _ = _batch_series(counts, lam, p, phi, moments=moments)
    return sum(np.prod(shape) for shape in blocks) / lam.size, np.mean(n_max - n_min + 1)


def _ml_table(sim, fit):
    return _kernel_inputs(fit.estimates, sim.table_mean, sim.designs_mean, MixtureFamily.NEGBIN)


class TestBlockSizing:
    """The fixed blocks evaluate few grid points per row (a count of work,
    not a timing)."""

    def test_criterion_3_rows(self, monkeypatch):
        """The first 20,000 rows of criterion 3's seeded table: in either
        pass every grid point is a summed term, and the rows stop by their
        third block end (64 terms past the start) on average."""
        rng = np.random.default_rng(7)
        n_true = rng.poisson(np.full(100_000, 50.0))
        counts = rng.binomial(n_true[:, None], np.full((100_000, 3), 0.5))[:20_000].astype(float)
        args = (counts, np.full(20_000, 50.0), np.full(counts.shape, 0.5), np.zeros(20_000))
        for moments in (False, True):
            points, terms = _grid_points_per_row(monkeypatch, *args, moments=moments)
            assert points == terms - 1
            assert points <= 64.0

    @pytest.mark.parametrize("seed, ceiling", [(6, 44.5), (1, 37.3)])
    def test_fit_tables_at_their_ml_estimates(self, seed, ceiling, example_sim, ml_fit, monkeypatch):
        """The 648-row NB tables the fit tests use; ceilings are the points
        per row of a first block sized from the one-survey thinning mean."""
        if seed == 6:
            sim, fit = example_sim, ml_fit
        else:
            sim = simulate(SimConfig(seed=seed))
            fit = fit_ml(sim.table_mean, sim.designs_mean, MixtureFamily.NEGBIN)
        points, _ = _grid_points_per_row(monkeypatch, *_ml_table(sim, fit))
        assert points <= ceiling

    def test_screened_rows_take_no_newton_steps(self, example_sim, ml_fit, monkeypatch):
        """The seed-6 table at its ML estimate, where every row is screened
        and none moves: neither pass steps toward the rows' modes, as blocks
        that end at fixed offsets need no estimate of where a row stops.
        Outside the blocks, r is read only on the screen's one-column grid,
        never on a Newton step's two columns."""
        inputs = _ml_table(example_sim, ml_fit)
        _, others = _ratio_grids(monkeypatch)
        for moments in (False, True):
            others.clear()
            _, n_min, _, _ = _batch_series(*inputs, moments=moments)
            np.testing.assert_array_equal(n_min, np.max(inputs[0], axis=1))
            assert others == [(inputs[1].size, 1)]


def _nb_moved_rows():
    """200 NB rows with a per-row theta, then three NB rows whose starts
    move far above max(y), as (counts, lam, p, phi)."""
    counts, lam, p, phi = _nb_rows(200, 13)
    ys, lams, ps, thetas = zip(
        ([200.0, 180.0, 210.0], 1e4, 0.02, 3.0),
        ([1000.0, 1000.0, 1000.0], 2000.0, 0.5, 20.0),
        ([150.0, 140.0, 160.0], 3000.0, 0.05, 50.0),
    )
    return (
        np.vstack([counts, ys]),
        np.concatenate([lam, lams]),
        np.vstack([p, np.repeat(np.array(ps)[:, None], 3, axis=1)]),
        np.concatenate([phi, 1.0 / np.array(thetas)]),
    )


def _lattice_mode_and_sd(y, lam, p, phi, top):
    """The summand's lattice mode m, the last N with g(N) >= g(N - 1), and
    sd = (log r(m) - log r(m + 1))^(-1/2), from scipy's log-pmfs on
    max(y)..top."""
    grid = np.arange(np.max(y), top + 1.0)
    if phi == 0.0:
        log_g = poisson.logpmf(grid, lam)
    else:
        log_g = nbinom.logpmf(grid, 1.0 / phi, 1.0 / (1.0 + lam * phi))
    log_g += np.sum(binom.logpmf(y[:, None], grid, p[:, None]), axis=0)
    log_r = np.diff(log_g)  # log r(N) at N = grid[1:]
    at = np.flatnonzero(log_r >= 0.0)[-1]  # log r(m) = log_r[at]
    return grid[at + 1], (log_r[at] - log_r[at + 1]) ** -0.5


class TestSeriesStart:
    """A moved row starts _START_SDS of the summand's sds below its mode,
    both read off the pmfs here rather than off the kernel's term ratio."""

    def test_moved_rows_start_nine_sds_below_the_mode(self):
        tables = [
            tuple(a[-3:] for a in _nb_moved_rows()),
            tuple(a[:3] for a in _kernel_regime(2000.0, 0.02, 60, 5)),
            tuple(a[:3] for a in _kernel_regime(2000.0, 0.5, 60, 5)),
        ]
        counts, lam, p, phi = (np.concatenate(parts) for parts in zip(*tables))
        _, n_min, _, _ = _batch_series(counts, lam, p, phi, moments=False)
        assert np.all(n_min > np.max(counts, axis=1))
        for i in range(lam.size):
            mode, sd = _lattice_mode_and_sd(counts[i], lam[i], p[i], phi[i], 50.0 * lam[i])
            assert abs(n_min[i] - (mode - likelihood._START_SDS * sd)) <= 1.0


class TestRowOrder:
    """A row's value, summed range and moments depend on that row alone:
    permuting a batch's rows permutes every output, to the bit."""

    @pytest.mark.parametrize("case", ["seed-6-ml", "nb-moved-rows"])
    def test_permuted_rows_give_permuted_series(self, case, example_sim, ml_fit):
        args = _ml_table(example_sim, ml_fit) if case == "seed-6-ml" else _nb_moved_rows()
        want = _batch_series(*args, moments=True)
        if case == "nb-moved-rows":
            assert np.all(want[1][-3:] > np.max(args[0][-3:], axis=1))
        order = np.random.default_rng(1).permutation(args[1].size)
        got = _batch_series(*(a[order] for a in args), moments=True)
        assert len(got[3]) == 6
        for g, w in zip((*got[:3], *got[3]), (*want[:3], *want[3])):
            np.testing.assert_array_equal(g, w[order])


class TestBatchInvariance:
    """Every output of a row, its value, summed range and six moments,
    is the one it gets alone, to the bit, in a batch with other tables'
    rows (other lambda and theta, Poisson and NB) and in a permuted batch.
    The sparse rows (lambda 2000, p 0.02) move their starts, each after as
    many Newton steps as it needs itself."""

    @pytest.mark.parametrize("moments", [False, True])
    def test_rows_alone_in_a_batch_and_permuted(self, moments):
        counts, lam, p, phi = _mixed_rows("scalar")
        tables = [_nb_moved_rows(), _kernel_regime(2000.0, 0.02, 60, 5), (counts, lam * 3.0, p, phi * 0.4)]
        batch = tuple(np.concatenate(parts) for parts in zip(*tables))
        got = _batch_series(*batch, moments=moments)
        sparse = slice(tables[0][1].size, tables[0][1].size + tables[1][1].size)
        assert np.all(got[1][sparse] > np.max(batch[0][sparse], axis=1))
        for i in range(batch[1].size):
            _assert_same_series(got, _batch_series(*(a[i : i + 1] for a in batch), moments=moments), [i])
        order = np.random.default_rng(3).permutation(batch[1].size)
        _assert_same_series(got, _batch_series(*(a[order] for a in batch), moments=moments), order)


class TestScore:
    """The exact score against finite differences of table_loglik."""

    @pytest.mark.parametrize("name", sorted(_SCORE_CASES))
    def test_matches_finite_differences(self, name):
        table, designs, params, family = _score_case(name)
        value, score = table_loglik_hessian(params, table, designs, family)[:2]
        assert value == table_loglik(params, table, designs, family)
        want = _richardson(table_loglik, table, designs, params, family)
        assert score.shape == (params.n_params,)
        np.testing.assert_allclose(
            score, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want))
        )

    def test_clamped_cells_contribute_nothing(self):
        table, designs, params, family = _score_case("clamped-p")
        _, score, hess = table_loglik_hessian(params, table, designs, family)
        # alpha[1] and alpha[2] reach only the clamped cells
        assert score[3] == 0.0
        assert score[4] == 0.0
        assert np.all(hess[3:5] == 0.0) and np.all(hess[:, 3:5] == 0.0)


class TestHessian:
    """The exact Hessian against finite differences of the exact score."""

    @pytest.mark.parametrize("name", sorted(_SCORE_CASES))
    def test_matches_score_differences(self, name):
        table, designs, params, family = _score_case(name)
        value, score, hess = table_loglik_hessian(params, table, designs, family)
        assert value == table_loglik(params, table, designs, family)
        np.testing.assert_array_equal(score, table_loglik_hessian(params, table, designs, family)[1])
        want = _richardson(
            lambda *args: table_loglik_hessian(*args)[1], table, designs, params, family
        )
        assert hess.shape == (params.n_params, params.n_params)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            hess, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want))
        )


def _at_entry(entry, y, lam, p):
    """One Poisson row of counts ``y`` and one detection ``p`` through a
    public entry of the kernel; the error's unit and the call."""
    y = np.asarray(y, dtype=float)
    if entry == "posterior_n":
        return "posterior draw", lambda: posterior_n(y, np.array([lam]), np.full((1, y.size), p))
    if entry == "row_loglik_detail":
        return "row", lambda: row_loglik_detail(_row(y, np.full(y.size, p), lam))
    table = (*_kernel_table(y[None, :], lam, p), MixtureFamily.POISSON)
    call = table_row_logliks if entry == "table_row_logliks" else table_loglik_hessian
    return "row", lambda: call(*table)


_ENTRIES = ["row_loglik_detail", "table_row_logliks", "table_loglik_hessian", "posterior_n"]


class TestFailedRows:
    """The kernel returns a failed row as a value (NaN past the term
    budget, +inf past double range, -inf at zero likelihood), and every
    public entry names the first such row, as its own unit, and the cause."""

    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_term_budget_is_named(self, entry, monkeypatch):
        # the posterior of N has sd ~700, far wider than a budget of 50 terms
        monkeypatch.setattr(likelihood, "_TERM_BUDGET", 50)
        unit, call = _at_entry(entry, [0.0], 1e6, 0.5)
        with pytest.raises(NumericError, match=f"^term budget exhausted for {unit} 0 ") as info:
            call()
        assert str(info.value).endswith("51 terms summed without meeting the relative floor; "
                                        "the budget is 50 terms past the start")

    @pytest.mark.parametrize(
        "y, p, lam",
        [((3.0, 2.0, 4.0), 0.5, lam) for lam in (1e17, 1e19, 7e19, 1e20, 1e300)] + [((5.0,), 0.9, 7e307)],
    )
    def test_start_past_2_53_is_named(self, y, p, lam):
        """A row whose budget past its start reaches 2**53, where N + 1
        rounds to N, is not summed: no cast or log n! leaves range, and the
        error names the cause and the start."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^terms past 2\*\*53 cannot be counted "
                                                   r"\(N \+ 1 rounds to N\) for row 0 "
                                                   rf"\(lam={re.escape(f'{lam:.6g}')}, start N=[\d.e+]+\)$"):
                row_loglik_detail(_row(y, np.full(len(y), p), lam))

    @pytest.mark.parametrize("entry", _ENTRIES)
    @pytest.mark.parametrize("count", [1e300, 1e307])
    def test_count_past_2_53_is_named_without_a_warning(self, entry, count):
        """A count whose log n! overflows (past about 2.5e305) is never summed,
        and its leading term is never formed: every entry names 2**53."""
        unit, call = _at_entry(entry, [count], 2.0 * count, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=rf"^terms past 2\*\*53 cannot be counted "
                                                   rf"\(N \+ 1 rounds to N\) for {unit} 0 "):
                call()

    @pytest.mark.parametrize("lam", [1e13, 1e16])
    def test_start_below_2_53_exhausts_the_budget(self, lam):
        """Starts near 1.25e12 and 1.25e15 lie below 2**53, so these rows
        are summed, and fail as past the budget."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=rf"^term budget exhausted for row 0 "
                                                   rf"\(lam={re.escape(f'{lam:.6g}')}, start N=\d+\): 10001 "
                                                   r"terms summed without meeting the relative floor; "
                                                   r"the budget is 10000 terms past the start$"):
                row_loglik_detail(_row((3.0, 2.0, 4.0), np.full(3, 0.5), lam))

    @pytest.mark.parametrize("entry", _ENTRIES)
    def test_overflow_is_named_and_is_no_budget(self, entry, monkeypatch):
        """Kept at y* = 10, the far-mode row's terms scaled to g(10) leave
        double range long before the budget."""
        monkeypatch.setattr(likelihood, "_MIN_SHIFT", 10**9)
        monkeypatch.setattr(likelihood, "_LEAD_LIMIT", 1e9)
        unit, call = _at_entry(entry, [10.0], 5e4, 0.001)
        with pytest.raises(NumericError, match=f"^latent-abundance series overflowed double precision "
                                               rf"for {unit} 0 \(lam=50000, start N=10\)$") as info:
            call()
        assert "budget" not in str(info.value)

    def test_zero_likelihood_is_named(self):
        """p = 1 pins N at each count, so unequal counts have no mass under
        the second draw; the first draw is fine."""
        p = np.array([[0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(NumericError, match="^posterior draw 1 gives the counts zero likelihood$"):
            posterior_n(np.array([3.0, 5.0]), np.array([5.0, 5.0]), p)

    def test_first_failed_row_is_named(self, monkeypatch):
        """Of a zero-likelihood draw and an earlier draw past the budget,
        the error names the first."""
        monkeypatch.setattr(likelihood, "_TERM_BUDGET", 50)
        p = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(NumericError, match="^term budget exhausted for posterior draw 1 "):
            posterior_n(np.array([3.0, 5.0]), np.array([5.0, 1e6, 5.0]), p)

    @pytest.mark.parametrize("moments", [False, True])
    def test_one_failed_row_leaves_the_others_alone(self, moments):
        """An NB row whose posterior spreads past the 10,000-term budget
        gets ll NaN, and every other row's ll and summed range equal, to
        the bit, those of the same batch without it."""
        counts, lam, p, phi = _mixed_rows("per-row")
        at = 7
        batch = (
            np.insert(counts, at, [10.0, 12.0, 9.0], axis=0),
            np.insert(lam, at, 5e4),
            np.insert(p, at, 0.001, axis=0),
            np.insert(phi, at, 0.5),
        )
        ll, n_min, n_max, _ = _batch_series(*batch, moments=moments)
        assert np.isnan(ll[at])
        assert n_max[at] - n_min[at] == likelihood._TERM_BUDGET
        want = _batch_series(counts, lam, p, phi, moments=moments)
        others = np.arange(lam.size + 1) != at
        for got, w in zip((ll, n_min, n_max), want[:3]):
            np.testing.assert_array_equal(got[others], w)


# The series kernel and its term layout: each helper's arguments follow
# choices (phi per row, d's N-free factor folded into keep's first column)
# that only likelihood.py should know.
_KERNEL_TERM_HELPERS = (
    "_batch_series", "_check_series", "_keep", "_leading_log_term", "_phi",
    "_ratio_parts", "_series_start", "_sum_upward", "_take",
)


def test_every_kernel_result_is_checked():
    """Every function of likelihood.py that calls the series kernel also
    calls _check_series, so no failed row reaches a caller as a value."""
    tree = ast.parse(Path(likelihood.__file__).read_text())
    callers = {}
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        called = {node.func.id for node in ast.walk(func)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        if "_batch_series" in called:
            callers[func.name] = "_check_series" in called
    # table_loglik_hessian is tables_loglik_hessian of one table
    assert set(_ENTRIES) - {"table_loglik_hessian"} | {"tables_loglik_hessian"} <= set(callers)
    assert all(callers.values()), callers


def test_only_the_kernel_module_uses_its_term_helpers():
    """No module but likelihood.py imports the series kernel or a term
    helper, or reads one off the likelihood module; the guard names only
    helpers that exist."""
    package = Path(likelihood.__file__).parent
    assert all(callable(getattr(likelihood, name, None)) for name in _KERNEL_TERM_HELPERS)
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "likelihood.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in _KERNEL_TERM_HELPERS]
    assert found == []
