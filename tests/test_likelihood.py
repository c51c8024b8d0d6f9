"""Marginal likelihood kernel: analytic identities, the brute-force
oracle, truncation behaviour, the exact score and Hessian, and the
finite-difference helpers the tests use as oracles.

The recursive evaluator and the brute-force evaluator share no code
beyond the input container, so agreement between them is evidence, not
tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom, poisson

from nmixfit import (
    DesignMatrices,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    RowLikelihoodInput,
    TruncationPolicy,
    row_loglik_bruteforce,
    row_loglik_detail,
    row_loglik_recursive,
    table_loglik,
    table_loglik_hessian,
    table_loglik_score,
    table_row_logliks,
)
from nmixfit.likelihood import _batch_series, log_count_density

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
            got = row_loglik_recursive(_row([y], [p], lam))
            assert _rel_err(got, _thinned_logpmf(y, lam, p)) < 1e-12

    @pytest.mark.parametrize("lam,p,theta", [(2.0, 0.3, 0.7), (25.0, 0.6, 4.0)])
    def test_single_survey_negative_binomial(self, lam, p, theta):
        for y in range(26):
            got = row_loglik_recursive(_row([y], [p], lam, theta))
            assert _rel_err(got, _thinned_logpmf(y, lam, p, theta)) < 1e-10

    @pytest.mark.parametrize("p", [[0.5], [0.2, 0.7], [0.35, 0.5, 0.65]])
    def test_all_zero_poisson_row(self, p):
        """With every count zero the sum collapses to a single exponential:
        sum_N Pois(N; lam) prod_j (1-p_j)^N = exp(lam (prod_j (1-p_j) - 1)).
        """
        lam = 7.3
        got = row_loglik_recursive(_row([0.0] * len(p), p, lam))
        want = lam * (np.prod(1.0 - np.asarray(p)) - 1.0)
        assert _rel_err(got, want) < 1e-12

    def test_all_zero_single_survey_matches_minus_lam_p(self):
        got = row_loglik_recursive(_row([0.0], [0.25], 4.0))
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
            row_loglik_recursive(_row([float(y)], [p], lam, theta))
            for y in range(200)
        ]
        assert math.fsum(np.exp(lls)) == pytest.approx(1.0, abs=1e-10)

    def test_distribution_sums_to_one_two_surveys(self):
        lam, p = 2.5, (0.55, 0.3)
        total = math.fsum(
            np.exp(row_loglik_recursive(_row([float(a), float(b)], p, lam)))
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

    def test_tighter_floor_changes_little(self):
        """The increment floor bounds the discarded tail, so shrinking it
        by three decades must move the answer by less than the old floor."""
        row = _row([4.0, 9.0, 6.0], [0.3, 0.45, 0.5], 30.0, 1.5)
        loose = row_loglik_recursive(row, TruncationPolicy(relative_increment_floor=1e-12))
        tight = row_loglik_recursive(row, TruncationPolicy(relative_increment_floor=1e-15))
        assert abs(loose - tight) < 1e-11 * max(1.0, abs(tight))

    def test_hard_cap_divergence_is_an_error(self):
        # the posterior of N has sd ~700, far wider than a budget of 50
        # terms; the error names the budget and never claims divergence
        row = _row([0.0], [0.5], 1e6)
        with pytest.raises(NumericError, match="term budget exhausted") as info:
            row_loglik_recursive(row, TruncationPolicy(hard_cap_offset=50))
        assert "hard_cap_offset=50" in str(info.value)
        assert "divergent" not in str(info.value)

    def test_left_tail_too_heavy_for_the_floor_is_summed_from_lower(self):
        # at a floor of 1e-30 the terms below mode - 9 sd are not negligible,
        # so the row is summed again from a lower start
        row = _row([10.0], [0.001], 5e4)
        default = row_loglik_detail(row)
        tight = row_loglik_detail(row, TruncationPolicy(relative_increment_floor=1e-30))
        assert 10 < tight.n_min < default.n_min
        assert _rel_err(tight.loglik, _thinned_logpmf(10, 5e4, 0.001)) < 1e-10

    def test_policy_validation(self):
        with pytest.raises(ModelError):
            TruncationPolicy(relative_increment_floor=0.0)
        with pytest.raises(ModelError):
            TruncationPolicy(hard_cap_offset=0)

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
        assert _rel_err(row_loglik_recursive(row), -10.0) < 1e-12

    def test_large_counts_stay_finite_and_match_oracle(self):
        row = _row([1000.0, 998.0, 1005.0], [0.5, 0.5, 0.5], 2000.0)
        detail = row_loglik_detail(row)
        assert np.isfinite(detail.loglik)
        brute = row_loglik_bruteforce(row, n_max=detail.n_max)
        assert _rel_err(detail.loglik, brute) < 1e-10

    def test_tiny_detection_negative_binomial(self):
        row = _row([2.0], [0.001], 50.0, 0.5)
        detail = row_loglik_detail(row)
        want = nbinom.logpmf(2, 0.5, 0.5 / (0.5 + 50.0 * 0.001))
        assert _rel_err(detail.loglik, want) < 1e-10


# a budget wide enough for every row of the extreme-regime tests
_WIDE_BUDGET = TruncationPolicy(hard_cap_offset=4_000_000)

_LOG_LAM = st.floats(math.log(0.01), math.log(1e6))
_P = st.one_of(st.floats(1e-4, 0.99), st.floats(math.log(1e-4), math.log(0.99)).map(math.exp))
_THETA = st.one_of(st.none(), st.floats(math.log(0.05), math.log(50.0)).map(math.exp))


def _value_or_budget_error(row, want):
    """The row's log-likelihood equals ``want`` to 1e-9 relative, or it
    raises the term-budget error and a wider budget then gives ``want``."""
    try:
        got = row_loglik_recursive(row)
    except NumericError as exc:
        message = str(exc)
        assert "term budget exhausted" in message
        assert "divergent" not in message
        detail = row_loglik_detail(row, _WIDE_BUDGET)
        assert detail.n_terms > TruncationPolicy().hard_cap_offset
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
            log_count_density(n, 6.5), poisson.logpmf(n, 6.5), rtol=1e-12
        )

    def test_negative_binomial_log_pmf(self):
        n = np.arange(40, dtype=float)
        got = log_count_density(n, 6.5, 2.3)
        want = nbinom.logpmf(n, 2.3, 2.3 / (2.3 + 6.5))
        np.testing.assert_allclose(got, want, rtol=1e-10)


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
        direct = row_loglik_recursive(
            _row([1.0, 3.0], p0, lam0, theta=np.exp(0.3))
        )
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
        moves.  The two wide rows sit above the 95th percentile of the
        rows' spans, so every call sizes its blocks alike."""
        rng = np.random.default_rng(21)
        lam = np.concatenate([rng.uniform(2.0, 12.0, 58), [400.0, 1e4]])
        counts = rng.binomial(rng.poisson(lam)[:, None], 0.4, size=(60, 3)).astype(float)
        counts[-1] = [200.0, 180.0, 210.0]
        p = np.concatenate([rng.uniform(0.3, 0.6, (59, 3)), np.full((1, 3), 0.02)])
        mask = np.ones(counts.shape, dtype=bool)
        mask[3, 1] = mask[17, 0] = False
        theta = rng.uniform(0.5, 8.0, 60)
        trunc = TruncationPolicy()

        ll, n_min, n_max, mom = _batch_series(counts, mask, lam, p, theta, trunc, moments=True)
        assert n_min[-1] > 210 and n_max[-2] - n_min[-2] > 2 * 64
        for i in range(60):
            ll_i, n_min_i, n_max_i, mom_i = _batch_series(
                counts, mask, lam, p, theta[i], trunc, moments=True
            )
            assert ll[i] == ll_i[i]
            assert (n_min[i], n_max[i]) == (n_min_i[i], n_max_i[i])
            assert tuple(f[i] for f in mom) == tuple(f[i] for f in mom_i)


class TestScore:
    """The exact score against finite differences of table_loglik."""

    @pytest.mark.parametrize("name", sorted(_SCORE_CASES))
    def test_matches_finite_differences(self, name):
        table, designs, params, family = _score_case(name)
        value, score = table_loglik_score(params, table, designs, family)
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
        np.testing.assert_array_equal(score, table_loglik_score(params, table, designs, family)[1])
        want = _richardson(
            lambda *args: table_loglik_score(*args)[1], table, designs, params, family
        )
        assert hess.shape == (params.n_params, params.n_params)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            hess, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want))
        )
