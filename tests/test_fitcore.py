"""Optimizer core: mode finding, curvature inversion, design checks."""

import numpy as np
import pytest

from nmixfit import (
    DesignMatrices,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    fit_ml,
    fitcore,
    likelihood,
)
from nmixfit.fitcore import (
    check_designs_for_fit,
    covariance_from_log_density,
    default_start,
    maximize_log_density,
)


def _log_domain(x):
    """-(log x - 1)^2, defined only for x > 0, with its derivatives."""
    u = np.log(x[0]) - 1.0
    return -(u**2), np.array([-2.0 * u / x[0]]), np.array([[(2.0 * u - 2.0) / x[0] ** 2]])


class TestMaximize:
    def test_finds_quadratic_mode(self):
        m = np.array([[3.0, 0.7], [0.7, 1.2]])
        target = np.array([1.5, -2.0])

        def f(x):
            d = x - target
            return -0.5 * d @ m @ d, -m @ d, -m

        opt = maximize_log_density(f, np.zeros(2))
        assert opt.converged
        assert opt.success
        assert opt.gradient_norm < 1e-4
        assert opt.iterations >= 1
        np.testing.assert_allclose(opt.x, target, atol=1e-5)
        assert opt.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_array_equal(opt.hessian, -m)
        assert opt.passes <= opt.iterations + 1

    def test_monotone_improvement_from_any_start(self):
        def f(x):
            value = -np.cosh(x[0] - 0.3) - (x[1] + 1.0) ** 4
            grad = np.array([-np.sinh(x[0] - 0.3), -4.0 * (x[1] + 1.0) ** 3])
            return value, grad, np.diag([-np.cosh(x[0] - 0.3), -12.0 * (x[1] + 1.0) ** 2])

        x0 = np.array([5.0, 2.0])
        opt = maximize_log_density(f, x0)
        assert opt.value >= f(x0)[0]
        assert opt.converged

    def test_objective_guard_survives_infinite_regions(self):
        # log density undefined left of zero; optimizer must stay inside
        def f(x):
            if x[0] <= 0:
                return -np.inf, np.array([np.nan]), np.array([[np.nan]])
            return _log_domain(x)

        opt = maximize_log_density(f, np.array([0.5]))
        assert opt.converged
        assert opt.x[0] == pytest.approx(np.e, rel=1e-4)

    def test_numeric_error_counts_as_an_invalid_region(self):
        def f(x):
            if x[0] <= 0:
                raise NumericError("outside the domain")
            return _log_domain(x)

        opt = maximize_log_density(f, np.array([0.5]))
        assert opt.converged
        assert opt.x[0] == pytest.approx(np.e, rel=1e-4)

    def test_non_finite_start_is_an_error(self):
        with pytest.raises(NumericError, match="starting point"):
            maximize_log_density(
                lambda x: (-np.inf, np.full(1, np.nan), np.full((1, 1), np.nan)),
                np.array([0.5]),
            )

    def test_stopping_status_is_reported(self, monkeypatch):
        m = np.array([[3.0, 0.7], [0.7, 1.2]])

        def f(x):
            d = x - np.array([1.5, -2.0])
            return -0.5 * d @ m @ d, -m @ d, -m

        monkeypatch.setattr(fitcore, "_MAX_ITERATIONS", 1)
        opt = maximize_log_density(f, np.zeros(2))
        assert opt.iterations == 1
        assert not opt.success
        assert "iterations" in opt.message


class TestCovariance:
    def test_quadratic_curvature_inverts_exactly(self):
        m = np.array([[2.0, 0.4], [0.4, 1.0]])
        cov = covariance_from_log_density(-m)
        np.testing.assert_allclose(cov, np.linalg.inv(m), rtol=1e-12)
        np.testing.assert_allclose(cov, cov.T)

    def test_saddle_yields_no_covariance(self):
        assert covariance_from_log_density(np.diag([1.0, -1.0])) is None

    def test_non_pd_hessian_at_the_mode_yields_no_covariance(self):
        # singular: flat along (1, -1); and a Hessian that is not finite
        assert covariance_from_log_density(-np.ones((2, 2))) is None
        assert covariance_from_log_density(np.full((2, 2), np.nan)) is None

    def test_costs_no_extra_passes(self):
        m = np.array([[2.0, 0.4], [0.4, 1.0]])
        calls = []

        def f(x):
            calls.append(x)
            return -0.5 * x @ m @ x, -m @ x, -m

        opt = maximize_log_density(f, np.array([0.3, -1.7]))
        passes = len(calls)
        assert opt.passes == passes
        cov = covariance_from_log_density(opt.hessian)
        np.testing.assert_allclose(cov, np.linalg.inv(m), rtol=1e-12)
        assert len(calls) == passes


class TestKernelPasses:
    def test_example_ml_fit_takes_few_kernel_passes(self, example_sim, monkeypatch):
        """The seed-6 ML fit, covariance included, runs the series kernel
        at most 15 times: one pass per trust-region evaluation, with value,
        score and Hessian from each, and none for the covariance (it took
        42 with BFGS and score differences, 1,405 with finite-difference
        gradients)."""
        passes = []
        kernel = likelihood._batch_series

        def counting(*args, **kwargs):
            passes.append(kwargs.get("moments"))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(likelihood, "_batch_series", counting)
        fit = fit_ml(example_sim.table_mean, example_sim.designs_mean, MixtureFamily.NEGBIN)
        assert fit.converged
        assert fit.optimizer_success
        assert fit.covariance is not None
        assert len(passes) <= 15
        assert fit.kernel_passes == len(passes)
        assert all(passes)


class TestDesignChecks:
    def _table(self, n):
        rng = np.random.default_rng(3)
        return ObservationTable(rng.poisson(4.0, size=(n, 2)).astype(float))

    def test_duplicate_abundance_column_is_named(self):
        x = np.linspace(-1, 1, 8)
        designs = DesignMatrices(
            np.column_stack([np.ones(8), x, x]),
            np.ones((8, 2, 1)),
            abundance_names=("(Intercept)", "x1", "x1.copy"),
            detection_names=("(Intercept)",),
        )
        with pytest.raises(ModelError, match="x1.copy"):
            check_designs_for_fit(self._table(8), designs, MixtureFamily.POISSON)

    def test_detection_rank_checked_over_observed_cells(self):
        d = np.ones((8, 2, 2))  # second column constant: collinear with intercept
        designs = DesignMatrices(
            np.column_stack([np.ones(8), np.linspace(-1, 1, 8)]),
            d,
            abundance_names=("(Intercept)", "x1"),
            detection_names=("(Intercept)", "w"),
        )
        with pytest.raises(ModelError, match="w"):
            check_designs_for_fit(self._table(8), designs, MixtureFamily.POISSON)

    def test_more_parameters_than_rows(self):
        designs = DesignMatrices(
            np.column_stack([np.ones(2), [0.1, 0.2]]),
            np.concatenate(
                [np.ones((2, 2, 1)), np.array([[[0.3], [0.1]], [[0.9], [0.2]]])],
                axis=2,
            ),
        )
        with pytest.raises(ModelError):
            check_designs_for_fit(self._table(2), designs, MixtureFamily.NEGBIN)


class TestDefaultStart:
    def test_intercept_tracks_row_maxima(self):
        counts = np.array([[4.0, 6.0], [2.0, 1.0]])
        table = ObservationTable(counts)
        designs = DesignMatrices(
            np.column_stack([np.ones(2), [0.5, -0.5]]), np.ones((2, 2, 1))
        )
        start = default_start(table, designs, MixtureFamily.NEGBIN)
        assert start.beta[0] == pytest.approx(np.log((6.0 + 2.0) / 2 + 0.5))
        assert start.beta[1] == 0.0
        assert np.all(start.alpha == 0.0)
        assert start.log_theta == 0.0

    def test_poisson_start_has_no_dispersion(self):
        table = ObservationTable(np.array([[1.0, 2.0]]))
        designs = DesignMatrices(np.ones((1, 1)), np.ones((1, 2, 1)))
        start = default_start(table, designs, MixtureFamily.POISSON)
        assert start.log_theta is None
