"""Optimizer core: mode finding, curvature inversion, design checks."""

import warnings

import numpy as np
import pytest

from nmixfit import (
    DesignMatrices,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    SimConfig,
    fit_ml,
    fitcore,
    likelihood,
    simulate,
    table_row_logliks,
)
from nmixfit.fitcore import (
    check_designs_for_fit,
    covariance_from_log_density,
    default_start,
    maximize_log_density,
)


def _maximize(f, x0):
    """maximize_log_density from one start, on a one-point objective ``f``:
    a NumericError that ``f`` raises is handed back as the point's entry,
    and the fit's own NumericError is raised."""

    def each(points):
        out = []
        for _, x in points:
            try:
                out.append(f(x))
            except NumericError as exc:
                out.append(exc)
        return out

    (opt,) = maximize_log_density(each, {0: x0}).values()
    if isinstance(opt, NumericError):
        raise opt
    return opt


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

        opt = _maximize(f, np.zeros(2))
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
        opt = _maximize(f, x0)
        assert opt.value >= f(x0)[0]
        assert opt.converged

    def test_objective_guard_survives_infinite_regions(self):
        # log density undefined left of zero; optimizer must stay inside
        def f(x):
            if x[0] <= 0:
                return -np.inf, np.array([np.nan]), np.array([[np.nan]])
            return _log_domain(x)

        opt = _maximize(f, np.array([0.5]))
        assert opt.converged
        assert opt.x[0] == pytest.approx(np.e, rel=1e-4)

    def test_numeric_error_counts_as_an_invalid_region(self):
        def f(x):
            if x[0] <= 0:
                raise NumericError("outside the domain")
            return _log_domain(x)

        opt = _maximize(f, np.array([0.5]))
        assert opt.converged
        assert opt.x[0] == pytest.approx(np.e, rel=1e-4)

    def test_trial_point_past_the_term_budget_is_a_rejected_step(self, monkeypatch):
        """Intercept-only Poisson ML on a sparse table whose likelihood rises
        toward lam = inf with lam p fixed: a trial point lies past the
        kernel's term budget, and the fit rejects that step and converges."""
        # the 132nd table of a probe that draws N ~ Poisson(3) at 10 sites
        # and three surveys with p = 0.15, one table after another
        rng = np.random.default_rng(0)
        for _ in range(132):
            y = rng.binomial(rng.poisson(3.0, 10)[:, None], 0.15, (10, 3)).astype(float)
        errors = []
        check = likelihood._check_series

        def recorded(*args):
            try:
                check(*args)
            except NumericError as exc:
                errors.append(str(exc))
                raise

        monkeypatch.setattr(likelihood, "_check_series", recorded)
        designs = DesignMatrices(np.ones((10, 1)), np.ones((10, 3, 1)))
        fit = fit_ml(ObservationTable(y), designs, MixtureFamily.POISSON)
        assert fit.converged
        assert any(e.startswith("term budget exhausted for row ") for e in errors)

    def test_non_finite_start_is_an_error(self):
        with pytest.raises(NumericError, match="^objective is not finite at the starting point$"):
            _maximize(
                lambda x: (-np.inf, np.full(1, np.nan), np.full((1, 1), np.nan)),
                np.array([0.5]),
            )

    def test_start_error_names_its_cause(self):
        """A NumericError at the start reaches the fit with its own message;
        at a trial point it is a rejected step (see above)."""

        def f(x):
            raise NumericError("row 0 is past the budget")

        with pytest.raises(NumericError, match="^objective is not finite at the starting point: "
                                               "row 0 is past the budget$"):
            _maximize(f, np.array([0.5]))

    def test_callback_gets_the_running_fits_only(self):
        """Three concave quadratics of different curvature, from different
        distances, in one call: each callback call holds, keyed and in the
        order of the starts, exactly the fits still running, so a finished
        fit never comes back, and each fit ends as it does alone, to the bit."""
        curvature = {"near": 0.3, "mid": 2.0, "far": 40.0}
        starts = {"near": np.array([0.5, -0.2]), "mid": np.array([3.0, 1.0]),
                  "far": np.array([-40.0, 25.0])}

        def quadratic(c):
            return lambda x: (-0.5 * c * (x @ x), -c * x, -c * np.eye(x.size))

        calls = []

        def each(points):
            calls.append([key for key, _ in points])
            return [quadratic(curvature[key])(x) for key, x in points]

        optima = maximize_log_density(each, starts)
        passes = {key: opt.passes for key, opt in optima.items()}
        assert len(set(passes.values())) == 3
        assert calls == [[key for key in starts if t < passes[key]] for t in range(len(calls))]
        for key, opt in optima.items():
            alone = _maximize(quadratic(curvature[key]), starts[key])
            assert [np.asarray(v).tolist() for v in opt] == [np.asarray(v).tolist() for v in alone]

    def test_hard_case_start_leaves_along_the_curvature(self):
        # at (0, 0) the gradient (2, 0) is orthogonal to the direction (0, 1)
        # of positive curvature, so only a step along it finds the modes
        def f(x):
            value = -((x[0] - 1.0) ** 2) + 0.5 * x[1] ** 2 - x[1] ** 4
            grad = np.array([-2.0 * (x[0] - 1.0), x[1] - 4.0 * x[1] ** 3])
            return value, grad, np.diag([-2.0, 1.0 - 12.0 * x[1] ** 2])

        opt = _maximize(f, np.zeros(2))
        assert opt.converged
        assert opt.success
        np.testing.assert_allclose(np.abs(opt.x), [1.0, 0.5], atol=1e-5)

    def test_gain_below_the_value_rounding_is_accepted(self):
        # from x = 2 + 3e-5 the Newton step gains 4.5e-10, under the spacing of
        # doubles near 1e7 (1.9e-9), so the computed gain is only rounding
        def f(x):
            d = x - 2.0
            return 1e7 - 0.5 * d @ d, -d, -np.eye(1)

        opt = _maximize(f, np.array([2.0 + 3e-5]))
        assert opt.success
        assert opt.iterations == 1
        assert opt.x[0] == 2.0

    def test_stopping_status_is_reported(self, monkeypatch):
        m = np.array([[3.0, 0.7], [0.7, 1.2]])

        def f(x):
            d = x - np.array([1.5, -2.0])
            return -0.5 * d @ m @ d, -m @ d, -m

        monkeypatch.setattr(fitcore, "_MAX_ITERATIONS", 1)
        opt = _maximize(f, np.zeros(2))
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

        opt = _maximize(f, np.array([0.3, -1.7]))
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


class TestIterationLimit:
    """A fit cut off at the iteration limit is not converged, whatever its
    score reads there."""

    def test_one_iteration_fit_is_not_converged(self, example_sim, monkeypatch):
        """Even where the score test alone would pass any score."""
        monkeypatch.setattr(fitcore, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(fitcore, "_CONVERGED_NORM", np.inf)
        fit = fit_ml(example_sim.table_mean, example_sim.designs_mean, MixtureFamily.NEGBIN)
        assert (fit.iterations, fit.converged, fit.optimizer_success) == (1, False, False)

    def test_fit_on_the_theta_ridge_is_not_converged(self):
        """An NB fit of data that are not overdispersed climbs the theta =
        inf ridge to the limit, where its score's largest entry, 1.0e-5,
        is below the converged test's 1e-4."""
        sim = simulate(SimConfig(n_sites=30, n_years=2, theta=None, seed=9))
        fit = fit_ml(sim.table_mean, sim.designs_mean, MixtureFamily.NEGBIN)
        assert fit.kernel_passes == fitcore._MAX_ITERATIONS + 1
        assert fit.gradient_norm < fitcore._CONVERGED_NORM
        assert not fit.converged
        assert fit.optimizer_message == "Maximum number of iterations has been exceeded."


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

    @pytest.mark.parametrize("rows, surveys", [(7, 2), (8, 3)])
    def test_table_design_mismatch_reads_the_same_from_fit_and_kernel(self, rows, surveys):
        table = self._table(8)
        designs = DesignMatrices(np.ones((rows, 1)), np.ones((rows, surveys, 1)))
        params = ParameterVector(beta=[1.0], alpha=[0.0])
        with pytest.raises(ModelError) as from_fit:
            fit_ml(table, designs, MixtureFamily.POISSON)
        with pytest.raises(ModelError) as from_kernel:
            table_row_logliks(params, table, designs, MixtureFamily.POISSON)
        assert str(from_fit.value) == str(from_kernel.value) == (
            f"designs cover {rows} rows and {surveys} surveys "
            "but the table has 8 rows and 2 surveys"
        )

    def test_columns_past_the_row_count_are_named(self):
        matrix = np.random.default_rng(4).normal(size=(2, 4))
        assert fitcore._column_rank_report(matrix, ("a", "b", "c", "d")) == ["c", "d"]

    @pytest.mark.parametrize("scale", [1e-200, 1e-17, 1e16, 1e155, 1e300])
    def test_rank_does_not_depend_on_the_units(self, scale):
        """[1, s x] is full rank at any scale s, and no norm overflows."""
        matrix = np.column_stack([np.ones(8), scale * np.linspace(-1, 1, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fitcore._column_rank_report(matrix, ("(Intercept)", "x1")) == []

    def test_scaled_duplicate_and_zero_columns_are_named(self):
        x = np.linspace(-1, 1, 8)
        matrix = np.column_stack([np.ones(8), x, 1e100 * x, np.zeros(8)])
        assert fitcore._column_rank_report(matrix, ("a", "b", "c", "d")) == ["c", "d"]

    @pytest.mark.parametrize("scale", [1e-17, 1e16])
    @pytest.mark.parametrize("which", ["abundance", "detection"])
    def test_columns_of_too_different_scales_are_refused(self, scale, which):
        """The fit's limits are in the coefficients' units, so it would stop
        short of such a design's mode; the design is refused, and not as
        collinear."""
        x = scale * np.linspace(-1, 1, 8)
        a = np.column_stack([np.ones(8), x]) if which == "abundance" else np.ones((8, 1))
        d = np.ones((8, 2, 1))
        if which == "detection":
            d = np.stack([np.ones((8, 2)), np.column_stack([x, -x])], axis=2)
        with pytest.raises(ModelError, match=f"^{which} design.* differ in scale past 1") as refused:
            check_designs_for_fit(self._table(8), DesignMatrices(a, d), MixtureFamily.POISSON)
        assert "collinear" not in str(refused.value)

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


class TestTrustStep:
    """Each step maximises g·s + ½ sᵀHs over ‖s‖ ≤ radius exactly, which
    Nocedal & Wright (2006, Thm 4.1) characterise: (-H + mu I) s = g with
    mu ≥ 0, mu (radius - ‖s‖) = 0 and -H + mu I positive semi-definite."""

    def _check(self, g, neg_h, radius):
        s, on_boundary = fitcore._trust_step(g, -neg_h, radius)
        n, norm = g.size, np.linalg.norm(s)
        # mu from the first condition along s; 0 for an interior step
        mu = s @ (g - neg_h @ s) / norm**2 if on_boundary else 0.0
        scale = np.linalg.norm(neg_h, 2)
        shifted = neg_h + mu * np.eye(n)
        assert np.linalg.norm(shifted @ s - g) <= 1e-9 * np.linalg.norm(g)
        assert mu >= -1e-9 * scale
        assert mu * abs(radius - norm) <= 1e-9 * mu * radius
        assert np.linalg.eigvalsh(shifted)[0] >= -1e-9 * scale
        return on_boundary

    @pytest.mark.parametrize("definite", [True, False])
    def test_random_subproblems_meet_the_optimality_conditions(self, definite):
        rng = np.random.default_rng(7 if definite else 8)
        boundary = []
        for k in range(200):
            n = int(rng.integers(2, 10))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = rng.uniform(0.1, 10.0, n)
            if not definite:
                lam[: n // 2] *= -1.0
            neg_h = (q * lam) @ q.T
            neg_h = 0.5 * (neg_h + neg_h.T)
            g = rng.standard_normal(n)
            if not definite and k % 3 == 0:
                # (nearly) the hard case: g misses the lowest eigenvector
                low = q[:, np.argmin(lam)]
                g -= (g @ low) * low
            radius = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
            boundary.append(self._check(g, neg_h, radius))
        # definite problems give both kinds of step, indefinite ones only boundary steps
        assert all(boundary) != definite
        assert any(boundary)

    def test_exact_hard_case_steps_along_the_lowest_eigenvector(self):
        # -H = diag(2, -1), g = (2, 0): s = (2/3, ±sqrt(5)/3) at mu = 1
        g, neg_h = np.array([2.0, 0.0]), np.diag([2.0, -1.0])
        assert self._check(g, neg_h, 1.0)
        s, _ = fitcore._trust_step(g, -neg_h, 1.0)
        np.testing.assert_allclose(np.abs(s), [2.0 / 3.0, np.sqrt(5.0) / 3.0], rtol=1e-12)
