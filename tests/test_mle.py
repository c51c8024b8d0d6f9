"""Maximum-likelihood engine: convergence quality, invariances, and the
Wald summary table."""

import dataclasses

import numpy as np
import pytest

from nmixfit import (
    DesignMatrices,
    FitResult,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    SimConfig,
    fit_ml,
    format_fit_summary,
    likelihood,
    mle,
    simulate,
    summarize_fit,
    table_loglik,
)
from nmixfit.laplace import DEFAULT_PRIOR
from nmixfit.fitcore import default_start
from nmixfit.model import stacked_parameter_names


@pytest.fixture(scope="module")
def fit(small_sim):
    return fit_ml(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)


class TestFitQuality:
    def test_converged_with_small_gradient(self, fit):
        assert fit.converged
        assert fit.gradient_norm < 1e-4

    def test_covariance_is_symmetric_positive_semidefinite(self, fit):
        cov = fit.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-8)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() > -1e-8

    def test_improves_on_the_starting_point(self, fit, small_sim):
        start = default_start(
            small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN
        )
        ll0 = table_loglik(
            start, small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN
        )
        assert fit.loglik >= ll0

    def test_estimates_land_near_generating_values(self, fit):
        est = fit.estimates
        np.testing.assert_allclose(est.beta, [2.0, 2.0, -3.0, 1.0], atol=0.6)
        np.testing.assert_allclose(est.alpha, [1.0, -2.0, 1.0], atol=0.9)

    def test_parameter_names_align_with_designs(self, fit, small_sim):
        assert fit.parameter_names == stacked_parameter_names(
            small_sim.designs_mean, MixtureFamily.NEGBIN
        )


class TestInvariances:
    def test_row_order_does_not_matter(self, small_sim):
        """Total likelihood is a sum over rows, so a permuted dataset must
        land on the same optimum (up to float summation noise)."""
        table, designs = small_sim.table_mean, small_sim.designs_mean
        base = fit_ml(table, designs, MixtureFamily.NEGBIN)
        rng = np.random.default_rng(4)
        perm = rng.permutation(table.n_rows)
        shuffled = fit_ml(
            ObservationTable(
                table.counts[perm], site=table.site[perm], year=table.year[perm]
            ),
            DesignMatrices(
                designs.abundance_design[perm],
                designs.detection_design[perm],
                designs.abundance_names,
                designs.detection_names,
            ),
            MixtureFamily.NEGBIN,
        )
        np.testing.assert_allclose(
            base.estimates.to_array(), shuffled.estimates.to_array(), atol=1e-6
        )

    def test_jittered_starts_reach_the_same_optimum(self, example_sim, ml_fit):
        """Five perturbed initializations agree coordinate-wise to 1e-3:
        no spurious local optima at this scale."""
        table, designs = example_sim.table_mean, example_sim.designs_mean
        base = ml_fit.estimates.to_array()
        start0 = default_start(table, designs, MixtureFamily.NEGBIN).to_array()
        rng = np.random.default_rng(99)
        for _ in range(5):
            x0 = start0 + rng.uniform(-0.25, 0.25, size=start0.size)
            refit = fit_ml(
                table,
                designs,
                MixtureFamily.NEGBIN,
                start=ParameterVector.from_array(
                    x0, designs.p_lambda, designs.p_detect, has_dispersion=True
                ),
            )
            assert refit.converged
            np.testing.assert_allclose(refit.estimates.to_array(), base, atol=1e-3)


class TestPerfectDetection:
    def test_mean_count_is_the_abundance_mle(self):
        """When every survey records the full latent count, the abundance
        intercept must land on the sample mean; a one-dimensional grid
        search over the likelihood confirms the optimum independently."""
        rng = np.random.default_rng(7)
        n = rng.poisson(5.0, size=60)
        counts = np.repeat(n[:, None], 3, axis=1).astype(float)
        table = ObservationTable(counts)
        designs = DesignMatrices(np.ones((60, 1)), np.ones((60, 3, 1)))
        fit = fit_ml(table, designs, MixtureFamily.POISSON)
        lam_hat = float(np.exp(fit.estimates.beta[0]))
        p_hat = 1.0 / (1.0 + np.exp(-fit.estimates.alpha[0]))
        assert p_hat > 0.999
        assert lam_hat == pytest.approx(counts.mean(), abs=1e-3)

        grid = counts.mean() * np.linspace(0.9, 1.1, 401)
        lls = [
            table_loglik(
                ParameterVector(beta=np.array([np.log(g)]), alpha=fit.estimates.alpha),
                table,
                designs,
                MixtureFamily.POISSON,
            )
            for g in grid
        ]
        step = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(lls))] - lam_hat) <= step


class TestRankDeficiency:
    def test_duplicate_column_fails_before_fitting(self, small_sim):
        designs = small_sim.designs_mean
        doubled = DesignMatrices(
            np.column_stack([designs.abundance_design, designs.abundance_design[:, 1]]),
            designs.detection_design,
            designs.abundance_names + ("x1.copy",),
            designs.detection_names,
        )
        with pytest.raises(ModelError, match="x1.copy"):
            fit_ml(small_sim.table_mean, doubled, MixtureFamily.NEGBIN)


class TestSummaries:
    def _synthetic_fit(self):
        designs = DesignMatrices(
            np.ones((3, 1)), np.ones((3, 1, 1)),
            abundance_names=("(Intercept)",), detection_names=("(Intercept)",),
        )
        return FitResult(
            estimates=ParameterVector(
                beta=np.array([1.05]), alpha=np.array([0.0]), log_theta=-0.313
            ),
            covariance=np.diag([0.0804**2, 1.0, 0.147**2]),
            loglik=-10.0,
            converged=True,
            iterations=5,
            gradient_norm=1e-6,
            family=MixtureFamily.NEGBIN,
            parameter_names=stacked_parameter_names(designs, MixtureFamily.NEGBIN),
        )

    def test_wald_rows(self):
        rows = summarize_fit(self._synthetic_fit())
        assert rows[0].z == pytest.approx(13.1, abs=0.05)
        assert rows[1].z == 0.0
        assert rows[1].p_value == 1.0
        assert rows[2].z == pytest.approx(-2.13, abs=5e-3)
        assert rows[2].p_value == pytest.approx(0.033, abs=5e-4)

    def test_formatted_report_sections(self):
        text = format_fit_summary(self._synthetic_fit())
        assert "Abundance (log scale):" in text
        assert "Detection (logit scale):" in text
        assert "Dispersion (log scale):" in text
        assert "exp(log_theta)" in text
        # exp(-0.313) printed for the dispersion note
        assert f"{np.exp(-0.313):.4f}" in text

    def test_report_names_an_unsuccessful_optimiser_stop(self):
        fit = dataclasses.replace(
            self._synthetic_fit(),
            optimizer_success=False,
            optimizer_message="Maximum number of iterations has been exceeded.",
        )
        assert "Maximum number of iterations" in format_fit_summary(fit)
        assert "did not report success" in format_fit_summary(fit)
        assert "did not report success" not in format_fit_summary(self._synthetic_fit())

    def test_summary_requires_covariance(self):
        # the state a fit is left in when the curvature at its mode is not
        # positive definite
        fit = dataclasses.replace(self._synthetic_fit(), covariance=None)
        with pytest.raises(ModelError):
            summarize_fit(fit)


def _rejected_step_table():
    """The 132nd table of a probe that draws N ~ Poisson(3) at 10 sites and
    three surveys with p = 0.15: its intercept-only Poisson ML fit takes a
    trial point past the kernel's term budget (see test_fitcore)."""
    rng = np.random.default_rng(0)
    for _ in range(132):
        y = rng.binomial(rng.poisson(3.0, 10)[:, None], 0.15, (10, 3)).astype(float)
    return ObservationTable(y), DesignMatrices(np.ones((10, 1)), np.ones((10, 3, 1)))


def _assert_same_fit(got, want):
    """Two FitResults agree to the bit."""
    assert got.estimates.to_array().tolist() == want.estimates.to_array().tolist()
    np.testing.assert_array_equal(got.covariance, want.covariance)
    assert (got.loglik, got.converged, got.iterations, got.gradient_norm) == (
        want.loglik, want.converged, want.iterations, want.gradient_norm)
    assert (got.kernel_passes, got.optimizer_success, got.optimizer_message) == (
        want.kernel_passes, want.optimizer_success, want.optimizer_message)
    assert (got.family, got.parameter_names) == (want.family, want.parameter_names)


class TestLockStep:
    """Fits run together share each step's kernel pass, and each returns
    what it returns alone, to the bit."""

    def _problems(self, small_sim):
        two = simulate(SimConfig(n_sites=30, n_years=2, n_surveys=2, seed=5))
        table, designs = small_sim.table_mean, small_sim.designs_mean
        far = ParameterVector(beta=[1e3, 0.0, 0.0, 0.0], alpha=[0.0, 0.0, 0.0], log_theta=0.0)
        return [
            (table, designs, MixtureFamily.NEGBIN, None, None),
            (table, designs, MixtureFamily.POISSON, DEFAULT_PRIOR, None),
            (two.table_mean, two.designs_mean, MixtureFamily.NEGBIN, DEFAULT_PRIOR, None),
            (table, designs, MixtureFamily.NEGBIN, DEFAULT_PRIOR, far),
            (*_rejected_step_table(), MixtureFamily.POISSON, None, None),
            (two.table_mean, two.designs_mean, MixtureFamily.POISSON, None, None),
        ]

    def test_fits_equal_single_fits(self, small_sim, monkeypatch):
        problems = self._problems(small_sim)
        alone = [mle._fit([problem])[0] for problem in problems]
        errors, calls = [], []
        check, kernel = likelihood._check_series, likelihood._batch_series

        def recorded_check(*args):
            try:
                check(*args)
            except NumericError as exc:
                errors.append(str(exc))
                raise

        def recorded_kernel(counts, *args, **kwargs):
            calls.append(counts.shape[1])
            return kernel(counts, *args, **kwargs)

        monkeypatch.setattr(likelihood, "_check_series", recorded_check)
        monkeypatch.setattr(likelihood, "_batch_series", recorded_kernel)
        together = mle._fit(problems)
        assert any(e.startswith("term budget exhausted for row ") for e in errors)
        # one pass per survey count and step
        steps = max(f.kernel_passes for f in together if isinstance(f, FitResult))
        assert len(calls) <= 2 * steps < sum(f.kernel_passes for f in alone if isinstance(f, FitResult))
        assert [type(f) for f in together] == [type(f) for f in alone]
        assert str(together[3]) == str(alone[3]) == (
            "objective is not finite at the starting point: "
            "abundance linear predictor 1000 at row 0 overflows exp()")
        assert isinstance(together[3], NumericError)
        for got, want in zip(together, alone):
            if not isinstance(want, NumericError):
                _assert_same_fit(got, want)

    def test_a_bad_problem_fails_alone(self, small_sim):
        """A rank-deficient design fails before fitting, as alone; the other fit goes on."""
        table, designs = small_sim.table_mean, small_sim.designs_mean
        x = np.asarray(designs.abundance_design)
        bad = dataclasses.replace(designs, abundance_design=np.column_stack([x, x[:, 1]]),
                                  abundance_names=(*designs.abundance_names, "copy"))
        failed, fitted = mle._fit([(table, bad, MixtureFamily.POISSON, None, None),
                                   (table, designs, MixtureFamily.POISSON, None, None)])
        assert isinstance(failed, ModelError) and "copy" in str(failed)
        _assert_same_fit(fitted, fit_ml(table, designs, MixtureFamily.POISSON))
