"""Laplace posterior engine: mode/covariance quality against quadrature,
sampling behaviour, fitted-abundance summaries, and the latent-N
posterior."""

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom, nbinom, poisson

from nmixfit import (
    DesignMatrices,
    FitResult,
    MixtureFamily,
    ModelError,
    NumericError,
    ObservationTable,
    ParameterVector,
    PosteriorSamples,
    PriorSpec,
    RowLikelihoodInput,
    fit_laplace,
    fit_ml,
    lambda_fitted,
    posterior_n,
    row_loglik_detail,
    sample_posterior,
    table_loglik,
)
from nmixfit.model import stacked_parameter_names

from derivatives import finite_diff_gradient


def _intercept_only(counts):
    table = ObservationTable(counts)
    designs = DesignMatrices(
        np.ones((table.n_rows, 1)),
        np.ones((table.n_rows, table.n_surveys, 1)),
        abundance_names=("(Intercept)",),
        detection_names=("(Intercept)",),
    )
    return table, designs


def _synthetic_fit(mode, cov, family=MixtureFamily.POISSON):
    designs = DesignMatrices(
        np.ones((3, 1)), np.ones((3, 1, 1)),
        abundance_names=("(Intercept)",), detection_names=("(Intercept)",),
    )
    return FitResult(
        estimates=ParameterVector(
            beta=np.array([mode[0]]), alpha=np.array([mode[1]]),
            log_theta=mode[2] if len(mode) > 2 else None,
        ),
        covariance=np.asarray(cov, dtype=float),
        loglik=0.0,
        converged=True,
        iterations=1,
        gradient_norm=0.0,
        family=family,
        parameter_names=stacked_parameter_names(designs, family),
    )


class TestMode:
    def test_flat_priors_recover_the_mle(self, small_sim):
        """With prior precision driven to zero the posterior mode is the
        maximum-likelihood estimate."""
        ml = fit_ml(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)
        la = fit_laplace(
            small_sim.table_mean,
            small_sim.designs_mean,
            MixtureFamily.NEGBIN,
            priors=PriorSpec(normal_precision=1e-8),
        )
        np.testing.assert_allclose(
            la.estimates.to_array(), ml.estimates.to_array(), atol=1e-3
        )

    def test_default_priors_shrink_toward_zero(self, small_sim):
        ml = fit_ml(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)
        la = fit_laplace(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)
        # vague priors: visible but tiny pull on every coefficient
        diff = np.abs(la.estimates.to_array() - ml.estimates.to_array())
        assert diff.max() < 0.05

    def test_mode_zeroes_the_log_posterior_gradient(self, small_sim):
        """A firm prior moves the mode; there the finite-difference gradient
        of log-likelihood plus log prior must vanish."""
        table, designs = small_sim.table_mean, small_sim.designs_mean
        priors = PriorSpec(normal_precision=1.0)
        fit = fit_laplace(table, designs, MixtureFamily.NEGBIN, priors=priors)
        n_coef = designs.p_lambda + designs.p_detect

        def log_post(x):
            pv = ParameterVector.from_array(x, designs.p_lambda, designs.p_detect, True)
            return table_loglik(pv, table, designs, MixtureFamily.NEGBIN) + priors.log_density(
                x[:n_coef]
            )

        grad = finite_diff_gradient(log_post, fit.estimates.to_array())
        assert np.max(np.abs(grad)) < 1e-3
        assert np.max(np.abs(priors.score(fit.estimates.to_array()[:n_coef]))) > 0.1

    def test_posterior_sd_matches_grid_quadrature(self):
        """Intercept-only model: slice the exact posterior through the mode
        along each axis and integrate it on a dense grid.  The quadrature
        sd of a slice must agree with 1/sqrt(observed information) in that
        direction, i.e. with the conditional sd implied by the Gaussian
        approximation, within 5%."""
        rng = np.random.default_rng(21)
        n = rng.poisson(4.0, size=60)
        counts = rng.binomial(n[:, None], 0.6, size=(60, 3)).astype(float)
        table, designs = _intercept_only(counts)
        priors = PriorSpec()
        fit = fit_laplace(table, designs, MixtureFamily.POISSON, priors=priors)
        mode = fit.estimates.to_array()
        precision = np.linalg.inv(fit.covariance)
        conditional_sd = 1.0 / np.sqrt(np.diag(precision))

        for k in range(2):
            grid = mode[k] + np.linspace(-6, 6, 241) * conditional_sd[k]
            logpost = np.empty(grid.size)
            for i, g in enumerate(grid):
                x = mode.copy()
                x[k] = g
                pv = ParameterVector(beta=np.array([x[0]]), alpha=np.array([x[1]]))
                logpost[i] = table_loglik(
                    pv, table, designs, MixtureFamily.POISSON
                ) + priors.log_density(x)
            w = np.exp(logpost - logpost.max())
            w /= w.sum()
            mean = np.sum(w * grid)
            sd_quad = np.sqrt(np.sum(w * (grid - mean) ** 2))
            assert sd_quad == pytest.approx(conditional_sd[k], rel=0.05)


class TestSampler:
    def test_fixed_seed_reproduces_draws(self, laplace_fit):
        a = sample_posterior(laplace_fit, 64, seed=5)
        b = sample_posterior(laplace_fit, 64, seed=5)
        np.testing.assert_array_equal(a.draws, b.draws)
        c = sample_posterior(laplace_fit, 64, seed=6)
        assert not np.array_equal(a.draws, c.draws)

    def test_sample_mean_near_mode(self, laplace_fit, posterior_draws):
        mode = laplace_fit.estimates.to_array()
        sd = np.sqrt(np.diag(laplace_fit.covariance))
        err = np.abs(posterior_draws.draws.mean(axis=0) - mode)
        assert np.all(err < 3.0 * sd / np.sqrt(posterior_draws.n_draws))

    def test_sample_covariance_tracks_input(self):
        cov = 0.25 * np.eye(3)
        fit = _synthetic_fit([0.5, -0.5, 0.1], cov, family=MixtureFamily.NEGBIN)
        draws = sample_posterior(fit, 5000, seed=11).draws
        sample_cov = np.cov(draws.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.10

    def test_draw_blocks_by_parameter_group(self, posterior_draws, laplace_fit):
        assert posterior_draws.beta_draws().shape == (5000, 4)
        assert posterior_draws.alpha_draws().shape == (5000, 3)
        assert posterior_draws.log_theta_draws().shape == (5000,)
        assert posterior_draws.parameter_names == laplace_fit.parameter_names
        assert np.all(np.isfinite(posterior_draws.draws))

    def test_indefinite_covariance_is_an_error(self):
        bad = np.diag([1.0, -1.0])
        fit = _synthetic_fit([0.0, 0.0], bad)
        with pytest.raises(NumericError, match="jitter"):
            sample_posterior(fit, 10, seed=0)

    def test_needs_at_least_one_draw(self, laplace_fit):
        with pytest.raises(ModelError):
            sample_posterior(laplace_fit, 0, seed=0)


class TestLambdaFitted:
    def test_summaries_are_ordered_and_positive(self, posterior_draws, example_sim):
        rows = lambda_fitted(posterior_draws, example_sim.designs_mean)
        assert len(rows) == example_sim.designs_mean.n_rows
        assert [r.index for r in rows[:3]] == [1, 2, 3]
        for r in rows:
            assert 0.0 < r.q025 <= r.median <= r.q975
            assert r.sd >= 0.0

    def test_quantiles_match_direct_computation(self, posterior_draws, example_sim):
        rows = lambda_fitted(posterior_draws, example_sim.designs_mean)
        lam0 = np.exp(
            posterior_draws.beta_draws() @ example_sim.designs_mean.abundance_design[0]
        )
        assert rows[0].median == pytest.approx(np.quantile(lam0, 0.5))
        assert rows[0].mean == pytest.approx(lam0.mean())
        assert rows[0].sd == pytest.approx(lam0.std(ddof=1))

    def test_degenerate_posterior_collapses_quantiles(self):
        draws = np.tile([[0.7, 0.0]], (50, 1))
        samples = PosteriorSamples(
            draws=draws,
            parameter_names=("lambda:(Intercept)", "p:(Intercept)"),
            family=MixtureFamily.POISSON,
            p_lambda=1,
            p_detect=1,
        )
        designs = DesignMatrices(np.ones((2, 1)), np.ones((2, 1, 1)))
        rows = lambda_fitted(samples, designs)
        for r in rows:
            assert r.sd == pytest.approx(0.0, abs=1e-12)
            assert r.q025 == r.median == r.q975 == pytest.approx(np.exp(0.7))

    def test_design_width_mismatch(self, posterior_draws):
        designs = DesignMatrices(np.ones((2, 2)), np.ones((2, 1, 1)))
        with pytest.raises(ModelError):
            lambda_fitted(posterior_draws, designs)


class TestPosteriorN:
    def test_sums_to_one_with_support_from_max_count(self):
        y = np.array([3.0, 7.0, 5.0])
        probs = posterior_n(
            y, np.array([6.0, 9.0]), np.full((2, 3), 0.55), n_grid_max=120
        )
        assert probs.size == 120 - 7 + 1
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_perfect_detection_is_a_point_mass(self):
        probs = posterior_n(
            np.array([4.0, 4.0]), np.array([5.0]), np.array([[1.0, 1.0]]),
            n_grid_max=40,
        )
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs[1:] == 0.0)

    def test_zero_count_poisson_conjugacy(self):
        """Observing zero thins the prior: the posterior over N is the
        original Poisson damped by (1-p)^N, i.e. Poisson(lam (1-p))."""
        probs = posterior_n(
            np.array([0.0]), np.array([2.0]), np.array([[0.5]]), n_grid_max=60
        )
        grid = np.arange(61)
        want = poisson.pmf(grid, 1.0)
        want /= want.sum()
        np.testing.assert_allclose(probs, want, atol=1e-10)

    def test_duplicated_draws_do_not_move_the_average(self):
        y = np.array([2.0, 5.0])
        one = posterior_n(y, np.array([6.0]), np.array([[0.4, 0.6]]), n_grid_max=80)
        two = posterior_n(
            y, np.array([6.0, 6.0]), np.array([[0.4, 0.6], [0.4, 0.6]]),
            n_grid_max=80,
        )
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_draw_with_no_mass_is_named(self):
        with pytest.raises(NumericError, match="draw 0"):
            posterior_n(
                np.array([2.0, 5.0]), np.array([5.0]), np.array([[1.0, 1.0]]),
                n_grid_max=30,
            )

    def test_grid_must_cover_counts(self):
        with pytest.raises(ModelError):
            posterior_n(
                np.array([9.0]), np.array([5.0]), np.array([[0.5]]), n_grid_max=8
            )

    def test_default_grid_reaches_past_the_visible_tail(self):
        y = np.array([3.0, 11.0])
        lam = np.array([4.0, 9.0, 16.0])
        probs = posterior_n(y, lam, np.full((3, 2), 0.5))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[-1] < 1e-12

    def test_far_posterior_mass_needs_no_ceiling(self):
        """Large mean, rare detection: the posterior mean, about 49,881,
        lies far above the counts.  The default support reaches it; a
        ceiling of 11,243 cuts it off and is named in the error."""
        y = np.array([10.0, 12.0, 9.0])
        lam, p = np.array([5e4]), np.full((1, 3), 0.001)
        probs = posterior_n(y, lam, p)
        grid = np.arange(12, 12 + probs.size)
        assert probs @ grid == pytest.approx(49881.14, abs=0.01)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericError, match="n_grid_max=11243"):
            posterior_n(y, lam, p, n_grid_max=11243)

    def test_draw_past_the_term_budget_is_named(self):
        """NB theta=2 spreads this draw's posterior over more than the
        series' 10,000-term budget; the error names the posterior draw
        and the budget, not a table row."""
        y = np.array([10.0, 12.0, 9.0])
        with pytest.raises(NumericError, match="posterior draw 0 .*term budget is 10000") as info:
            posterior_n(y, np.array([5e4]), np.full((1, 3), 0.001), theta_draws=np.array([2.0]))
        assert "row" not in str(info.value)

    def test_matches_a_scipy_average_over_draws(self):
        """Per-draw theta, and a draw (lam 400, p 0.01) whose series starts
        far above max(y): the pmf is the average of each draw's normalised
        scipy pmf on a wide grid, to 1e-12."""
        y = np.array([3.0, 5.0, 4.0])
        lam = np.array([6.0, 12.0, 9.0, 400.0])
        p = np.array([[0.4, 0.5, 0.6], [0.3, 0.3, 0.5], [0.7, 0.6, 0.5], [0.01, 0.01, 0.01]])
        theta = np.array([2.0, 0.7, 5.0, 1000.0])
        moved = RowLikelihoodInput(y=y, p=p[3], lam=lam[3], theta=theta[3])
        assert row_loglik_detail(moved).n_min > y.max()
        top = 900
        got = posterior_n(y, lam, p, theta_draws=theta, n_grid_max=top)

        grid = np.arange(5, top + 1)[None, :]
        logw = nbinom.logpmf(grid, theta[:, None], (theta / (theta + lam))[:, None])
        for j in range(y.size):
            logw = logw + binom.logpmf(y[j], grid, p[:, j][:, None])
        want = np.exp(logw - logsumexp(logw, axis=1)[:, None]).mean(axis=0)
        np.testing.assert_allclose(got, want / want.sum(), rtol=0, atol=1e-12)

    def test_mean_latent_abundance_tracks_truth(self, example_sim):
        """At the generating parameters, averaging E[N | counts] over all
        rows must come within 5% of the average simulated abundance."""
        sim = example_sim
        counts = sim.table_mean.filled_counts()
        alpha = np.asarray(sim.config.alpha)
        logits = sim.designs_mean.detection_design @ alpha
        p_true = 1.0 / (1.0 + np.exp(-logits))
        expected = np.empty(sim.true_n.size)
        for r in range(sim.true_n.size):
            probs = posterior_n(
                counts[r],
                np.array([sim.true_lambda[r]]),
                p_true[r][None, :],
                theta_draws=np.array([sim.config.theta]),
            )
            grid = np.arange(counts[r].max(), counts[r].max() + probs.size)
            expected[r] = probs @ grid
        assert expected.mean() == pytest.approx(sim.true_n.mean(), rel=0.05)


class TestPriorSpec:
    def test_log_density_is_a_gaussian_kernel(self):
        spec = PriorSpec(normal_mean=0.5, normal_precision=4.0)
        x = np.array([1.0, -0.5])
        # independent normals: -0.5 tau sum((x-m)^2) plus the normalizing constant
        want = np.sum(
            -0.5 * 4.0 * (x - 0.5) ** 2 + 0.5 * np.log(4.0 / (2.0 * np.pi))
        )
        assert spec.log_density(x) == pytest.approx(want, rel=1e-12)

    def test_score_is_the_log_density_gradient(self):
        spec = PriorSpec(normal_mean=0.5, normal_precision=4.0)
        x = np.array([1.0, -0.5, 2.25])
        want = finite_diff_gradient(spec.log_density, x)
        np.testing.assert_allclose(spec.score(x), want, rtol=1e-8)
        np.testing.assert_allclose(spec.score(x), -4.0 * (x - 0.5), rtol=1e-15)

    def test_hessian_is_the_score_jacobian(self):
        spec = PriorSpec(normal_mean=0.5, normal_precision=4.0)
        x = np.array([1.0, -0.5, 2.25])
        np.testing.assert_allclose(spec.hessian(x), finite_diff_gradient(spec.score, x), atol=1e-8)
        np.testing.assert_array_equal(spec.hessian(x), -4.0 * np.eye(3))

    def test_precision_must_be_positive(self):
        with pytest.raises(ModelError):
            PriorSpec(normal_precision=0.0)
