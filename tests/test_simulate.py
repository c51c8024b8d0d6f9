"""Synthetic data generator: structure, reproducibility, and the
relationship between the two count tables."""

import numpy as np
import pytest

from nmixfit import MixtureFamily, ModelError, SimConfig, simulate


@pytest.fixture(scope="module")
def sim():
    return simulate(SimConfig(n_sites=10, n_surveys=3, n_years=4, seed=42))


class TestStructure:
    def test_row_layout_is_year_major(self, sim):
        t = sim.table_mean
        assert t.n_rows == 40
        assert t.site[:10].tolist() == list(range(1, 11))
        assert t.year[:10].tolist() == [1] * 10
        assert t.year[-1] == 4
        assert sim.table_survey.site.tolist() == t.site.tolist()

    def test_counts_never_exceed_latent_abundance(self, sim):
        for table in (sim.table_mean, sim.table_survey):
            assert np.all(table.filled_counts() <= sim.true_n[:, None])

    def test_true_lambda_positive_and_row_aligned(self, sim):
        assert sim.true_lambda.shape == (40,)
        assert np.all(sim.true_lambda > 0)
        assert sim.true_n.shape == (40,)

    def test_design_names(self, sim):
        assert sim.designs_mean.abundance_names == ("(Intercept)", "x1", "x2", "x3")
        assert sim.designs_mean.detection_names == ("(Intercept)", "x1", "x4.m")
        assert sim.designs_survey.detection_names == ("(Intercept)", "x1", "x4")

    def test_datasets_carry_the_tables_and_covariates(self, sim):
        assert sim.dataset_mean.table is sim.table_mean
        assert sim.dataset_survey.table is sim.table_survey
        for ds in (sim.dataset_mean, sim.dataset_survey):
            assert list(ds.row_covariates) == ["x1", "x2", "x3", "x4.m"]
            assert list(ds.survey_covariates) == ["x4"]

    def test_designs_share_the_abundance_side(self, sim):
        np.testing.assert_array_equal(
            sim.designs_mean.abundance_design, sim.designs_survey.abundance_design
        )
        assert sim.designs_mean.detection_design.shape == (40, 3, 3)

    def test_intercept_columns_are_ones(self, sim):
        assert np.all(sim.designs_mean.abundance_design[:, 0] == 1.0)
        assert np.all(sim.designs_mean.detection_design[:, :, 0] == 1.0)


class TestCovariates:
    def test_site_covariates_are_centered_and_bounded(self, sim):
        for name in ("x1", "x2"):
            x = sim.dataset_mean.row_covariates[name]
            assert x.shape == (40,)
            assert abs(x[:10].mean()) < 1e-12
            assert np.all(np.abs(x) < 1.0)

    def test_site_covariates_repeat_across_years(self, sim):
        x1_col = sim.designs_mean.abundance_design[:, 1]
        np.testing.assert_array_equal(x1_col[:10], x1_col[10:20])

    def test_year_covariate_spans_the_half_unit_interval(self, sim):
        x3 = sim.dataset_mean.row_covariates["x3"]
        # one value per year, shared by the year's 10 sites
        grid = x3[::10]
        np.testing.assert_array_equal(x3, np.repeat(grid, 10))
        assert grid.shape == (4,)
        assert grid.min() == pytest.approx(-0.5)
        assert grid.max() == pytest.approx(0.5)
        assert abs(grid.mean()) < 1e-12

    def test_single_year_covariate_is_zero(self):
        one = simulate(SimConfig(n_sites=5, n_years=1, seed=3))
        assert one.dataset_mean.row_covariates["x3"].tolist() == [0.0] * 5

    def test_averaged_detection_covariate(self, sim):
        ds = sim.dataset_mean
        np.testing.assert_allclose(
            ds.row_covariates["x4.m"], ds.survey_covariates["x4"].mean(axis=1), atol=1e-15
        )
        # the averaged design repeats the mean across surveys within a row
        col = sim.designs_mean.detection_design[:, :, 2]
        assert np.all(col == col[:, [0]])

    def test_survey_detection_covariate_varies_within_rows(self, sim):
        col = sim.designs_survey.detection_design[:, :, 2]
        assert np.any(col != col[:, [0]])


class TestReproducibility:
    def test_same_seed_identical_output(self):
        a = simulate(SimConfig(n_sites=6, n_years=2, seed=9))
        b = simulate(SimConfig(n_sites=6, n_years=2, seed=9))
        np.testing.assert_array_equal(a.table_mean.counts, b.table_mean.counts)
        np.testing.assert_array_equal(a.table_survey.counts, b.table_survey.counts)
        np.testing.assert_array_equal(a.true_n, b.true_n)

    def test_different_seeds_differ(self):
        a = simulate(SimConfig(n_sites=6, n_years=2, seed=9))
        b = simulate(SimConfig(n_sites=6, n_years=2, seed=10))
        assert not np.array_equal(a.table_mean.counts, b.table_mean.counts)


class TestFamilies:
    def test_family_follows_dispersion(self):
        assert SimConfig(theta=3.0).family is MixtureFamily.NEGBIN
        assert SimConfig(theta=None).family is MixtureFamily.POISSON

    def test_poisson_mode_generates(self):
        sim = simulate(SimConfig(n_sites=8, n_years=2, theta=None, seed=1))
        assert np.all(sim.table_mean.filled_counts() <= sim.true_n[:, None])

    def test_weak_overdispersion_approaches_poisson_scale(self):
        """As the size parameter grows the negative binomial collapses to
        Poisson, so realized abundances should have comparable means."""
        nb = simulate(SimConfig(n_sites=200, n_years=3, theta=1e6, seed=2))
        po = simulate(SimConfig(n_sites=200, n_years=3, theta=None, seed=2))
        assert nb.true_n.mean() == pytest.approx(po.true_n.mean(), rel=0.10)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            simulate(SimConfig(n_sites=0))
        with pytest.raises(ModelError):
            simulate(SimConfig(theta=-1.0))
