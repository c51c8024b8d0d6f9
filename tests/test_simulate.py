"""Synthetic data generator: structure, reproducibility, and the
relationship between the two count tables, and the model the draws
come from."""

import hashlib

import numpy as np
import pytest

from nmixfit import MixtureFamily, ModelError, SimConfig, lambda_values, simulate


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

    @pytest.mark.parametrize("theta", [1e12, 1e15, 1e17, 1e20])
    def test_huge_theta_draws_keep_the_mean(self, theta):
        """At any theta the mean N lies within 3 Monte Carlo standard errors
        of the mean lambda: the draws never lose lambda to rounding."""
        sim = simulate(SimConfig(theta=theta, seed=2))
        lam = sim.true_lambda
        se = np.sqrt(np.sum(lam + lam**2 / theta)) / lam.size
        assert abs(sim.true_n.mean() - lam.mean()) < 3.0 * se

    def test_config_validation(self):
        with pytest.raises(ModelError):
            simulate(SimConfig(n_sites=0))
        with pytest.raises(ModelError):
            simulate(SimConfig(theta=-1.0))

    @pytest.mark.parametrize("theta", [np.inf, np.nan, 0.0])
    def test_theta_must_be_positive_and_finite(self, theta):
        with pytest.raises(ModelError, match="theta must be positive and finite, or None"):
            SimConfig(theta=theta)


# SHA-256 of the simulated counts (mean then survey table), covariates (x1,
# x2, x3, x4.m, then x4) and latent N, as float64 bytes
_PINNED = [
    (SimConfig(seed=6), (
        "f46bef4f9fabf2698992f2cc296df6c69ad11346dcf552f1c11b8ee4b05e2f40",
        "750438ca2de104b8cd953e63fad337c3048dcbd688f54125175f37ae93132ee2",
        "0863f70cee1e26ed6ea1d781ca4e4a32bdc089bee9b27876954ef2be3e3c47b2",
    )),
    (SimConfig(seed=1, theta=None), (
        "c4d1e362b48e764514c5d3cafdccc33648a0eb3adaeb9d5456edb6e0df02e5af",
        "0d0e00b3f8c2be82e0dcbca33c2e991598906a4f57f9f6b04e34e3d5ce8e3cbd",
        "2510466d43c687abf85ab317a9c90cae7a03422292486342b235093b68960aea",
    )),
    (SimConfig(n_sites=200, n_surveys=5, n_years=1, theta=0.3, seed=3), (
        "b38f0456a74e6ebde59f6afe0e623bc4ab7fcc7ecc4d5247d8fec498265ea793",
        "7bfdd3ecbf8835ab15d87efea017c7b103e5431a4bda95b3b53fffb4afb084c1",
        "8e35a163e2d9cfc5f70717acac75e843dd5e04642126d9d8f49b12f460567bd7",
    )),
    (SimConfig(seed=7, alpha=(1.0, -2.0, -3.0)), (
        "9916f7a2cbde159cdf1f69bfcb6bb34c7b5cba4f975d280daa7de65a49b29ccf",
        "c127fe705f4a146a2e6593bf1b4382798e0934ec38d67c110a5508b07099714d",
        "7734be72ebfc8b67487fe07e063b1c2a3e3e1c01a202b019d92d3629acae99ef",
    )),
]


def _sha256(*arrays):
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)
    ).hexdigest()


class TestDrawsFromTheModel:
    @pytest.mark.parametrize("config, digests", _PINNED)
    def test_seeded_data_are_pinned(self, config, digests):
        """The draws of a seed never move unseen: counts, covariates and N."""
        sim = simulate(config)
        ds = sim.dataset_mean
        assert (
            _sha256(sim.table_mean.counts, sim.table_survey.counts),
            _sha256(*ds.row_covariates.values(), *ds.survey_covariates.values()),
            _sha256(sim.true_n),
        ) == digests

    @pytest.mark.parametrize("config", [c for c, _ in _PINNED])
    def test_true_lambda_is_the_model_lambda(self, config):
        sim = simulate(config)
        np.testing.assert_array_equal(
            sim.true_lambda, lambda_values(config.parameters, sim.designs_mean)
        )
