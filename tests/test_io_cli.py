"""Dataset CSV round-trips, design assembly from named covariates, and
the command-line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from nmixfit import (
    DataError,
    Dataset,
    MixtureFamily,
    NumericError,
    ObservationTable,
    ParameterVector,
    PosteriorSamples,
    SimConfig,
    build_designs,
    detection_probs,
    fit_ml,
    lambda_values,
    likelihood,
    mle,
    parse_config,
    read_dataset,
    simulate,
    write_dataset,
)
from nmixfit.cli import _row_draws, main
from nmixfit.io import fit_to_json, sim_to_datasets


def _dataset():
    counts = np.array([[2.0, np.nan, 1.0], [0.0, 3.0, 4.0], [5.0, 5.0, np.nan]])
    return Dataset(
        table=ObservationTable(
            counts, site=np.array([1, 2, 3]), year=np.array([1, 1, 2])
        ),
        row_covariates={"elev": np.array([0.12345678901234567, -1.5, 2.25])},
        survey_covariates={
            "date": np.array([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0], [7.0, 8.0, 9.0]])
        },
    )


class TestDatasetRoundTrip:
    def test_write_then_read_is_lossless(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.table.counts, ds.table.counts)
        assert back.table.site.tolist() == [1, 2, 3]
        assert back.table.year.tolist() == [1, 1, 2]
        # 17 significant digits survive the text format exactly
        np.testing.assert_array_equal(back.row_covariates["elev"], ds.row_covariates["elev"])
        np.testing.assert_array_equal(back.survey_covariates["date"], ds.survey_covariates["date"])

    def test_missing_tokens_parse_as_gaps(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "site,year,y1,y2,elev,date_1,date_2\n"
            "1,1,4,na,0.5,1.0,NaN\n"
            "2,1,,2,0.25,3.0,4.0\n"
        )
        ds = read_dataset(path)
        assert np.isnan(ds.table.counts[0, 1])
        assert np.isnan(ds.table.counts[1, 0])
        assert np.isnan(ds.survey_covariates["date"][0, 1])

    def test_incomplete_survey_group_becomes_row_covariates(self, tmp_path):
        # w_1/w_2 without w_3 cannot be a 3-survey covariate group
        path = tmp_path / "partial.csv"
        path.write_text(
            "site,year,y1,y2,y3,w_1,w_2\n"
            "1,1,1,2,3,0.1,0.2\n"
        )
        ds = read_dataset(path)
        assert set(ds.row_covariates) == {"w_1", "w_2"}
        assert not ds.survey_covariates

    def test_row_covariate_gaps_are_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,year,y1,elev\n1,1,4,\n")
        with pytest.raises(DataError, match="elev"):
            read_dataset(path)

    def test_counts_column_required(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("site,year,elev\n1,1,0.5\n")
        with pytest.raises(DataError):
            read_dataset(path)


class TestBuildDesigns:
    def test_intercepts_and_named_columns(self):
        ds = _dataset()
        table, designs, notes = build_designs(ds, ("elev",), ("date",))
        assert designs.abundance_names == ("(Intercept)", "elev")
        assert designs.detection_names == ("(Intercept)", "date")
        np.testing.assert_array_equal(designs.abundance_design[:, 0], 1.0)
        np.testing.assert_array_equal(
            designs.abundance_design[:, 1], ds.row_covariates["elev"]
        )

    def test_survey_covariate_cannot_drive_abundance(self):
        with pytest.raises(DataError, match="date"):
            build_designs(_dataset(), ("date",), ())

    def test_unknown_name_is_rejected(self):
        with pytest.raises(DataError, match="nope"):
            build_designs(_dataset(), ("nope",), ())

    def test_missing_survey_covariate_drops_the_cell(self):
        ds = _dataset()
        # date[1, 1] is missing while y[1, 1] = 3 was observed
        table, designs, notes = build_designs(ds, ("elev",), ("date",))
        assert np.isnan(table.counts[1, 1])
        assert any("dropped" in note for note in notes)
        # masked design cells are zero-filled, never NaN
        assert np.all(np.isfinite(designs.detection_design))

    def test_row_losing_every_cell_is_dropped(self):
        counts = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = Dataset(
            table=ObservationTable(counts),
            survey_covariates={"w": np.array([[0.5, 1.5], [np.nan, np.nan]])},
        )
        table, designs, notes = build_designs(ds, (), ("w",))
        assert table.n_rows == 1
        assert designs.n_rows == 1
        assert any("row" in note for note in notes)


class TestFitSerialization:
    def test_fit_json_fields(self, small_sim):
        fit = fit_ml(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)
        blob = json.loads(fit_to_json(fit))
        assert blob["family"] == "nb"
        assert blob["converged"] is True
        assert blob["parameter_names"] == list(fit.parameter_names)
        assert blob["estimates"] == pytest.approx(fit.estimates.to_array().tolist())
        assert len(blob["covariance"]) == fit.n_params
        assert blob["loglik"] == pytest.approx(fit.loglik)


class TestConfigFile:
    def test_parse_key_value_pairs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 7\nfamily= nb\n\n  sites =12\n")
        assert parse_config(cfg) == {"seed": "7", "family": "nb", "sites": "12"}

    def test_malformed_line_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed: 7\n")
        with pytest.raises(DataError):
            parse_config(cfg)


class TestCli:
    def _simulate(self, tmp_path, *extra):
        code = main(
            ["simulate", "--sites", "12", "--years", "2", "--seed", "3",
             "--output-dir", str(tmp_path), *extra]
        )
        assert code == 0

    def test_simulate_writes_three_files(self, tmp_path, capsys):
        self._simulate(tmp_path)
        for name in ("sim_counts_mean.csv", "sim_counts_survey.csv", "sim_truth.csv"):
            assert (tmp_path / name).exists()
        assert "sim_counts_mean.csv" in capsys.readouterr().out

    def test_simulate_is_deterministic_on_disk(self, tmp_path):
        self._simulate(tmp_path / "a")
        self._simulate(tmp_path / "b")
        for name in ("sim_counts_mean.csv", "sim_truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_fit_writes_json_and_prints_summary(self, tmp_path, capsys, monkeypatch):
        self._simulate(tmp_path)
        passes = []
        kernel = likelihood._batch_series

        def counting(*args, **kwargs):
            passes.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(likelihood, "_batch_series", counting)
        code = main(
            ["fit", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--family", "nb", "--engine", "ml",
             "--lambda-covariates", "x1,x2,x3",
             "--p-covariates", "x1,x4.m",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Abundance (log scale):" in out
        blob = json.loads((tmp_path / "fit.json").read_text())
        assert blob["converged"] is True
        assert blob["optimizer_message"] == "Optimization terminated successfully."
        # the covariance comes from the last pass's Hessian: no extra passes
        assert blob["kernel_passes"] == len(passes) <= 15
        assert "lambda:x1" in blob["parameter_names"]

    def test_fit_without_positive_definite_curvature_says_so(self, tmp_path, capsys, monkeypatch):
        self._simulate(tmp_path)
        monkeypatch.setattr(mle, "covariance_from_log_density", lambda hessian: None)
        code = main(
            ["fit", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--engine", "ml", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert "curvature at the mode is not positive definite" in capsys.readouterr().out
        assert json.loads((tmp_path / "fit.json").read_text())["covariance"] is None

    def test_lambda_fitted_csv(self, tmp_path):
        self._simulate(tmp_path)
        code = main(
            ["lambda-fitted", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--family", "nb", "--engine", "laplace",
             "--lambda-covariates", "x1,x2,x3",
             "--p-covariates", "x1,x4.m", "--samples", "200",
             "--seed", "1", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "lambda_fitted.csv").read_text().splitlines()
        assert text[0].startswith("index,mean,sd,q025,median,q975")
        assert len(text) == 25  # 24 rows + header

    def test_posterior_n_csv(self, tmp_path):
        self._simulate(tmp_path)
        code = main(
            ["posterior-n", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--family", "nb", "--engine", "laplace",
             "--lambda-covariates", "x1,x2,x3",
             "--p-covariates", "x1,x4.m", "--samples", "100",
             "--row", "2", "--seed", "1", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "posterior_n.csv").read_text().splitlines()
        assert lines[0] == "n,probability"
        probs = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_bias_experiment_smoke(self, tmp_path, capsys):
        code = main(
            ["bias-experiment", "--runs", "2", "--sites", "8", "--years", "2",
             "--seed", "5", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "bias_experiment.csv").read_text().splitlines()
        assert lines[0].startswith("run,")
        assert len(lines) == 1 + 2 * 2 * 8  # runs x models x parameters

    def test_config_file_fills_unset_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sites = 9\nyears = 2\nseed = 8\n")
        code = main(
            ["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sim_counts_mean.csv").read_text().splitlines()
        assert len(lines) == 1 + 9 * 2

    def test_flags_beat_config_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sites = 9\nyears = 2\n")
        code = main(
            ["simulate", "--config", str(cfg), "--sites", "4",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sim_counts_mean.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2

    def test_missing_dataset_exits_2(self, tmp_path):
        code = main(
            ["fit", "--dataset", str(tmp_path / "absent.csv"),
             "--family", "nb", "--engine", "ml"]
        )
        assert code == 2

    def test_rank_deficient_design_exits_3(self, tmp_path):
        self._simulate(tmp_path)
        code = main(
            ["fit", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--family", "nb", "--engine", "ml",
             "--lambda-covariates", "x1,x1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 3

    def test_usage_error_exits_2(self):
        assert main(["fit", "--engine", "bogus"]) == 2

    def test_threads_is_a_bias_experiment_flag(self, tmp_path):
        assert main(["fit", "--threads", "2"]) == 2
        code = main(
            ["bias-experiment", "--runs", "1", "--sites", "8", "--years", "2",
             "--threads", "1", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "bias_experiment.csv").exists()

    def test_console_script_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "nmixfit.cli", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip()


class TestPosteriorRowDraws:
    """posterior-n maps each draw through the model's own links."""

    def test_draws_equal_the_model_links_to_the_bit(self, example_sim, posterior_draws):
        counts = np.array(example_sim.table_mean.counts)
        counts[3, 1] = np.nan
        table = ObservationTable(counts)
        designs = example_sim.designs_mean
        for idx in (3, 40):
            y, lam, p, theta = _row_draws(posterior_draws, table, designs, idx)
            observed = table.mask[idx]
            np.testing.assert_array_equal(y, counts[idx][observed])
            for d in (0, 1, 7, 4999):
                params = ParameterVector.from_array(posterior_draws.draws[d], 4, 3, True)
                assert lam[d] == lambda_values(params, designs)[idx]
                np.testing.assert_array_equal(p[d], detection_probs(params, designs)[idx][observed])
                assert theta[d] == params.theta

    def test_overflowing_lambda_draw_is_named(self, example_sim, posterior_draws):
        draws = np.array(posterior_draws.draws[:3])
        draws[1, 0] = 800.0
        samples = PosteriorSamples(
            draws, posterior_draws.parameter_names, MixtureFamily.NEGBIN, 4, 3
        )
        with pytest.raises(NumericError, match="at draw 1 overflows"):
            _row_draws(samples, example_sim.table_mean, example_sim.designs_mean, 0)


class TestSimExport:
    def test_exported_datasets_carry_both_covariate_sets(self):
        sim = simulate(SimConfig(n_sites=5, n_years=2, seed=13))
        mean_ds, survey_ds = sim_to_datasets(sim)
        assert set(mean_ds.row_covariates) == {"x1", "x2", "x3", "x4.m"}
        assert "x4" in survey_ds.survey_covariates
        np.testing.assert_array_equal(
            mean_ds.table.counts, sim.table_mean.counts
        )
        np.testing.assert_array_equal(
            survey_ds.table.counts, sim.table_survey.counts
        )
