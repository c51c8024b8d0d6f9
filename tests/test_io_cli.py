"""Dataset CSV round-trips, design assembly from named covariates, and
the command-line front end."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmixfit
from nmixfit import (
    DataError,
    Dataset,
    FitResult,
    MixtureFamily,
    ModelError,
    NmixError,
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
    summarize_fit,
    write_dataset,
)
from nmixfit import cli, io
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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """An Excel "CSV UTF-8" export starts with a UTF-8 byte-order mark."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_dataset(_dataset(), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = read_dataset(plain), read_dataset(marked)
        for name in ("counts", "site", "year"):
            np.testing.assert_array_equal(getattr(got.table, name), getattr(want.table, name))
        for name in ("row_covariates", "survey_covariates"):
            assert getattr(got, name).keys() == getattr(want, name).keys()
            for key, value in getattr(want, name).items():
                np.testing.assert_array_equal(getattr(got, name)[key], value)

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("site,year,y1,élév\n1,1,2,3\n".encode("latin-1"))
        with pytest.raises(DataError, match="^cannot read dataset .*utf-8"):
            read_dataset(path)

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


class TestDatasetParsing:
    """read_dataset parses a column in one pass and goes cell by cell only
    in a column that needs it; messages name the physical line."""

    MESSY = (
        "site,year,y1,y2,y3,elev,date_1,date_2,date_3\n"
        "1,1, 4 ,NA,2,1.5e-3, 1.0 ,nan,\n"
        "2,1,,3,nan,-2.25,NaN,-4E2,0.5\n"
        "3, 2 ,0,na,7,  -0.0 ,,  2 ,3\n"
    )

    def test_messy_cells_give_the_per_cell_values(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(self.MESSY)
        ds = read_dataset(path)
        cells = [line.split(",") for line in self.MESSY.splitlines()[1:]]

        def per_cell(*columns):
            return np.array(
                [[io._parse_cell(row[j], "c", 0) for j in columns] for row in cells]
            )

        assert ds.table.site.tolist() == [1, 2, 3]
        assert ds.table.year.tolist() == [1, 1, 2]
        assert ds.table.counts.tobytes() == per_cell(2, 3, 4).tobytes()
        assert ds.row_covariates["elev"].tobytes() == per_cell(5)[:, 0].tobytes()
        assert ds.survey_covariates["date"].tobytes() == per_cell(6, 7, 8).tobytes()
        assert np.signbit(ds.row_covariates["elev"][2])

    def test_bad_token_names_its_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,year,y1,y2\n1,1,2,3\n2,1,4,5\n3,1,6,7\n4,1,8,x9\n")
        with pytest.raises(DataError, match=r"^line 5: cannot parse y2='x9' as a number$"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,x", r"^line 4: cannot parse y1='x'"),
            ("2,1,3,4", r"^line 4: expected 3 fields, got 4$"),
        ],
    )
    def test_lines_after_a_blank_line_keep_their_number(self, tmp_path, row, message):
        path = tmp_path / "blank.csv"
        path.write_text("site,year,y1\n1,1,2\n\n" + row + "\n")
        with pytest.raises(DataError, match=message):
            read_dataset(path)

    def test_labels_and_row_covariates_name_the_first_bad_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("site,year,y1,elev\n1,1,2,0.5\n\n2,1.5,3,0.5\n3,2.5,4,\n")
        with pytest.raises(DataError, match=r"^line 4: year label '1.5' is missing"):
            read_dataset(path)
        path.write_text("site,year,y1,elev\n1,1,2,0.5\n\n2,1,3,0.5\n3,2,4,NA\n")
        with pytest.raises(DataError, match=r"^line 5: row covariate 'elev' is missing$"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("site,year,y1,elev\n1,1,2,0.5\n2,1,3,-inf\n", r"^line 3: row covariate 'elev' is infinite$"),
            ("site,year,y1,y2,w_1,w_2\n1,1,2,3,0.5,\n2,1,3,4,0.5,inf\n",
             r"^line 3: survey covariate 'w_2' is infinite$"),
        ],
    )
    def test_infinite_covariate_names_its_line_and_column(self, tmp_path, text, message):
        """A missing survey covariate is allowed (NaN); an infinite one of
        either level is a data fault at its line."""
        path = tmp_path / "inf.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_dataset(path)

    def test_dataset_rejects_infinite_covariates(self):
        table = ObservationTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(DataError, match="row covariate 'x' contains missing or infinite values"):
            Dataset(table=table, row_covariates={"x": np.array([0.5, np.inf])})
        with pytest.raises(DataError, match="survey covariate 'w' contains infinite values"):
            Dataset(table=table, survey_covariates={"w": np.array([[0.5, np.nan], [-np.inf, 1.0]])})

    def _count_cell_calls(self, monkeypatch, path):
        """_parse_cell calls per column name (a count of work, not a timing)."""
        calls = {}
        per_cell = io._parse_cell

        def counting(text, column, line):
            calls[column] = calls.get(column, 0) + 1
            return per_cell(text, column, line)

        monkeypatch.setattr(io, "_parse_cell", counting)
        return read_dataset(path), calls

    def test_per_cell_rule_runs_only_in_a_column_that_needs_it(
        self, tmp_path, monkeypatch, example_sim
    ):
        path = tmp_path / "clean.csv"
        write_dataset(example_sim.dataset_mean, path)
        ds, calls = self._count_cell_calls(monkeypatch, path)
        assert ds.table.n_rows == 648
        assert calls == {}
        lines = path.read_text().splitlines()
        head, fields = lines[0].split(","), lines[100].split(",")
        fields[head.index("y2")] = "NA"
        lines[100] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        ds, calls = self._count_cell_calls(monkeypatch, path)
        assert calls == {"y2": 648}
        assert np.isnan(ds.table.counts[99, 1])


class TestBuildDesigns:
    def test_intercepts_and_named_columns(self):
        ds = _dataset()
        table, designs, notes, kept = build_designs(ds, ("elev",), ("date",))
        assert kept.tolist() == [True, True, True]
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
        table, designs, notes, _ = build_designs(ds, ("elev",), ("date",))
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
        table, designs, notes, kept = build_designs(ds, (), ("w",))
        assert kept.tolist() == [True, False]
        assert table.n_rows == 1
        assert designs.n_rows == 1
        assert any("row" in note for note in notes)


def test_dataset_keeps_read_only_copies():
    """Like the model types, a Dataset copies the caller's dicts and
    arrays: the caller's dict is left as given, and later writes to the
    caller's array do not reach the Dataset."""
    rows, surveys = {"elev": [0.5, 1.5]}, {"date": np.array([[1.0, 2.0], [3.0, 4.0]])}
    date = surveys["date"]
    ds = Dataset(ObservationTable(np.ones((2, 2))), rows, surveys)
    assert rows == {"elev": [0.5, 1.5]}
    assert surveys["date"] is date and date.flags.writeable
    assert ds.row_covariates is not rows and ds.survey_covariates is not surveys
    date[0, 0] = 9.0
    assert ds.survey_covariates["date"].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    for values in (ds.row_covariates["elev"], ds.survey_covariates["date"]):
        assert not values.flags.writeable


class TestFitSerialization:
    def test_keys_are_every_fit_field_then_summary_then_extra(self, small_sim):
        fit = fit_ml(small_sim.table_mean, small_sim.designs_mean, MixtureFamily.NEGBIN)
        blob = json.loads(fit_to_json(fit, summarize_fit(fit), {"engine": "ml", "n_rows": 60}))
        names = [f.name for f in dataclasses.fields(FitResult)]
        assert list(blob) == names + ["summary", "engine", "n_rows"]
        assert blob["optimizer_success"] is True
        assert blob["covariance"] == fit.covariance.tolist()

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 7\nfamily = nb\n")
        assert parse_config(cfg) == {"seed": "7", "family": "nb"}

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
        monkeypatch.setattr(mle, "covariance_from_log_density", lambda hessian, scale: None)
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

    def test_lambda_fitted_draws_nothing(self, tmp_path, monkeypatch):
        """The summaries are exact: no posterior draw is made, and neither
        --samples nor --seed changes a byte of the CSV."""
        self._simulate(tmp_path)

        def no_draws(*args, **kwargs):
            raise AssertionError("lambda-fitted drew from the posterior")

        monkeypatch.setattr(cli, "sample_posterior", no_draws)
        texts = []
        for flags in (["--samples", "20"], ["--samples", "4000"], ["--seed", "1"], ["--seed", "2"]):
            out = tmp_path / "_".join(flags)
            assert main(["lambda-fitted", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
                         *flags, "--output-dir", str(out)]) == 0
            texts.append((out / "lambda_fitted.csv").read_bytes())
        assert texts[0] == texts[1] and texts[2] == texts[3] == texts[0]

    def test_lambda_fitted_without_covariance_exits_3(self, tmp_path, capsys, monkeypatch):
        self._simulate(tmp_path)
        monkeypatch.setattr(mle, "covariance_from_log_density", lambda hessian, scale: None)
        code = main(["lambda-fitted", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert "fit carries no covariance" in capsys.readouterr().err
        assert not (tmp_path / "lambda_fitted.csv").exists()

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

    @staticmethod
    def _first_row_dropped(tmp_path):
        """A 60-row survey-covariate CSV whose first row lacks x4 in every
        survey, so a fit on x4 drops it."""
        ds = simulate(SimConfig(n_sites=30, n_years=2, seed=3)).dataset_survey
        x4 = ds.survey_covariates["x4"].copy()
        x4[0] = np.nan
        path = tmp_path / "dropped.csv"
        write_dataset(dataclasses.replace(ds, survey_covariates={**ds.survey_covariates, "x4": x4}), path)
        return ds, ["posterior-n", "--dataset", str(path), "--p-covariates", "x4", "--samples", "20",
                    "--output-dir", str(tmp_path)]

    def test_posterior_n_row_counts_the_csv_rows(self, tmp_path, capsys):
        """--row 2 is the CSV's second data row though the first is dropped:
        its counts, site and year."""
        ds, argv = self._first_row_dropped(tmp_path)
        assert main([*argv, "--row", "2"]) == 0
        out = capsys.readouterr().out
        site, year = ds.table.site[1], ds.table.year[1]
        assert f"row 2 (site {site}, year {year})" in out
        assert f"counts {ds.table.counts[1].astype(int).tolist()}," in out

    def test_lambda_fitted_index_counts_the_csv_rows(self, tmp_path):
        """With the first data row dropped, the 59 summaries are indexed by
        the CSV's data rows 2..60."""
        _, argv = self._first_row_dropped(tmp_path)
        assert main(["lambda-fitted", *argv[1:]]) == 0
        lines = (tmp_path / "lambda_fitted.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(2, 61))

    def test_posterior_n_dropped_row_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr(cli, "fit_laplace", lambda *args, **kwargs: fits.append(args))
        _, argv = self._first_row_dropped(tmp_path)
        assert main([*argv, "--row", "1"]) == 2
        assert "--row 1: that data row was dropped" in capsys.readouterr().err
        assert main([*argv, "--row", "61"]) == 2
        assert "--row must lie in 1..60" in capsys.readouterr().err
        assert fits == []

    def test_infinite_survey_covariate_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        write_dataset(simulate(SimConfig(n_sites=30, n_years=2, seed=3)).dataset_survey, path)
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[lines[0].split(",").index("x4_2")] = "inf"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--dataset", str(path), "--engine", "ml", "--p-covariates", "x4",
                     "--output-dir", str(tmp_path)]) == 2
        assert "line 6: survey covariate 'x4_2' is infinite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lambda-fitted", "posterior-n"])
    def test_posterior_commands_imply_laplace(self, tmp_path, capsys, command):
        """No --engine needed; --engine ml is a usage fault, from a flag or
        a config file, rejected before any fit."""
        self._simulate(tmp_path)
        data = ["--dataset", str(tmp_path / "sim_counts_mean.csv"), "--samples", "20"]
        out = tmp_path / "out"
        assert main([command, *data, "--output-dir", str(out)]) == 0
        assert main([command, *data, "--engine", "ml", "--output-dir", str(out / "ml")]) == 2
        assert "argument --engine: invalid choice: 'ml'" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("engine = ml\n")
        code = main([command, *data, "--config", str(cfg), "--output-dir", str(out / "ml")])
        assert code == 2
        assert "config key 'engine': 'ml' is not one of laplace" in capsys.readouterr().err
        assert not (out / "ml").exists()

    def test_posterior_n_row_past_the_table_exits_2(self, tmp_path, capsys):
        self._simulate(tmp_path)
        code = main(
            ["posterior-n", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
             "--row", "25", "--samples", "10", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert "error: --row must lie in 1..24" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "error, code", [(DataError, 2), (ModelError, 3), (NumericError, 4), (NmixError, 1)]
    )
    def test_each_error_class_has_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code):
        def failing(args):
            raise error("stub failure")

        monkeypatch.setitem(cli._COMMANDS, "simulate", failing)
        assert main(["simulate", "--output-dir", str(tmp_path)]) == code
        assert capsys.readouterr().err == "error: stub failure\n"

    def test_bias_experiment_smoke(self, tmp_path, capsys):
        code = main(
            ["bias-experiment", "--runs", "2", "--sites", "8", "--years", "2",
             "--seed", "5", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "bias_experiment.csv").read_text().splitlines()
        assert lines[0].startswith("run,")
        assert len(lines) == 1 + 2 * 2 * 8  # runs x models x parameters
        # each fit's passes sit on each of its 8 records
        passes = sum(int(line.split(",")[8]) for line in lines[1:]) // 8
        assert f"the fits took {passes} kernel passes" in capsys.readouterr().out

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

    def test_config_value_outside_the_flag_choices_exits_2(self, tmp_path, capsys):
        self._simulate(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {tmp_path / 'sim_counts_mean.csv'}\nengine = ML\n")
        code = main(["fit", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "'engine'" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_config_family_is_checked_like_the_flag(self, tmp_path):
        self._simulate(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {tmp_path / 'sim_counts_mean.csv'}\nengine = ml\nfamily = NB\n"
        )
        assert main(["fit", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "fit.json").exists()

    def test_config_keys_of_other_subcommands_are_ignored(self, tmp_path):
        self._simulate(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {tmp_path / 'sim_counts_mean.csv'}\nengine = ml\nthreads = 2\nsamples = 9\n"
        )
        assert main(["fit", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "fit.json").read_text())["engine"] == "ml"

    def test_config_key_no_subcommand_knows_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sites = 9\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_value_that_does_not_parse_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = abc\n")
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config key 'theta': cannot parse 'abc'\n"
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("flag, value", [("prior-mean", "1.5"), ("prior-precision", "50")])
    def test_ml_fit_with_a_prior_exits_2(self, tmp_path, capsys, flag, value):
        """ML has no prior, so a prior setting is a usage fault, from a flag
        or a config file, rejected before any fit; laplace takes it."""
        self._simulate(tmp_path)
        data = ["--dataset", str(tmp_path / "sim_counts_mean.csv")]
        out = tmp_path / "out"
        assert main(["fit", *data, "--engine", "ml", f"--{flag}", value, "--output-dir", str(out)]) == 2
        want = f"error: --{flag} (flag or config) sets a prior, which only --engine laplace has\n"
        assert capsys.readouterr().err == want
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"engine = ml\n{flag} = {value}\n")
        assert main(["fit", *data, "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()
        assert main(["fit", *data, "--config", str(cfg), "--engine", "laplace",
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "fit.json").read_text())["engine"] == "laplace"

    @pytest.mark.parametrize("missing", ["--dataset", "--engine"])
    def test_fit_without_dataset_or_engine_exits_2(self, tmp_path, capsys, missing):
        self._simulate(tmp_path)
        given = {"--dataset": str(tmp_path / "sim_counts_mean.csv"), "--engine": "ml"}
        del given[missing]
        out = tmp_path / "out"
        assert main(["fit", *[a for item in given.items() for a in item], "--output-dir", str(out)]) == 2
        assert f"error: {missing} is required" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_beta_and_alpha_reach_the_data(self, tmp_path):
        """--beta and --alpha give the library's simulation of those values:
        lambda is exp(b0) where the slopes are 0, and the counts match."""
        code = main(["simulate", "--sites", "12", "--years", "2", "--seed", "3",
                     "--beta", "0.5,0,0,0", "--alpha=-1,0.5,0.25", "--output-dir", str(tmp_path)])
        assert code == 0
        truth = np.genfromtxt(tmp_path / "sim_truth.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(truth["lambda"], np.exp(0.5))
        sim = simulate(SimConfig(n_sites=12, n_years=2, seed=3, beta=(0.5, 0.0, 0.0, 0.0),
                                 alpha=(-1.0, 0.5, 0.25)))
        np.testing.assert_array_equal(truth["n"], sim.true_n)
        write_dataset(sim.dataset_mean, tmp_path / "library.csv")
        assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "sim_counts_mean.csv").read_bytes()

    def test_simulate_negative_first_coefficients_by_flag_or_config(self, tmp_path):
        """A list with a negative first value is joined to its flag with =,
        or given in a config file, and both write the same files."""
        size = ["--sites", "3", "--years", "1"]
        flags, config = tmp_path / "flags", tmp_path / "config"
        assert main(["simulate", "--alpha=-1,0.5,0.25", "--beta=-0.5,0,0,0", *size,
                     "--output-dir", str(flags)]) == 0
        truth = np.genfromtxt(flags / "sim_truth.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(truth["lambda"], np.exp(-0.5))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = -1,0.5,0.25\nbeta = -0.5,0,0,0\n")
        assert main(["simulate", "--config", str(cfg), *size, "--output-dir", str(config)]) == 0
        names = sorted(os.listdir(flags))
        assert "sim_truth.csv" in names and sorted(os.listdir(config)) == names
        for name in names:
            assert (config / name).read_bytes() == (flags / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("beta", "1,2,3", "--beta needs exactly 4 values, got 3"),
            ("alpha", "1,2,3,4", "--alpha needs exactly 3 values, got 4"),
            ("alpha", "1,x,2", "--alpha must be comma-separated numbers, got '1,x,2'"),
        ],
    )
    def test_simulate_bad_coefficients_exit_2(self, tmp_path, capsys, flag, value, message):
        assert main(["simulate", f"--{flag}", value, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_simulate_poisson_writes_the_poisson_simulation(self, tmp_path):
        self._simulate(tmp_path, "--family", "poisson")
        sim = simulate(SimConfig(n_sites=12, n_years=2, seed=3, theta=None))
        write_dataset(sim.dataset_mean, tmp_path / "library.csv")
        assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "sim_counts_mean.csv").read_bytes()

    def test_simulate_poisson_with_theta_exits_2(self, tmp_path, capsys):
        """The Poisson has no theta, so a given one is a usage fault, from a
        flag or a config file, rejected before anything is written."""
        out = ["--output-dir", str(tmp_path)]
        want = "error: --theta and --family poisson (flag or config) conflict: the Poisson has no dispersion\n"
        assert main(["simulate", "--family", "poisson", "--theta", "2"] + out) == 2
        assert capsys.readouterr().err == want
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 2\n")
        assert main(["simulate", "--family", "poisson", "--config", str(cfg)] + out) == 2
        assert capsys.readouterr().err == want
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["simulate", "--theta", "inf"], 3, "theta must be positive and finite, or None"),
            (["bias-experiment", "--theta", "inf"], 3, "theta must be positive and finite, or None"),
            (["simulate", "--beta=nan,0,0,0"], 3, "parameters must be finite"),
            (["simulate", "--alpha=inf,0,0"], 3, "parameters must be finite"),
            (["simulate", "--beta=800,0,0,0"], 4,
             "abundance linear predictor 800 at row 0 overflows exp()"),
            (["simulate", "--beta=50,0,0,0"], 4,
             "the sampler cannot draw N at lambda=5.18471e+21, theta=3: "),
            (["simulate", "--theta", "1e-320"], 4,
             "the sampler cannot draw N at lambda=93.5587, theta=9.99989e-321: "),
            (["bias-experiment", "--theta", "1e-320", "--runs", "1", "--sites", "3", "--years", "2"],
             4, "the sampler cannot draw N at lambda=27.6843, theta=9.99989e-321: "),
            (["simulate", "--family", "poisson", "--beta=44,0,0,0"], 4,
             "the sampler cannot draw N at lambda=1.28516e+19: lam value too large"),
            (["bias-experiment", "--years", "1", "--runs", "2"], 3,
             "abundance design is rank deficient; collinear columns: x3"),
            (["bias-experiment", "--sites", "2", "--runs", "1"], 3,
             "abundance design is rank deficient; collinear columns: x2"),
        ],
    )
    def test_simulation_settings_the_model_rejects_are_named(
        self, tmp_path, capsys, argv, code, message
    ):
        """Invalid settings exit 3 and abundances the sampler cannot draw
        exit 4, each as one error line, before anything is written."""
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    @pytest.mark.parametrize("blocked", ["output dir", "output file"])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, command, blocked):
        """An --output-dir naming a file, or an output file name taken by a
        directory, is one error line naming the file that cannot be written."""
        self._simulate(tmp_path)
        out = tmp_path / "out"
        if blocked == "output dir":
            out.write_text("")
            path = out / {"simulate": "sim_counts_mean.csv", "fit": "fit.json"}[command]
        else:
            path = out / {"simulate": "sim_truth.csv", "fit": "fit.json"}[command]
            path.mkdir(parents=True)
        argv = ["simulate", "--sites", "5", "--years", "2"] if command == "simulate" else [
            "fit", "--dataset", str(tmp_path / "sim_counts_mean.csv"), "--engine", "ml"]
        capsys.readouterr()
        assert main(argv + ["--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_missing_dataset_exits_2(self, tmp_path):
        code = main(
            ["fit", "--dataset", str(tmp_path / "absent.csv"),
             "--family", "nb", "--engine", "ml"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "row, column", [(",1,3,4", "site"), ("2,1.7,3,4", "year"), ("1e300,1,3,4", "site")]
    )
    def test_missing_or_fractional_label_exits_2(self, tmp_path, capsys, row, column):
        path = tmp_path / "labels.csv"
        path.write_text("site,year,y1,y2\n1,1,2,3\n" + row + "\n")
        code = main(
            ["fit", "--dataset", str(path), "--family", "poisson", "--engine", "ml",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert f"line 3: {column} label" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["inf", "-1", "2.5"])
    def test_faulty_count_exits_2_naming_its_line_and_column(self, tmp_path, capsys, cell):
        path = tmp_path / "counts.csv"
        path.write_text(f"site,year,y1,y2\n1,1,2,3\n2,1,4,{cell}\n")
        code = main(["fit", "--dataset", str(path), "--engine", "ml", "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: count y2={cell!r} is not a non-negative integer\n"

    def test_start_the_kernel_cannot_evaluate_exits_4_naming_its_cause(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("site,year,y1,y2\n1,1,3e20,2\n2,1,1,0\n3,1,2,1\n")
        code = main(["fit", "--dataset", str(path), "--engine", "ml", "--family", "poisson",
                     "--output-dir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: objective is not finite at the starting point: terms past 2**53 cannot be "
            "counted (N + 1 rounds to N) for row 0 (lam=1e+20, start N=3.249999999549999e+20)\n"
        )

    def _scaled_x1(self, tmp_path, factor):
        """The 5-site, 2-year simulation's mean counts with x1 times ``factor``."""
        main(["simulate", "--sites", "5", "--years", "2", "--output-dir", str(tmp_path)])
        rows = (tmp_path / "sim_counts_mean.csv").read_text().splitlines()
        at = rows[0].split(",").index("x1")
        for i, row in enumerate(rows[1:], 1):
            cells = row.split(",")
            cells[at] = repr(float(cells[at]) * factor)
            rows[i] = ",".join(cells)
        path = tmp_path / f"x1_{factor:g}.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("factor", [1e-17, 1e-3, 1e3, 1e16])
    def test_covariate_scaled_within_the_spread_reaches_the_mode(self, tmp_path, factor):
        """With x1 x 1e-17 a fit in the coefficients' own units once reported
        converged=True at loglik -67.35227, short of the mode's -67.34505;
        an inverse Hessian taken in those units lost its digits or its
        positive definiteness from a spread of about 1e7."""
        fits = [
            fit_ml(*build_designs(read_dataset(self._scaled_x1(tmp_path, f)), ("x1",), ())[:2],
                   MixtureFamily.POISSON)
            for f in (1.0, factor)
        ]
        assert all(fit.converged for fit in fits)
        assert fits[1].loglik == pytest.approx(fits[0].loglik, abs=1e-9)
        assert fits[1].estimates.beta[1] * factor == pytest.approx(fits[0].estimates.beta[1], rel=1e-6)
        se = [np.sqrt(fit.covariance[1, 1]) for fit in fits]
        assert se[1] * factor == pytest.approx(se[0], rel=1e-6)

    def test_row_without_counts_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("site,year,y1,y2\n1,1,2,3\n2,1,,\n")
        code = main(["fit", "--dataset", str(path), "--engine", "ml", "--output-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: line 3: every count column y1..y2 is empty"
        )

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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("bias-experiment", "runs", "0"),
            ("bias-experiment", "threads", "0"),
            ("bias-experiment", "threads", "-3"),
            ("lambda-fitted", "samples", "0"),
            ("posterior-n", "samples", "-1"),
            ("posterior-n", "row", "0"),
            ("simulate", "sites", "0"),
            ("simulate", "surveys", "0"),
            ("simulate", "years", "-2"),
            ("bias-experiment", "sites", "0"),
            ("bias-experiment", "surveys", "-1"),
            ("bias-experiment", "years", "0"),
        ],
    )
    def test_count_flag_below_one_exits_2(self, tmp_path, capsys, command, flag, value):
        """Rejected while parsing, before any fit or worker process starts."""
        out = ["--output-dir", str(tmp_path)]
        assert main([command, f"--{flag}", value] + out) == 2
        assert f"argument --{flag}: must be a positive integer" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        assert main([command, "--config", str(cfg)] + out) == 2
        assert f"config key '{flag}': must be a positive integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_console_script_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "nmixfit.cli", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip()

    def test_cli_import_leaves_out_scipy_stats_and_optimize(self):
        """A fresh process that imports the package, its CLI and its
        experiment driver loads no scipy module at all, nor the process
        pool's modules, and the tests' brute-force oracle is not part of
        the package."""
        code = (
            "import sys, nmixfit, nmixfit.cli, nmixfit.experiments\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
            "print(hasattr(nmixfit, 'row_loglik_bruteforce'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nmixfit.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.split() == ["[]", "[]", "False"]


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

    def test_cli_fit_of_the_simulated_csv_equals_the_library_fit(self, tmp_path):
        """simulate's designs are the ones a fit of its mean CSV builds: the
        CLI fit equals the library fit to the bit, under the same names."""
        sim = simulate(SimConfig(n_sites=30, n_years=3, seed=4))
        assert main(["simulate", "--sites", "30", "--years", "3", "--seed", "4",
                     "--output-dir", str(tmp_path)]) == 0
        assert main(["fit", "--dataset", str(tmp_path / "sim_counts_mean.csv"),
                     "--engine", "ml", "--family", "nb",
                     "--lambda-covariates", "x1,x2,x3", "--p-covariates", "x1,x4.m",
                     "--output-dir", str(tmp_path)]) == 0
        blob = json.loads((tmp_path / "fit.json").read_text())
        fit = fit_ml(sim.table_mean, sim.designs_mean, MixtureFamily.NEGBIN)
        assert blob["estimates"] == fit.estimates.to_array().tolist()
        assert blob["loglik"] == fit.loglik
        assert tuple(blob["parameter_names"]) == fit.parameter_names
