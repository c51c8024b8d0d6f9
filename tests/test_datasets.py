"""The mallard loader and its two model preparations, on a small CSV of
the mallard layout named by NMIXFIT_MALLARD_CSV."""

import numpy as np
import pytest

from nmixfit import DataError
from nmixfit.datasets import (
    load_mallard,
    with_averaged_detection_covariates,
    with_survey_detection_covariates,
)

# Row 2 has a count where ivel is missing.  Row 3 records no survey
# covariate at all, so the survey-level model drops its one count and
# with it the row.
MALLARD = (
    "site,year,y1,y2,y3,elev,length,forest,ivel_1,ivel_2,ivel_3,date_1,date_2,date_3\n"
    "1,1,2,1,,0.5,1.2,-0.3,0.1,0.2,,-1.0,0.0,\n"
    "2,1,0,3,4,-0.2,0.8,0.6,0.3,,0.5,-0.5,0.5,1.0\n"
    "3,1,5,,,1.1,1.0,0.1,,,,,,\n"
    "4,1,1,2,0,0.0,0.9,-1.2,0.2,0.4,0.6,-1.5,-0.5,0.5\n"
)
IVEL = [[0.1, 0.2, np.nan], [0.3, np.nan, 0.5], [np.nan] * 3, [0.2, 0.4, 0.6]]
DATE = [[-1.0, 0.0, np.nan], [-0.5, 0.5, 1.0], [np.nan] * 3, [-1.5, -0.5, 0.5]]


@pytest.fixture
def mallard(tmp_path, monkeypatch):
    path = tmp_path / "mallard.csv"
    path.write_text(MALLARD)
    monkeypatch.setenv("NMIXFIT_MALLARD_CSV", str(path))
    return load_mallard()


def test_load_mallard_reads_the_named_csv(mallard):
    assert mallard.table.n_rows == 4 and mallard.table.n_surveys == 3
    assert mallard.table.site.tolist() == [1, 2, 3, 4]
    np.testing.assert_array_equal(mallard.row_covariates["forest"], [-0.3, 0.6, 0.1, -1.2])
    np.testing.assert_array_equal(mallard.survey_covariates["ivel"], IVEL)
    np.testing.assert_array_equal(mallard.survey_covariates["date"], DATE)


def test_survey_model_drops_counts_without_covariates(mallard):
    table, designs, notes, kept = with_survey_detection_covariates(mallard)
    assert notes == [
        "dropped 2 observed counts lacking detection covariate 'ivel'",
        "dropped 1 observed counts lacking detection covariate 'date'",
        "dropped 1 observed counts lacking detection covariate 'date.sq'",
        "dropped 1 rows left with no usable surveys",
    ]
    assert kept.tolist() == [True, True, False, True]
    np.testing.assert_array_equal(
        table.counts, [[2.0, 1.0, np.nan], [0.0, np.nan, 4.0], [1.0, 2.0, 0.0]]
    )
    assert designs.abundance_names == ("(Intercept)", "length", "elev", "forest")
    assert designs.detection_names == ("(Intercept)", "ivel", "date", "date.sq")
    date = np.nan_to_num(np.array(DATE)[kept])
    np.testing.assert_array_equal(designs.detection_design[:, :, 2], date)
    np.testing.assert_array_equal(designs.detection_design[:, :, 3], date**2)


def test_averaged_model_takes_means_over_recorded_surveys(mallard):
    table, designs, notes, kept = with_averaged_detection_covariates(mallard)
    assert notes == [] and kept.all()
    assert designs.detection_names == ("(Intercept)", "ivel.m", "date.m", "date.m.sq")
    # row 3 records neither covariate and takes the mean of every recorded value
    ivel_all = np.nanmean(IVEL)
    date_all = np.nanmean(DATE)
    ivel_m = [0.15, 0.4, ivel_all, 0.4]
    date_m = [-0.5, 1.0 / 3.0, date_all, -0.5]
    row = designs.detection_design[:, 0, :]
    np.testing.assert_allclose(row[:, 1], ivel_m, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(row[:, 2], date_m, rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(row[:, 3], row[:, 2] ** 2)
    # row-level covariates: every survey of a row shares them
    np.testing.assert_array_equal(designs.detection_design, np.repeat(row[:, None, :], 3, axis=1))


def test_missing_site_covariate_is_named(tmp_path, monkeypatch):
    path = tmp_path / "mallard.csv"
    path.write_text(MALLARD.replace("forest", "canopy"))
    monkeypatch.setenv("NMIXFIT_MALLARD_CSV", str(path))
    with pytest.raises(DataError, match="lacks the site covariate 'forest'"):
        load_mallard()


def test_variable_naming_a_missing_file_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("NMIXFIT_MALLARD_CSV", str(tmp_path / "absent.csv"))
    with pytest.raises(DataError, match="NMIXFIT_MALLARD_CSV points to a missing file"):
        load_mallard()
