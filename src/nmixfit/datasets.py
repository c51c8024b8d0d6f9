"""Bundled datasets and their model-ready preparations.

The mallard waterfowl counts (239 transects, up to 3 surveys) ship as a
CSV exported from the public distribution of the data; see DATA.md at
the repository root for provenance, schema, and the export recipe.  The
loader also honours the NMIXFIT_MALLARD_CSV environment variable so a
locally exported copy can be used without reinstalling.
"""

from __future__ import annotations

import os
from importlib import resources

import numpy as np

from .errors import DataError
from .io import Dataset, build_designs, read_dataset

_MALLARD_ROW_COVARIATES = ("elev", "length", "forest")
_MALLARD_SURVEY_COVARIATES = ("ivel", "date")


def mallard_csv_path() -> str:
    """Path to the mallard CSV, or a DataError explaining how to provide it."""
    override = os.environ.get("NMIXFIT_MALLARD_CSV")
    if override:
        if os.path.exists(override):
            return override
        raise DataError(f"NMIXFIT_MALLARD_CSV points to a missing file: {override}")
    packaged = resources.files("nmixfit") / "data" / "mallard.csv"
    try:
        if packaged.is_file():
            return str(packaged)
    except OSError:
        pass
    raise DataError(
        "mallard.csv is not bundled in this build; export it as described in "
        "DATA.md and either place it at src/nmixfit/data/mallard.csv or set "
        "NMIXFIT_MALLARD_CSV to its location"
    )


def load_mallard() -> Dataset:
    """The mallard dataset with its original missing-value pattern."""
    dataset = read_dataset(mallard_csv_path())
    for name in _MALLARD_ROW_COVARIATES:
        if name not in dataset.row_covariates:
            raise DataError(f"mallard.csv lacks the site covariate {name!r}")
    for name in _MALLARD_SURVEY_COVARIATES:
        if name not in dataset.survey_covariates:
            raise DataError(f"mallard.csv lacks the survey covariate {name!r}")
    return dataset


def with_survey_detection_covariates(dataset: Dataset):
    """Survey-level detection model: p ~ ivel + date + date^2, lambda ~ length + elev + forest.

    Counts observed without their survey covariates are dropped, the
    same treatment the original analysis applied.  Returns (table,
    designs, notes, kept).
    """
    date = dataset.survey_covariates["date"]
    augmented = Dataset(
        table=dataset.table,
        row_covariates=dict(dataset.row_covariates),
        survey_covariates={**dataset.survey_covariates, "date.sq": date**2},
    )
    return build_designs(
        augmented,
        lambda_covariates=("length", "elev", "forest"),
        p_covariates=("ivel", "date", "date.sq"),
    )


def with_averaged_detection_covariates(dataset: Dataset):
    """Site-averaged detection model for engines needing row-level covariates.

    Survey covariates are averaged per row over the surveys where they
    were recorded; rows with no recorded values fall back to the overall
    mean.  The square of the averaged date is taken after averaging.
    Returns (table, designs, notes, kept).
    """
    averaged = {}
    for name in _MALLARD_SURVEY_COVARIATES:
        values = dataset.survey_covariates[name]
        recorded = ~np.isnan(values)
        if not recorded.any():
            raise DataError(f"survey covariate {name!r} has no recorded values")
        sums = np.where(recorded, values, 0.0).sum(axis=1)
        n_rec = recorded.sum(axis=1)
        overall = np.where(recorded, values, 0.0).sum() / recorded.sum()
        means = np.where(n_rec > 0, sums / np.maximum(n_rec, 1), overall)
        averaged[f"{name}.m"] = means
    averaged["date.m.sq"] = averaged["date.m"] ** 2
    augmented = Dataset(
        table=dataset.table,
        row_covariates={**dataset.row_covariates, **averaged},
        survey_covariates=dict(dataset.survey_covariates),
    )
    return build_designs(
        augmented,
        lambda_covariates=("length", "elev", "forest"),
        p_covariates=("ivel.m", "date.m", "date.m.sq"),
    )
