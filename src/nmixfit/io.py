"""Reading and writing datasets, fits, and config files.

Dataset CSV layout: columns ``site`` and ``year`` (integers), count
columns ``y1..yJ`` (empty cell = survey not carried out), then covariate
columns.  A covariate present as ``name_1..name_J`` (one column per
survey) is survey-level; any other column is row-level.  Floats are
written with 17 significant digits so a round trip is exact.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelError
from .fitcore import FitResult
from .model import DesignMatrices, ObservationTable

_MISSING_TOKENS = {"", "na", "nan"}


def _format_value(value: float) -> str:
    if np.isnan(value):
        return ""
    return "%.17g" % value


def _parse_cell(text: str, column: str, line: int) -> float:
    token = text.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line}: cannot parse {column}={text!r} as a number") from None


@dataclass
class Dataset:
    """A count table plus named covariates, as stored on disk."""

    table: ObservationTable
    row_covariates: dict[str, np.ndarray] = field(default_factory=dict)
    survey_covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n, j = self.table.n_rows, self.table.n_surveys
        for name, values in self.row_covariates.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != (n,):
                raise DataError(f"row covariate {name!r} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"row covariate {name!r} contains missing values")
            self.row_covariates[name] = arr
        for name, values in self.survey_covariates.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != (n, j):
                raise DataError(f"survey covariate {name!r} must have shape ({n}, {j})")
            self.survey_covariates[name] = arr


def write_dataset(dataset: Dataset, path) -> None:
    table = dataset.table
    j = table.n_surveys
    header = (
        ["site", "year"]
        + [f"y{s + 1}" for s in range(j)]
        + list(dataset.row_covariates)
        + [f"{name}_{s + 1}" for name in dataset.survey_covariates for s in range(j)]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(table.n_rows):
            row = [str(int(table.site[i])), str(int(table.year[i]))]
            row += [_format_value(v) for v in table.counts[i]]
            row += [_format_value(vals[i]) for vals in dataset.row_covariates.values()]
            for vals in dataset.survey_covariates.values():
                row += [_format_value(v) for v in vals[i]]
            writer.writerow(row)


def read_dataset(path) -> Dataset:
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"dataset {path} has no data rows")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["site", "year"]:
        raise DataError("dataset must start with 'site' and 'year' columns")
    if len(set(header)) != len(header):
        raise DataError("dataset has duplicate column names")

    count_cols = sorted(
        (int(m.group(1)), i)
        for i, h in enumerate(header)
        if (m := re.fullmatch(r"y(\d+)", h))
    )
    if not count_cols:
        raise DataError("dataset has no count columns y1..yJ")
    n_surveys = len(count_cols)
    if [num for num, _ in count_cols] != list(range(1, n_surveys + 1)):
        raise DataError("count columns must be numbered y1..yJ without gaps")

    taken = {0, 1} | {i for _, i in count_cols}
    survey_groups: dict[str, dict[int, int]] = {}
    for i, h in enumerate(header):
        if i in taken:
            continue
        m = re.fullmatch(r"(.+)_(\d+)", h)
        if m and 1 <= int(m.group(2)) <= n_surveys:
            survey_groups.setdefault(m.group(1), {})[int(m.group(2))] = i
    survey_cols = {
        name: cols
        for name, cols in survey_groups.items()
        if len(cols) == n_surveys
    }
    for cols in survey_cols.values():
        taken |= set(cols.values())
    row_cols = {header[i]: i for i in range(len(header)) if i not in taken}

    n = len(rows) - 1
    site = np.empty(n, dtype=int)
    year = np.empty(n, dtype=int)
    counts = np.empty((n, n_surveys))
    row_cov = {name: np.empty(n) for name in row_cols}
    survey_cov = {name: np.empty((n, n_surveys)) for name in survey_cols}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"line {r}: expected {len(header)} fields, got {len(row)}")
        site[r - 2] = int(_parse_cell(row[0], "site", r))
        year[r - 2] = int(_parse_cell(row[1], "year", r))
        for s, (_, i) in enumerate(count_cols):
            counts[r - 2, s] = _parse_cell(row[i], header[i], r)
        for name, i in row_cols.items():
            value = _parse_cell(row[i], name, r)
            if np.isnan(value):
                raise DataError(f"line {r}: row covariate {name!r} is missing")
            row_cov[name][r - 2] = value
        for name, cols in survey_cols.items():
            for s in range(n_surveys):
                survey_cov[name][r - 2, s] = _parse_cell(row[cols[s + 1]], name, r)

    try:
        table = ObservationTable(counts=counts, site=site, year=year)
    except ModelError as exc:
        raise DataError(str(exc)) from exc
    return Dataset(table=table, row_covariates=row_cov, survey_covariates=survey_cov)


def build_designs(
    dataset: Dataset,
    lambda_covariates: tuple[str, ...],
    p_covariates: tuple[str, ...],
) -> tuple[ObservationTable, DesignMatrices, list[str]]:
    """Assemble design matrices with explicit intercepts from named covariates.

    A survey-level detection covariate that is missing where a count was
    recorded makes that cell unusable: the count is dropped (marked as a
    missed survey), and rows losing every survey are dropped entirely.
    The returned notes describe any such surgery.
    """
    table = dataset.table
    n, j = table.n_rows, table.n_surveys
    notes: list[str] = []

    def lookup(name):
        if name in dataset.row_covariates:
            return np.tile(dataset.row_covariates[name][:, None], (1, j)), False
        if name in dataset.survey_covariates:
            return dataset.survey_covariates[name].copy(), True
        raise DataError(f"unknown covariate {name!r}")

    abundance = [np.ones(n)]
    for name in lambda_covariates:
        if name in dataset.survey_covariates:
            raise DataError(
                f"abundance covariate {name!r} is survey-level; abundance varies "
                "only by row"
            )
        if name not in dataset.row_covariates:
            raise DataError(f"unknown covariate {name!r}")
        abundance.append(dataset.row_covariates[name])

    detection = [np.ones((n, j))]
    unusable = np.zeros((n, j), dtype=bool)
    for name in p_covariates:
        values, per_survey = lookup(name)
        if per_survey:
            missing = np.isnan(values) & table.mask
            if np.any(missing):
                unusable |= missing
                notes.append(
                    f"dropped {int(missing.sum())} observed counts lacking "
                    f"detection covariate {name!r}"
                )
        detection.append(values)

    counts = np.asarray(table.counts, dtype=float).copy()
    counts[unusable] = np.nan
    keep = ~np.all(np.isnan(counts), axis=1)
    if not np.all(keep):
        notes.append(f"dropped {int(np.sum(~keep))} rows left with no usable surveys")
    counts = counts[keep]
    new_table = ObservationTable(
        counts=counts, site=table.site[keep], year=table.year[keep]
    )
    abundance_design = np.column_stack(abundance)[keep]
    detection_design = np.stack(detection, axis=2)[keep]
    # masked cells may hold NaN covariates; zero them so the design is finite
    detection_design[np.isnan(detection_design)] = 0.0
    designs = DesignMatrices(
        abundance_design=abundance_design,
        detection_design=detection_design,
        abundance_names=("(Intercept)",) + tuple(lambda_covariates),
        detection_names=("(Intercept)",) + tuple(p_covariates),
    )
    return new_table, designs, notes


def parse_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    result: dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = line.split("=", 1)
                result[key.strip()] = value.strip()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return result


def fit_to_json(fit: FitResult, summary_rows=None, extra: dict | None = None) -> str:
    """Serialise a fit (and optional Wald summary) to a JSON document."""
    payload = {
        "family": fit.family.value,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
        "optimizer_message": fit.optimizer_message,
        "kernel_passes": fit.kernel_passes,
        "loglik": fit.loglik,
        "parameter_names": list(fit.parameter_names),
        "estimates": fit.estimates.to_array().tolist(),
        "covariance": None if fit.covariance is None else fit.covariance.tolist(),
    }
    if summary_rows is not None:
        payload["summary"] = [
            {
                "name": r.name,
                "estimate": r.estimate,
                "se": r.se,
                "z": r.z,
                "p_value": r.p_value,
            }
            for r in summary_rows
        ]
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)


def write_truth_csv(path, sim_output) -> None:
    """True per-row abundance means and latent abundances from a simulation."""
    table = sim_output.table_mean
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["site", "year", "lambda", "n"])
        for i in range(table.n_rows):
            writer.writerow(
                [
                    str(int(table.site[i])),
                    str(int(table.year[i])),
                    _format_value(sim_output.true_lambda[i]),
                    _format_value(sim_output.true_n[i]),
                ]
            )


def sim_to_datasets(sim_output) -> tuple[Dataset, Dataset]:
    """Datasets (mean-covariate counts, survey-covariate counts) for writing."""
    k = sim_output.config.n_years
    s = sim_output.config.n_sites
    row_cov = {
        "x1": np.tile(sim_output.x1, k),
        "x2": np.tile(sim_output.x2, k),
        "x3": np.repeat(sim_output.x3, s),
        "x4.m": sim_output.x4_mean.T.reshape(k * s),
    }
    survey_cov = {"x4": sim_output.x4.transpose(2, 0, 1).reshape(k * s, -1)}
    mean_ds = Dataset(
        table=sim_output.table_mean,
        row_covariates=dict(row_cov),
        survey_covariates=dict(survey_cov),
    )
    survey_ds = Dataset(
        table=sim_output.table_survey,
        row_covariates=dict(row_cov),
        survey_covariates=dict(survey_cov),
    )
    return mean_ds, survey_ds
