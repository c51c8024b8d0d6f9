"""Reading and writing datasets, fits, and config files.

Dataset CSV layout: columns ``site`` and ``year`` (integers), count
columns ``y1..yJ`` (empty cell = survey not carried out), then covariate
columns.  A covariate present as ``name_1..name_J`` (one column per
survey) is survey-level; any other column is row-level.

Every CSV the package writes goes through :func:`write_csv`, which
formats each cell by one rule: booleans as ``true``/``false``, integers
and labels as text, floats with 17 significant digits so a round trip
is exact, and NaN as an empty cell, the token for a missing value.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DataError
from .fitcore import FitResult
from .model import DesignMatrices, ObservationTable, ParameterVector, _frozen_array

_MISSING_TOKENS = {"", "na", "nan"}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else "%.17g" % value
    return str(value)


@contextmanager
def open_output(path):
    """``path`` opened for writing, its directory made; OSError becomes DataError."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of values, one cell rule for all."""
    with open_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def write_records(path, records, record_type) -> None:
    """One row per dataclass record: its fields, read by name (``astuple``
    deep-copies every value), under a header of their names."""
    names = [f.name for f in fields(record_type)]
    write_csv(path, names, ([getattr(record, name) for name in names] for record in records))


def _parse_cell(text: str, column: str, line: int) -> float:
    token = text.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line}: cannot parse {column}={text!r} as a number") from None


def _parse_column(cells, column: str, lines) -> np.ndarray:
    """One column's numbers in one float() pass; only a column where that
    raises goes cell by cell, which maps missing tokens and names a bad cell."""
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return np.array([_parse_cell(c, column, line) for c, line in zip(cells, lines)])


def _parse_labels(cells, column: str, lines) -> np.ndarray:
    values = _parse_column(cells, column, lines)
    bad = ~((values == np.floor(values)) & (np.abs(values) < 2.0**63))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"line {lines[i]}: {column} label {cells[i]!r} is missing or not a 64-bit integer"
        )
    return values.astype(int)


def _parse_counts(cells, column: str, lines) -> np.ndarray:
    """A count column; a cell that is neither missing nor a non-negative
    integer is a DataError naming its line."""
    values = _parse_column(cells, column, lines)
    bad = ~np.isnan(values) & ((values < 0) | (values != np.floor(values)) | np.isinf(values))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"line {lines[i]}: count {column}={cells[i]!r} is not a non-negative integer")
    return values


def _parse_covariate(cells, column: str, lines, level: str) -> np.ndarray:
    """A covariate column; an infinite cell, or a missing one of a row
    covariate, is a DataError naming its line."""
    values = _parse_column(cells, column, lines)
    bad = np.isinf(values) | (np.isnan(values) if level == "row" else False)
    if bad.any():
        i = int(np.argmax(bad))
        what = "missing" if np.isnan(values[i]) else "infinite"
        raise DataError(f"line {lines[i]}: {level} covariate {column!r} is {what}")
    return values


@dataclass(frozen=True)
class Dataset:
    """A count table plus named covariates, as stored on disk.  Like the
    model types, it keeps its own dicts and read-only copies of the arrays."""

    table: ObservationTable
    row_covariates: dict[str, np.ndarray] = field(default_factory=dict)
    survey_covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n, j = self.table.n_rows, self.table.n_surveys
        row = {name: _frozen_array(values) for name, values in self.row_covariates.items()}
        survey = {name: _frozen_array(values) for name, values in self.survey_covariates.items()}
        for name, arr in row.items():
            if arr.shape != (n,):
                raise DataError(f"row covariate {name!r} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"row covariate {name!r} contains missing or infinite values")
        for name, arr in survey.items():
            if arr.shape != (n, j):
                raise DataError(f"survey covariate {name!r} must have shape ({n}, {j})")
            if np.any(np.isinf(arr)):
                raise DataError(f"survey covariate {name!r} contains infinite values")
        object.__setattr__(self, "row_covariates", row)
        object.__setattr__(self, "survey_covariates", survey)


def write_dataset(dataset: Dataset, path) -> None:
    table = dataset.table
    j = table.n_surveys
    header = (
        ["site", "year"]
        + [f"y{s + 1}" for s in range(j)]
        + list(dataset.row_covariates)
        + [f"{name}_{s + 1}" for name in dataset.survey_covariates for s in range(j)]
    )
    values = np.column_stack(
        [table.counts, *dataset.row_covariates.values(), *dataset.survey_covariates.values()]
    )
    rows = zip(table.site.tolist(), table.year.tolist(), values)
    write_csv(path, header, ([site, year, *cells.tolist()] for site, year, cells in rows))


def read_dataset(path) -> Dataset:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            # blank lines are skipped; each kept row carries its physical line
            numbered = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if len(numbered) < 2:
        raise DataError(f"dataset {path} has no data rows")
    header = [h.strip() for h in numbered[0][1]]
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

    lines, rows = zip(*numbered[1:])
    for line, row in numbered[1:]:
        if len(row) != len(header):
            raise DataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
    columns = list(zip(*rows))
    site = _parse_labels(columns[0], "site", lines)
    year = _parse_labels(columns[1], "year", lines)
    counts = np.column_stack([_parse_counts(columns[i], header[i], lines) for _, i in count_cols])
    empty = np.isnan(counts).all(axis=1)
    if empty.any():
        raise DataError(
            f"line {lines[int(np.argmax(empty))]}: every count column y1..y{n_surveys} is empty; "
            "a row needs at least one observed survey"
        )
    row_cov = {name: _parse_covariate(columns[i], name, lines, "row") for name, i in row_cols.items()}
    survey_cov = {
        name: np.column_stack([
            _parse_covariate(columns[cols[s]], header[cols[s]], lines, "survey")
            for s in range(1, n_surveys + 1)
        ])
        for name, cols in survey_cols.items()
    }

    table = ObservationTable(counts=counts, site=site, year=year)
    return Dataset(table=table, row_covariates=row_cov, survey_covariates=survey_cov)


def build_designs(
    dataset: Dataset,
    lambda_covariates: tuple[str, ...],
    p_covariates: tuple[str, ...],
) -> tuple[ObservationTable, DesignMatrices, list[str], np.ndarray]:
    """Assemble design matrices with explicit intercepts from named covariates.

    A survey-level detection covariate that is missing where a count was
    recorded makes that cell unusable: the count is dropped (marked as a
    missed survey), and rows losing every survey are dropped entirely.
    Returns (table, designs, notes, kept): the notes describe any such
    surgery, and ``kept`` marks the dataset's rows that the table holds.
    """
    table = dataset.table
    n, j = table.n_rows, table.n_surveys
    notes: list[str] = []

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
        if name in dataset.row_covariates:
            detection.append(np.tile(dataset.row_covariates[name][:, None], (1, j)))
            continue
        if name not in dataset.survey_covariates:
            raise DataError(f"unknown covariate {name!r}")
        missing = np.isnan(dataset.survey_covariates[name]) & table.mask
        if np.any(missing):
            unusable |= missing
            notes.append(
                f"dropped {int(missing.sum())} observed counts lacking detection covariate {name!r}")
        detection.append(dataset.survey_covariates[name])

    counts = np.asarray(table.counts, dtype=float).copy()
    counts[unusable] = np.nan
    keep = ~np.all(np.isnan(counts), axis=1)
    if not np.all(keep):
        notes.append(f"dropped {int(np.sum(~keep))} rows left with no usable surveys")
    new_table = ObservationTable(
        counts=counts[keep], site=table.site[keep], year=table.year[keep]
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
    return new_table, designs, notes, keep


def parse_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    result: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = line.split("=", 1)
                result[key.strip()] = value.strip()
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return result


def _json_value(value):
    """json.dumps' hook: the estimates and any numpy array or scalar as lists
    or numbers."""
    return (value.to_array() if isinstance(value, ParameterVector) else value).tolist()


def fit_to_json(fit: FitResult, summary_rows=None, extra: dict | None = None) -> str:
    """Serialise a fit to a JSON document: every ``FitResult`` field under its
    own name, then the optional Wald summary, then ``extra``."""
    payload = {f.name: getattr(fit, f.name) for f in fields(fit)}
    if summary_rows is not None:
        payload["summary"] = [asdict(r) for r in summary_rows]
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, default=_json_value)


def write_truth_csv(path, sim_output) -> None:
    """True per-row abundance means and latent abundances from a simulation."""
    table = sim_output.table_mean
    columns = (table.site, table.year, sim_output.true_lambda, sim_output.true_n)
    write_csv(path, ["site", "year", "lambda", "n"], zip(*(c.tolist() for c in columns)))


def sim_to_datasets(sim_output) -> tuple[Dataset, Dataset]:
    """Datasets (mean-covariate counts, survey-covariate counts) for writing."""
    return sim_output.dataset_mean, sim_output.dataset_survey
