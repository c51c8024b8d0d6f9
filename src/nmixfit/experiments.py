"""Monte Carlo bias harness for the averaged-covariate detection model.

Each run draws a detection slope a4, simulates counts whose detection
probability depends on the survey-specific covariate x4, then fits two
models to those counts: one seeing only the per-(site, year) mean of x4
("averaged", misspecified whenever x4 varies between surveys) and one
seeing x4 itself ("survey", correctly specified).  Per-parameter
estimation errors land in a flat record list ready for CSV export.

Failed fits are recorded with converged=False and NaN estimates; a
sweep never aborts because one replicate misbehaved.  Output order is
deterministic and independent of the worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError, NmixError
from .io import write_records
from .laplace import fit_laplace
from .simulate import SimConfig, simulate

_PARAM_LABELS = (
    "beta0",
    "beta1",
    "beta2",
    "beta3",
    "alpha0",
    "alpha1",
    "alpha4",
    "log_theta",
)

@dataclass(frozen=True, slots=True)
class BiasRecord:
    run: int
    a4_true: float
    model: str
    parameter: str
    truth: float
    estimate: float
    bias: float
    converged: bool


def _run_one(args) -> list[BiasRecord]:
    run, a4, sim_seed, base = args
    config = replace(base, alpha=(base.alpha[0], base.alpha[1], a4), seed=sim_seed)
    sim = simulate(config)
    truths = np.array(list(config.beta) + list(config.alpha) + [np.log(config.theta)])
    records = []
    # the models share their parameter layout: the survey fit starts at the
    # averaged fit's optimum when that fit converged, else at the default
    start = None
    for model, designs in (
        ("averaged", sim.designs_mean),
        ("survey", sim.designs_survey),
    ):
        try:
            fit = fit_laplace(sim.table_survey, designs, config.family, start=start)
            estimates = fit.estimates.to_array()
            converged = fit.converged
            start = fit.estimates if converged else None
        except NmixError:
            estimates = np.full(truths.size, np.nan)
            converged = False
        for i, label in enumerate(_PARAM_LABELS):
            records.append(
                BiasRecord(
                    run=run,
                    a4_true=float(a4),
                    model=model,
                    parameter=label,
                    truth=float(truths[i]),
                    estimate=float(estimates[i]),
                    bias=float(estimates[i] - truths[i]),
                    converged=converged,
                )
            )
    return records


def run_bias_experiment(
    runs: int = 50,
    seed: int = 0,
    workers: int = 1,
    base: SimConfig = SimConfig(),
) -> list[BiasRecord]:
    """Run the sweep, a4 drawn uniformly from [-3, 3) for each run, and
    return records ordered by (run, model, parameter)."""
    if runs < 1:
        raise NmixError("runs must be at least 1")
    if base.theta is None:
        raise NmixError("the bias experiment requires a dispersion parameter")
    a4_stream, seed_stream = np.random.SeedSequence(seed).spawn(2)
    a4_values = np.random.default_rng(a4_stream).uniform(-3.0, 3.0, size=runs)
    sim_seeds = np.random.default_rng(seed_stream).integers(0, 2**63 - 1, size=runs)
    payloads = [
        (run, float(a4_values[run]), int(sim_seeds[run]), base) for run in range(runs)
    ]
    # a fork-started pool starts all its workers at once: no more than tasks
    workers = min(workers, runs)
    if workers > 1:
        # imported here: the pool's modules cost a CLI process about 15 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_one, payloads))
    else:
        chunks = [_run_one(p) for p in payloads]
    return [record for chunk in chunks for record in chunk]


def write_bias_csv(records: list[BiasRecord], path) -> None:
    write_records(path, records, BiasRecord)


# a parser per field type; a failed fit's estimate and bias are empty cells
_READ_CELL = {
    "int": int,
    "float": lambda text: float(text or "nan"),
    "str": str,
    "bool": {"true": True, "false": False}.__getitem__,
}


def read_bias_csv(path) -> list[BiasRecord]:
    """Load records previously written by write_bias_csv; DataError names
    the file, and the line and column of a cell that does not parse."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read bias CSV {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        missing = [f.name for f in fields(BiasRecord) if f.name not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"bias CSV {path} lacks the column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            cells = {}
            for f in fields(BiasRecord):
                try:
                    cells[f.name] = _READ_CELL[f.type](row[f.name])
                except (KeyError, TypeError, ValueError):
                    raise DataError(
                        f"bias CSV {path}, line {reader.line_num}: cannot parse "
                        f"{f.name}={row[f.name]!r} as {f.type}"
                    ) from None
            records.append(BiasRecord(**cells))
    return records


def median_abs_bias(
    records: list[BiasRecord], model: str, a4_window: tuple[float, float] = (0.0, math.inf)
) -> float:
    """Median |bias| over the detection parameters (alpha0, alpha1, alpha4)
    of converged runs whose |a4| lies in the half-open window [low, high);
    the default takes all."""
    low, high = a4_window
    values = [
        abs(r.bias)
        for r in records
        if r.model == model
        and r.parameter in ("alpha0", "alpha1", "alpha4")
        and r.converged
        and np.isfinite(r.bias)
        and low <= abs(r.a4_true) < high
    ]
    if not values:
        return float("nan")
    return float(np.median(values))
