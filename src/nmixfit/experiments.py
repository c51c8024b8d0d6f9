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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NmixError
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

@dataclass(frozen=True)
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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_one, payloads))
    else:
        chunks = [_run_one(p) for p in payloads]
    return [record for chunk in chunks for record in chunk]


def write_bias_csv(records: list[BiasRecord], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["run", "a4_true", "model", "parameter", "truth", "estimate", "bias", "converged"]
        )
        for r in records:
            writer.writerow(
                [
                    r.run,
                    "%.17g" % r.a4_true,
                    r.model,
                    r.parameter,
                    "%.17g" % r.truth,
                    "%.17g" % r.estimate,
                    "%.17g" % r.bias,
                    str(r.converged).lower(),
                ]
            )


def read_bias_csv(path) -> list[BiasRecord]:
    """Load records previously written by write_bias_csv."""
    records = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            records.append(
                BiasRecord(
                    run=int(row["run"]),
                    a4_true=float(row["a4_true"]),
                    model=row["model"],
                    parameter=row["parameter"],
                    truth=float(row["truth"]),
                    estimate=float(row["estimate"]),
                    bias=float(row["bias"]),
                    converged=row["converged"] == "true",
                )
            )
    return records


def median_abs_bias(
    records: list[BiasRecord],
    model: str,
    parameters: tuple[str, ...] = ("alpha0", "alpha1", "alpha4"),
    a4_window: tuple[float | None, float | None] | None = None,
) -> float:
    """Median |bias| over the detection parameters of converged runs,
    optionally restricted to runs whose |a4| lies in a half-open window
    [low, high); a None endpoint leaves that side unbounded."""
    if a4_window is None:
        low, high = -math.inf, math.inf
    else:
        low = -math.inf if a4_window[0] is None else a4_window[0]
        high = math.inf if a4_window[1] is None else a4_window[1]
    values = [
        abs(r.bias)
        for r in records
        if r.model == model
        and r.parameter in parameters
        and r.converged
        and np.isfinite(r.bias)
        and low <= abs(r.a4_true) < high
    ]
    if not values:
        return float("nan")
    return float(np.median(values))
