"""Monte Carlo bias harness for the averaged-covariate detection model.

Each run draws a detection slope a4, simulates counts whose detection
probability depends on the survey-specific covariate x4, then fits two
models to those counts: one seeing only the per-(site, year) mean of x4
("averaged", misspecified whenever x4 varies between surveys) and one
seeing x4 itself ("survey", correctly specified).  Both fits start at
the replicate's generating values (``SimConfig.parameters``), as a
parametric bootstrap refits each simulated data set from the
coefficients that generated it, so neither fit depends on the other.
Where the posterior is flat, as on the negative binomial's theta = inf
ridge, a fit ends near its start, so there the bias partly reflects the
start and understates the bias of a fit from a data-driven start.
Per-parameter estimation errors, with each fit's kernel passes and
optimiser message, land in a flat record list ready for CSV export.

Failed fits are recorded with converged=False, NaN estimates, 0 kernel
passes and the error's text; a sweep never aborts because one fit
misbehaved.

The replicates are cut into groups of consecutive runs, at least one per
worker process, and the fits of a group run in lock-step, so each
optimiser step of all of them shares one kernel pass (see
:func:`mle._fit`).  Every fit's result is, to the bit, the one
``fit_laplace`` gives it alone from the generating values, so output
order and content are deterministic and independent of the grouping and
the worker count.  A group holds at most ``_GROUP_ROWS`` table rows (one
replicate at least), and keeps only each replicate's table, designs and
start, so neither a sweep's memory nor a kernel pass grows with its runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError, NmixError
from .io import write_records
from .laplace import (
    DEFAULT_PRIOR,
    fit_laplace,  # noqa: F401  perfbench/tracer.py wraps the name here; the sweep fits through _fit
)
from .mle import _fit
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

_MODELS = ("averaged", "survey")
_GROUP_ROWS = 8192  # the most table rows whose fits run in one lock-step group


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
    kernel_passes: int = 0
    optimizer_message: str = ""


def _problems(a4, sim_seed, base):
    """One replicate's two fitting problems: its survey-level table under
    the averaged and the survey detection designs, from the generating
    values, which are also the truth."""
    config = replace(base, alpha=(base.alpha[0], base.alpha[1], a4), seed=sim_seed)
    sim = simulate(config)
    return [(sim.table_survey, designs, config.family, DEFAULT_PRIOR, config.parameters)
            for designs in (sim.designs_mean, sim.designs_survey)]


def _run_group(payloads) -> list[BiasRecord]:
    """The records of a group of replicates, whose fits run in lock-step."""
    problems = [problem for _, a4, seed, base in payloads for problem in _problems(a4, seed, base)]
    labels = [(run, a4, model) for run, a4, _, _ in payloads for model in _MODELS]
    records = []
    for (run, a4, model), (*_, start), fit in zip(labels, problems, _fit(problems)):
        truths = start.to_array()
        if isinstance(fit, NmixError):
            estimates = np.full(truths.size, np.nan)
            converged, passes, message = False, 0, str(fit)
        else:
            estimates = fit.estimates.to_array()
            converged, passes, message = fit.converged, fit.kernel_passes, fit.optimizer_message
        records += [
            BiasRecord(
                run=run,
                a4_true=float(a4),
                model=model,
                parameter=label,
                truth=float(truths[i]),
                estimate=float(estimates[i]),
                bias=float(estimates[i] - truths[i]),
                converged=converged,
                kernel_passes=passes,
                optimizer_message=message,
            )
            for i, label in enumerate(_PARAM_LABELS)
        ]
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
        raise ModelError("runs must be at least 1")
    if workers < 1:
        raise ModelError("workers must be at least 1")
    if base.theta is None:
        raise ModelError("the bias experiment requires a dispersion parameter")
    a4_stream, seed_stream = np.random.SeedSequence(seed).spawn(2)
    a4_values = np.random.default_rng(a4_stream).uniform(-3.0, 3.0, size=runs)
    sim_seeds = np.random.default_rng(seed_stream).integers(0, 2**63 - 1, size=runs)
    payloads = [
        (run, float(a4_values[run]), int(sim_seeds[run]), base) for run in range(runs)
    ]
    # a fork-started pool starts all its workers at once: no more than tasks
    workers = min(workers, runs)
    per_group = max(_GROUP_ROWS // (len(_MODELS) * base.n_sites * base.n_years), 1)
    # a multiple of the workers, so each takes as many groups
    n_groups = min(runs, workers * -(-runs // (per_group * workers)))
    # consecutive runs, the group sizes differing by one at most
    ends = [runs * k // n_groups for k in range(n_groups + 1)]
    groups = [payloads[a:b] for a, b in zip(ends, ends[1:])]
    if workers > 1:
        # imported here: the pool's modules cost a CLI process about 15 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_group, groups))
    else:
        chunks = [_run_group(g) for g in groups]
    return [record for chunk in chunks for record in chunk]


def write_bias_csv(records: list[BiasRecord], path) -> None:
    write_records(path, records, BiasRecord)


def total_kernel_passes(records: list[BiasRecord]) -> int:
    """Kernel passes of all the fits behind ``records``: every record of a
    fit carries its count, so each (run, model) is counted once."""
    return sum({(r.run, r.model): r.kernel_passes for r in records}.values())


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
