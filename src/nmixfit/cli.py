"""Command line interface.

Subcommands: simulate, fit, lambda-fitted, posterior-n, bias-experiment.
Every invocation is deterministic given --seed.  Exit codes: 0 success,
2 unreadable input or bad usage, 3 invalid model specification,
4 numeric failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np
from scipy.special import expit

from . import __version__
from .errors import DataError, ModelError, NmixError, NumericError
from .experiments import median_abs_bias, run_bias_experiment, write_bias_csv
from .fitcore import FitOptions
from .io import (
    build_designs,
    fit_to_json,
    parse_config,
    read_dataset,
    sim_to_datasets,
    write_dataset,
    write_truth_csv,
)
from .laplace import (
    PriorSpec,
    fit_laplace,
    lambda_fitted,
    posterior_n,
    sample_posterior,
)
from .mle import fit_ml, format_fit_summary, summarize_fit
from .model import MixtureFamily, P_CLAMP
from .simulate import SimConfig, simulate

_CONFIG_KEYS = {
    "dataset": str,
    "family": str,
    "engine": str,
    "lambda-covariates": str,
    "p-covariates": str,
    "prior-mean": float,
    "prior-precision": float,
    "samples": int,
    "row": int,
    "n-grid-max": int,
    "seed": int,
    "threads": int,
    "output-dir": str,
    "sites": int,
    "surveys": int,
    "years": int,
    "beta": str,
    "alpha": str,
    "theta": float,
    "runs": int,
}


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--threads", type=int, default=None, help="worker processes")
    parser.add_argument("--output-dir", default=None, help="directory for output files")
    parser.add_argument("--config", default=None, help="key = value config file")


def _fit_flags(parser):
    parser.add_argument("--dataset", default=None, help="dataset CSV path")
    parser.add_argument("--family", choices=["poisson", "nb"], default=None)
    parser.add_argument("--engine", choices=["ml", "laplace"], default=None)
    parser.add_argument(
        "--lambda-covariates",
        default=None,
        help="comma-separated abundance covariates (default: intercept only)",
    )
    parser.add_argument(
        "--p-covariates",
        default=None,
        help="comma-separated detection covariates (default: intercept only)",
    )
    parser.add_argument("--prior-mean", type=float, default=None)
    parser.add_argument("--prior-precision", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmixfit",
        description="Fit N-mixture abundance models to repeated count data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known truth")
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--surveys", type=int, default=None)
    p.add_argument("--years", type=int, default=None)
    p.add_argument("--beta", default=None, help="b0,b1,b2,b3 (default 2,2,-3,1)")
    p.add_argument("--alpha", default=None, help="a0,a1,a4 (default 1,-2,1)")
    p.add_argument("--family", choices=["poisson", "nb"], default=None)
    p.add_argument("--theta", type=float, default=None, help="dispersion (default 3)")
    _common_flags(p)

    p = sub.add_parser("fit", help="fit a model to a dataset CSV")
    _fit_flags(p)
    p.add_argument("--skip-covariance", action="store_true")
    _common_flags(p)

    p = sub.add_parser(
        "lambda-fitted", help="posterior summaries of each row's abundance mean"
    )
    _fit_flags(p)
    p.add_argument("--samples", type=int, default=None, help="posterior draws (default 4000)")
    _common_flags(p)

    p = sub.add_parser(
        "posterior-n", help="posterior distribution of one row's latent abundance"
    )
    _fit_flags(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--row", type=int, default=None, help="1-based row index (default 1)")
    p.add_argument(
        "--n-grid-max", type=int, default=None,
        help="optional ceiling on N: the pmf is zero-padded to it; mass past it is an error",
    )
    _common_flags(p)

    p = sub.add_parser("bias-experiment", help="Monte Carlo bias sweep over a4")
    p.add_argument("--runs", type=int, default=None, help="replicates (default 50)")
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--surveys", type=int, default=None)
    p.add_argument("--years", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    _common_flags(p)

    return parser


def _merge_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    cfg = parse_config(args.config)
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if hasattr(args, dest) and getattr(args, dest) is None:
            try:
                setattr(args, dest, _CONFIG_KEYS[key](value))
            except ValueError:
                raise DataError(f"config key {key!r}: cannot parse {value!r}") from None


def _default(args, name, value):
    if getattr(args, name, None) is None:
        setattr(args, name, value)


def _split_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_floats(text: str, expected: int, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DataError(f"--{flag} must be comma-separated numbers, got {text!r}") from None
    if len(values) != expected:
        raise DataError(f"--{flag} needs exactly {expected} values, got {len(values)}")
    return values


def _out_path(args, filename: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, filename)


def _cmd_simulate(args) -> int:
    _default(args, "family", "nb")
    theta = None if args.family == "poisson" else (args.theta if args.theta is not None else 3.0)
    config = SimConfig(
        n_sites=args.sites if args.sites is not None else 72,
        n_surveys=args.surveys if args.surveys is not None else 3,
        n_years=args.years if args.years is not None else 9,
        beta=_parse_floats(args.beta, 4, "beta") if args.beta else (2.0, 2.0, -3.0, 1.0),
        alpha=_parse_floats(args.alpha, 3, "alpha") if args.alpha else (1.0, -2.0, 1.0),
        theta=theta,
        seed=args.seed,
    )
    sim = simulate(config)
    mean_ds, survey_ds = sim_to_datasets(sim)
    paths = {
        "mean": _out_path(args, "sim_counts_mean.csv"),
        "survey": _out_path(args, "sim_counts_survey.csv"),
        "truth": _out_path(args, "sim_truth.csv"),
    }
    write_dataset(mean_ds, paths["mean"])
    write_dataset(survey_ds, paths["survey"])
    write_truth_csv(paths["truth"], sim)
    print(
        f"simulated {sim.table_mean.n_rows} rows "
        f"({config.n_sites} sites x {config.n_years} years, {config.n_surveys} surveys)"
    )
    for label, path in paths.items():
        print(f"  {label}: {path}")
    return 0


def _prepare_fit(args):
    if args.dataset is None:
        raise DataError("--dataset is required (flag or config)")
    if args.engine is None:
        raise DataError("--engine is required: ml or laplace")
    _default(args, "family", "nb")
    _default(args, "prior_mean", 0.0)
    _default(args, "prior_precision", 0.01)
    dataset = read_dataset(args.dataset)
    table, designs, notes = build_designs(
        dataset, _split_names(args.lambda_covariates), _split_names(args.p_covariates)
    )
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return table, designs, MixtureFamily(args.family)


def _run_engine(args, table, designs, family, compute_covariance=True):
    options = FitOptions(compute_covariance=compute_covariance)
    start = time.perf_counter()
    if args.engine == "ml":
        fit = fit_ml(table, designs, family, options=options)
    else:
        priors = PriorSpec(
            normal_mean=args.prior_mean, normal_precision=args.prior_precision
        )
        fit = fit_laplace(table, designs, family, priors=priors, options=options)
    elapsed = time.perf_counter() - start
    return fit, elapsed


def _cmd_fit(args) -> int:
    table, designs, family = _prepare_fit(args)
    fit, elapsed = _run_engine(
        args, table, designs, family, compute_covariance=not args.skip_covariance
    )
    summary = summarize_fit(fit) if fit.covariance is not None else None
    path = _out_path(args, "fit.json")
    extra = {
        "engine": args.engine,
        "dataset": args.dataset,
        "n_rows": table.n_rows,
        "n_surveys": table.n_surveys,
        "wallclock_seconds": elapsed,
    }
    with open(path, "w") as handle:
        handle.write(fit_to_json(fit, summary, extra))
        handle.write("\n")
    if summary is not None:
        print(format_fit_summary(fit))
    else:
        print(
            f"estimates: {np.array2string(fit.estimates.to_array(), precision=6)}\n"
            f"converged={fit.converged}, no covariance computed"
        )
    print(f"fit written to {path} ({elapsed:.2f} s)")
    return 0


def _posterior_samples(args, table, designs, family):
    if args.engine != "laplace":
        raise ModelError("posterior summaries need --engine laplace")
    fit, elapsed = _run_engine(args, table, designs, family)
    _default(args, "samples", 4000)
    if args.samples < 1:
        raise ModelError("--samples must be positive")
    samples = sample_posterior(fit, args.samples, args.seed)
    return fit, samples, elapsed


def _cmd_lambda_fitted(args) -> int:
    table, designs, family = _prepare_fit(args)
    fit, samples, elapsed = _posterior_samples(args, table, designs, family)
    rows = lambda_fitted(samples, designs)
    path = _out_path(args, "lambda_fitted.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "mean", "sd", "q025", "median", "q975"])
        for r in rows:
            writer.writerow(
                [r.index] + ["%.17g" % v for v in (r.mean, r.sd, r.q025, r.median, r.q975)]
            )
    medians = np.array([r.median for r in rows])
    print(
        f"lambda summaries for {len(rows)} rows written to {path}\n"
        f"posterior medians: min {medians.min():.4g}, median {np.median(medians):.4g}, "
        f"max {medians.max():.4g} (fit {elapsed:.2f} s)"
    )
    return 0


def _cmd_posterior_n(args) -> int:
    table, designs, family = _prepare_fit(args)
    _default(args, "row", 1)
    if not 1 <= args.row <= table.n_rows:
        raise ModelError(f"--row must lie in 1..{table.n_rows}")
    fit, samples, elapsed = _posterior_samples(args, table, designs, family)
    idx = args.row - 1
    observed = table.mask[idx]
    y_row = np.asarray(table.counts[idx])[observed]
    design_row = np.asarray(designs.detection_design[idx])[observed]
    eta_p = samples.alpha_draws() @ design_row.T
    p_draws = np.clip(expit(eta_p), P_CLAMP, 1.0 - P_CLAMP)
    eta_lam = samples.beta_draws() @ np.asarray(designs.abundance_design[idx])
    lam_draws = np.exp(np.clip(eta_lam, None, 700.0))
    log_theta = samples.log_theta_draws()
    theta_draws = None if log_theta is None else np.exp(np.clip(log_theta, -700.0, 700.0))
    probs = posterior_n(
        y_row, lam_draws, p_draws, theta_draws=theta_draws, n_grid_max=args.n_grid_max
    )
    grid = np.arange(int(y_row.max()), int(y_row.max()) + probs.size)
    path = _out_path(args, "posterior_n.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "probability"])
        for n, prob in zip(grid, probs):
            writer.writerow([int(n), "%.17g" % prob])
    mean_n = float(np.sum(grid * probs))
    mode_n = int(grid[np.argmax(probs)])
    print(
        f"posterior of N for row {args.row} written to {path}\n"
        f"counts {np.asarray(y_row, dtype=int).tolist()}, posterior mean {mean_n:.2f}, "
        f"mode {mode_n} (fit {elapsed:.2f} s)"
    )
    return 0


def _cmd_bias_experiment(args) -> int:
    _default(args, "runs", 50)
    config = SimConfig(
        n_sites=args.sites if args.sites is not None else 72,
        n_surveys=args.surveys if args.surveys is not None else 3,
        n_years=args.years if args.years is not None else 9,
        theta=args.theta if args.theta is not None else 3.0,
    )
    records = run_bias_experiment(
        runs=args.runs, seed=args.seed, workers=args.threads, base=config
    )
    path = _out_path(args, "bias_experiment.csv")
    write_bias_csv(records, path)
    print(f"{len(records)} records from {args.runs} runs written to {path}")
    for model in ("averaged", "survey"):
        strong = median_abs_bias(records, model, a4_window=(2.0, np.inf))
        weak = median_abs_bias(records, model, a4_window=(0.0, 1.0))
        print(
            f"  {model:>8} model: median |bias| of detection parameters "
            f"for |a4|>2: {strong:.4f}, for |a4|<1: {weak:.4f}"
        )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "lambda-fitted": _cmd_lambda_fitted,
    "posterior-n": _cmd_posterior_n,
    "bias-experiment": _cmd_bias_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        _default(args, "seed", 0)
        _default(args, "threads", 1)
        _default(args, "output_dir", ".")
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
