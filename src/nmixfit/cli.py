"""Command line interface.

Subcommands: simulate, fit, lambda-fitted, posterior-n, bias-experiment.
Every invocation is deterministic given --seed.  Exit codes: 0 success,
2 unreadable input or bad usage, 3 invalid model specification,
4 numeric failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import DataError, ModelError, NmixError, NumericError
from .experiments import (
    median_abs_bias,
    run_bias_experiment,
    total_kernel_passes,
    write_bias_csv,
)
from .io import (
    build_designs,
    fit_to_json,
    open_output,
    parse_config,
    read_dataset,
    sim_to_datasets,
    write_csv,
    write_dataset,
    write_records,
    write_truth_csv,
)
from .laplace import (
    LambdaFittedSummary,
    PriorSpec,
    fit_laplace,
    lambda_fitted,
    sample_posterior,
)
from .likelihood import posterior_n
from .mle import fit_ml, format_fit_summary, summarize_fit
from .model import MixtureFamily, lambda_from_predictor, p_from_predictor
from .simulate import SimConfig, simulate


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--output-dir", default=None, help="directory for output files")
    parser.add_argument("--config", default=None, help="key = value config file")


def _sim_flags(parser):
    """The simulation design flags shared by simulate and bias-experiment."""
    for flag in ("--sites", "--surveys", "--years"):
        parser.add_argument(flag, type=_positive_int, default=None)
    parser.add_argument(
        "--theta", type=float, default=None, help=f"dispersion (default {SimConfig().theta:g})"
    )


def _fit_flags(parser, engines=("ml", "laplace")):
    """The flags of the fitting subcommands; the posterior ones imply laplace."""
    parser.add_argument("--dataset", default=None, help="dataset CSV path")
    parser.add_argument("--family", choices=["poisson", "nb"], default=None)
    parser.add_argument("--engine", choices=engines, default=None)
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
    sim = SimConfig()
    runs = inspect.signature(run_bias_experiment).parameters["runs"].default
    parser = argparse.ArgumentParser(
        prog="nmixfit",
        description="Fit N-mixture abundance models to repeated count data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known truth")
    _sim_flags(p)
    negative = "; a negative first value needs --%s=-1,... or a config file"
    p.add_argument("--beta", help="b0,b1,b2,b3 (default %g,%g,%g,%g)" % sim.beta + negative % "beta")
    p.add_argument("--alpha", help="a0,a1,a4 (default %g,%g,%g)" % sim.alpha + negative % "alpha")
    p.add_argument("--family", choices=["poisson", "nb"], default=None)
    _common_flags(p)

    p = sub.add_parser("fit", help="fit a model to a dataset CSV")
    _fit_flags(p)
    _common_flags(p)

    p = sub.add_parser(
        "lambda-fitted", help="posterior summaries of each row's abundance mean"
    )
    _fit_flags(p, engines=("laplace",))
    p.add_argument(
        "--samples",
        type=_positive_int,
        default=None,
        help="ignored: the summaries are exact, so neither --samples nor --seed changes them",
    )
    _common_flags(p)

    p = sub.add_parser(
        "posterior-n", help="posterior distribution of one row's latent abundance"
    )
    _fit_flags(p, engines=("laplace",))
    p.add_argument("--samples", type=_positive_int, default=None, help="posterior draws (default 4000)")
    p.add_argument("--row", type=_positive_int, default=None, help="1-based data row (default 1)")
    _common_flags(p)

    p = sub.add_parser("bias-experiment", help="Monte Carlo bias sweep over a4")
    p.add_argument("--runs", type=_positive_int, default=None, help=f"replicates (default {runs})")
    _sim_flags(p)
    p.add_argument("--threads", type=_positive_int, default=None, help="worker processes")
    _common_flags(p)

    return parser


def _flag_actions(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's flags, keyed by config key: the long flag without its dashes."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            action.option_strings[0][2:]: action
            for action in subparser._actions
            if action.dest not in ("help", "config")
        }
        for command, subparser in sub.choices.items()
    }


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill the flags left unset from ``--config``, checked by each flag's own
    ``type`` and ``choices``; keys of other subcommands are ignored."""
    if not getattr(args, "config", None):
        return
    cfg = parse_config(args.config)
    flags = _flag_actions(parser)
    unknown = set(cfg).difference(*flags.values())
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
    own = flags[args.command]
    for key, value in cfg.items():
        action = own.get(key)
        if action is None or getattr(args, action.dest) is not None:
            continue
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            raise DataError(f"config key {key!r}: cannot parse {value!r}") from None
        except argparse.ArgumentTypeError as exc:
            raise DataError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise DataError(
                f"config key {key!r}: {value!r} is not one of {', '.join(action.choices)}"
            )
        setattr(args, action.dest, value)


def _default(args, name, value):
    if getattr(args, name, None) is None:
        setattr(args, name, value)


def _given(**values) -> dict:
    """The keyword arguments whose value was set (not None)."""
    return {key: value for key, value in values.items() if value is not None}


def _sim_config(args, **values) -> SimConfig:
    """``SimConfig()`` with only the flags given replaced."""
    flags = dict(n_sites=args.sites, n_surveys=args.surveys, n_years=args.years, theta=args.theta)
    return replace(SimConfig(), **_given(**flags, **values))


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


def _cmd_simulate(args) -> int:
    _default(args, "family", "nb")
    if args.family == "poisson" and args.theta is not None:
        raise DataError("--theta and --family poisson (flag or config) conflict: the Poisson has no dispersion")
    config = _sim_config(
        args,
        beta=_parse_floats(args.beta, 4, "beta") if args.beta else None,
        alpha=_parse_floats(args.alpha, 3, "alpha") if args.alpha else None,
        seed=args.seed,
    )
    if args.family == "poisson":
        config = replace(config, theta=None)
    sim = simulate(config)
    mean_ds, survey_ds = sim_to_datasets(sim)
    names = {"mean": "sim_counts_mean.csv", "survey": "sim_counts_survey.csv", "truth": "sim_truth.csv"}
    paths = {label: os.path.join(args.output_dir, name) for label, name in names.items()}
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
    _default(args, "family", "nb")
    dataset = read_dataset(args.dataset)
    table, designs, notes, kept = build_designs(
        dataset, _split_names(args.lambda_covariates), _split_names(args.p_covariates)
    )
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return table, designs, MixtureFamily(args.family), kept


def _run_engine(args, table, designs, family):
    start = time.perf_counter()
    if args.engine == "ml":
        fit = fit_ml(table, designs, family)
    else:
        given = _given(normal_mean=args.prior_mean, normal_precision=args.prior_precision)
        fit = fit_laplace(table, designs, family, priors=replace(PriorSpec(), **given))
    elapsed = time.perf_counter() - start
    return fit, elapsed


def _cmd_fit(args) -> int:
    if args.engine is None:
        raise DataError("--engine is required: ml or laplace")
    for flag, value in (("--prior-mean", args.prior_mean), ("--prior-precision", args.prior_precision)):
        if args.engine == "ml" and value is not None:
            raise DataError(f"{flag} (flag or config) sets a prior, which only --engine laplace has")
    table, designs, family, _ = _prepare_fit(args)
    fit, elapsed = _run_engine(args, table, designs, family)
    summary = summarize_fit(fit) if fit.covariance is not None else None
    path = os.path.join(args.output_dir, "fit.json")
    extra = {
        "engine": args.engine,
        "dataset": args.dataset,
        "n_rows": table.n_rows,
        "n_surveys": table.n_surveys,
        "wallclock_seconds": elapsed,
    }
    with open_output(path) as handle:
        handle.write(fit_to_json(fit, summary, extra) + "\n")
    if summary is not None:
        print(format_fit_summary(fit))
    else:
        print(
            f"estimates: {np.array2string(fit.estimates.to_array(), precision=6)}\n"
            f"converged={fit.converged}; no covariance: the curvature at the mode "
            "is not positive definite"
        )
    print(f"fit written to {path} ({elapsed:.2f} s)")
    return 0


def _cmd_lambda_fitted(args) -> int:
    table, designs, family, kept = _prepare_fit(args)
    fit, elapsed = _run_engine(args, table, designs, family)
    # number each summary by its data row, not its design row
    rows = [
        replace(r, index=int(k))
        for r, k in zip(lambda_fitted(fit, designs), np.flatnonzero(kept) + 1)
    ]
    path = os.path.join(args.output_dir, "lambda_fitted.csv")
    write_records(path, rows, LambdaFittedSummary)
    medians = np.array([r.median for r in rows])
    print(
        f"lambda summaries for {len(rows)} rows written to {path}\n"
        f"posterior medians: min {medians.min():.4g}, median {np.median(medians):.4g}, "
        f"max {medians.max():.4g} (fit {elapsed:.2f} s)"
    )
    return 0


def _row_draws(samples, table, designs, idx):
    """Row ``idx``'s observed counts and its lambda, p and theta under each
    posterior draw, through the model's links."""
    observed = table.mask[idx]
    lam = lambda_from_predictor(
        samples.beta_draws() @ np.asarray(designs.abundance_design[idx]), units=("draw",)
    )
    # one small product per draw; each cell is the same k-term dot product
    # as in detection_probs' one 2-D product, and equals it to the bit
    eta_p = np.asarray(designs.detection_design[idx]) @ samples.alpha_draws()[:, :, None]
    p = p_from_predictor(eta_p[:, observed, 0])
    log_theta = samples.log_theta_draws()
    theta = None if log_theta is None else np.exp(np.clip(log_theta, -700.0, 700.0))
    return np.asarray(table.counts[idx])[observed], lam, p, theta


def _cmd_posterior_n(args) -> int:
    table, designs, family, kept = _prepare_fit(args)
    _default(args, "row", 1)
    if args.row > kept.size:
        raise DataError(f"--row must lie in 1..{kept.size}, the data rows of {args.dataset}")
    if not kept[args.row - 1]:
        raise DataError(f"--row {args.row}: that data row was dropped, as it has no usable survey")
    idx = int(np.count_nonzero(kept[: args.row - 1]))
    fit, elapsed = _run_engine(args, table, designs, family)
    _default(args, "samples", 4000)
    samples = sample_posterior(fit, args.samples, args.seed)
    y_row, lam_draws, p_draws, theta_draws = _row_draws(samples, table, designs, idx)
    probs = posterior_n(y_row, lam_draws, p_draws, theta_draws=theta_draws)
    grid = np.arange(int(y_row.max()), int(y_row.max()) + probs.size)
    path = os.path.join(args.output_dir, "posterior_n.csv")
    write_csv(path, ["n", "probability"], zip(grid.tolist(), probs.tolist()))
    mean_n = float(np.sum(grid * probs))
    mode_n = int(grid[np.argmax(probs)])
    print(
        f"posterior of N for row {args.row} (site {table.site[idx]}, year {table.year[idx]}) "
        f"written to {path}\n"
        f"counts {np.asarray(y_row, dtype=int).tolist()}, posterior mean {mean_n:.2f}, "
        f"mode {mode_n} (fit {elapsed:.2f} s)"
    )
    return 0


def _cmd_bias_experiment(args) -> int:
    records = run_bias_experiment(
        seed=args.seed, base=_sim_config(args), **_given(runs=args.runs, workers=args.threads)
    )
    path = os.path.join(args.output_dir, "bias_experiment.csv")
    write_bias_csv(records, path)
    print(
        f"{len(records)} records from {records[-1].run + 1} runs written to {path}; "
        f"the fits took {total_kernel_passes(records)} kernel passes"
    )
    for model in ("averaged", "survey"):
        strong = median_abs_bias(records, model, a4_window=(2.0, np.inf))
        weak = median_abs_bias(records, model, a4_window=(0.0, 1.0))
        print(
            f"  {model:>8} model: median |bias| of detection parameters "
            f"for |a4|>2: {strong:.4f}, for |a4|<1: {weak:.4f}"
        )
    return 0


_EXIT_CODES = ((DataError, 2), (ModelError, 3), (NumericError, 4))

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
        _merge_config(args, parser)
        _default(args, "seed", 0)
        _default(args, "output_dir", ".")
        return _COMMANDS[args.command](args)
    except NmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
