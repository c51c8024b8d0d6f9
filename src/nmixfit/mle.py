"""Maximum likelihood fitting and Wald-style summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NmixError, NumericError
from .fitcore import (
    FitResult,
    check_designs_for_fit,
    covariance_from_log_density,
    default_start,
    maximize_log_density,
)
from .likelihood import (
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
    tables_loglik_hessian,
)
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    stacked_parameter_names,
)


def _vector(x, designs, family):
    """The stacked vector ``x`` as the parameters of a fit of ``designs``."""
    return ParameterVector.from_array(x, designs.p_lambda, designs.p_detect, family.has_dispersion)


def _fit(problems) -> list[FitResult | NmixError]:
    """Both engines' fit of each (table, designs, family, prior, start) in
    ``problems``: ML where ``prior`` is None, else the posterior mode under
    ``prior`` (a ``PriorSpec``) on the coefficient block.

    The fits run in lock-step, keyed by their index in ``problems``, and
    each step evaluates every running fit's point in one kernel pass per
    survey count (see :func:`likelihood.tables_loglik_hessian`).  Each
    entry of the result is the FitResult the problem gets alone, to the
    bit, or the NmixError that fitting it alone raises.  The optimiser is
    called through this module's names, which perfbench/tracer.py wraps.
    """
    results, starts = {}, {}
    for i, (table, designs, family, _, start) in enumerate(problems):
        try:
            check_designs_for_fit(table, designs, family)
            x0 = (default_start(table, designs, family) if start is None else start).to_array()
            _vector(x0, designs, family)
            starts[i] = x0
        except NmixError as exc:
            results[i] = exc

    def log_density_derivs(points):
        tables = []
        for i, x in points:
            table, designs, family, _, _ = problems[i]
            tables.append((_vector(x, designs, family), table, designs, family))
        evaluated = tables_loglik_hessian(tables)
        for k, (i, x) in enumerate(points):
            _, designs, _, prior, _ = problems[i]
            if prior is not None and not isinstance(evaluated[k], NumericError):
                n_coef = designs.p_lambda + designs.p_detect
                loglik, score, hess = evaluated[k]
                score[:n_coef] += prior.score(x[:n_coef])
                hess[:n_coef, :n_coef] += prior.hessian(x[:n_coef])
                evaluated[k] = loglik + prior.log_density(x[:n_coef]), score, hess
        return evaluated

    results.update(maximize_log_density(log_density_derivs, starts))
    fits = []
    for i, (_, designs, family, _, _) in enumerate(problems):
        opt = results[i]
        fits.append(opt if isinstance(opt, NmixError) else FitResult(
            estimates=_vector(opt.x, designs, family),
            covariance=covariance_from_log_density(opt.hessian),
            loglik=opt.value,
            converged=opt.converged,
            iterations=opt.iterations,
            gradient_norm=opt.gradient_norm,
            family=family,
            parameter_names=stacked_parameter_names(designs, family),
            optimizer_success=opt.success,
            optimizer_message=opt.message,
            kernel_passes=opt.passes,
        ))
    return fits


def _fit_one(table, designs, family, prior, start) -> FitResult:
    """The fit of one problem (see :func:`_fit`); raises its NmixError."""
    (result,) = _fit([(table, designs, family, prior, start)])
    if isinstance(result, NmixError):
        raise result
    return result


def fit_ml(
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    start: ParameterVector | None = None,
) -> FitResult:
    """Maximise the marginal likelihood over (beta, alpha, log_theta).

    ``designs`` must be full column rank; ``start`` defaults to the
    data-driven start.  The result's covariance is the inverse observed
    information at the mode.
    """
    return _fit_one(table, designs, family, None, start)


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    estimate: float
    se: float
    z: float
    p_value: float


def summarize_fit(fit: FitResult) -> list[ParameterSummary]:
    """Wald table: estimate, standard error, z score, two-sided normal p."""
    if fit.covariance is None:
        raise ModelError("fit carries no covariance; cannot build a summary table")
    x = fit.estimates.to_array()
    se = np.sqrt(np.diag(fit.covariance))
    rows = []
    for i, name in enumerate(fit.parameter_names):
        z = x[i] / se[i] if se[i] > 0 else math.inf
        p = math.erfc(abs(z) / math.sqrt(2.0))
        rows.append(ParameterSummary(name=name, estimate=float(x[i]), se=float(se[i]), z=float(z), p_value=float(p)))
    return rows


def format_fit_summary(fit: FitResult) -> str:
    """Human-readable fit report, grouped by linear predictor."""
    rows = summarize_fit(fit)
    p_lam = fit.estimates.beta.size
    p_det = fit.estimates.alpha.size
    sections = [("Abundance (log scale):", rows[:p_lam]),
                ("Detection (logit scale):", rows[p_lam : p_lam + p_det])]
    if fit.family.has_dispersion:
        sections.append(("Dispersion (log scale):", rows[p_lam + p_det :]))
    lines = []
    for title, block in sections:
        lines.append(title)
        lines.append(f"  {'parameter':<22} {'estimate':>12} {'se':>10} {'z':>8} {'p':>9}")
        for r in block:
            lines.append(
                f"  {r.name:<22} {r.estimate:>12.4f} {r.se:>10.4f} {r.z:>8.2f} {r.p_value:>9.4f}"
            )
        lines.append("")
    if fit.family.has_dispersion:
        theta = fit.estimates.theta
        lines.append(f"  size theta = exp(log_theta) = {theta:.4f}")
        lines.append("")
    lines.append(
        f"log-likelihood {fit.loglik:.4f}, converged={fit.converged}, "
        f"iterations={fit.iterations}, gradient norm {fit.gradient_norm:.3g}"
    )
    if not fit.optimizer_success:
        lines.append(f"optimizer did not report success: {fit.optimizer_message}")
    return "\n".join(lines)
