"""Maximum likelihood fitting and Wald-style summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .fitcore import (
    FitResult,
    check_designs_for_fit,
    covariance_from_log_density,
    default_start,
    maximize_log_density,
)
from .likelihood import (
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
    table_loglik_hessian,
)
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    stacked_parameter_names,
)


def _fit(table, designs, family, prior, start) -> FitResult:
    """Both engines' fit: ML when ``prior`` is None, else the posterior mode
    under ``prior`` (a ``PriorSpec``) on the coefficient block.  It calls
    the optimiser through this module's names, which perfbench/tracer.py wraps."""
    check_designs_for_fit(table, designs, family)
    p_lam, p_det = designs.p_lambda, designs.p_detect
    n_coef = p_lam + p_det

    def log_density_derivs(x):
        pv = ParameterVector.from_array(x, p_lam, p_det, family.has_dispersion)
        loglik, score, hess = table_loglik_hessian(pv, table, designs, family)
        if prior is None:
            return loglik, score, hess
        score[:n_coef] += prior.score(x[:n_coef])
        hess[:n_coef, :n_coef] += prior.hessian(x[:n_coef])
        return loglik + prior.log_density(x[:n_coef]), score, hess

    if start is None:
        start = default_start(table, designs, family)
    opt = maximize_log_density(log_density_derivs, start.to_array())
    return FitResult(
        estimates=ParameterVector.from_array(opt.x, p_lam, p_det, family.has_dispersion),
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
    )


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
    return _fit(table, designs, family, None, start)


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
