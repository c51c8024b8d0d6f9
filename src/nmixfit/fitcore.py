"""Shared optimisation machinery for the ML and Laplace fitting engines.

Both engines maximise a smooth log density over the stacked parameter
vector (beta, alpha, log_theta), given as one function that returns the
value and its exact gradient (the score) from a single kernel pass.
BFGS runs on that pair, and convergence is judged by the score at the
returned point.  The covariance is the inverse negative Hessian
at the mode, taken from central differences of the score: 2n score
passes for n parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ModelError, NumericError
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
)


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the optimiser; the defaults suit tables of a few hundred rows."""

    max_iterations: int = 500
    gradient_tol: float = 1e-5
    convergence_gradient_norm: float = 1e-4
    compute_covariance: bool = True


DEFAULT_FIT_OPTIONS = FitOptions()


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: mode, curvature, and convergence diagnostics.

    ``loglik`` is the maximised objective: the log-likelihood for the ML
    engine, the log posterior kernel for the Laplace engine.
    ``covariance`` is None when the curvature at the mode was not
    positive definite or covariance computation was switched off.
    ``converged`` judges the score at the mode; ``optimizer_success`` and
    ``optimizer_message`` are BFGS's own verdict and termination message.
    """

    estimates: ParameterVector
    covariance: np.ndarray | None
    loglik: float
    converged: bool
    iterations: int
    gradient_norm: float
    family: MixtureFamily
    parameter_names: tuple[str, ...]
    optimizer_success: bool = True
    optimizer_message: str = ""

    @property
    def n_params(self) -> int:
        return self.estimates.n_params


def _column_rank_report(matrix: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """Names of columns beyond the numerical rank, empty if full rank."""
    _, r, pivot = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return list(names)
    tol = max(matrix.shape) * np.finfo(float).eps * diag[0]
    rank = int(np.sum(diag > tol))
    return [names[i] for i in pivot[rank:]]


def check_designs_for_fit(
    table: ObservationTable, designs: DesignMatrices, family: MixtureFamily
) -> None:
    """Reject under-determined or rank-deficient fitting problems."""
    if designs.n_rows != table.n_rows or designs.n_surveys != table.n_surveys:
        raise ModelError(
            "designs and table disagree on shape: "
            f"designs ({designs.n_rows} rows, {designs.n_surveys} surveys) vs "
            f"table ({table.n_rows} rows, {table.n_surveys} surveys)"
        )
    n_params = designs.p_lambda + designs.p_detect + (1 if family.has_dispersion else 0)
    if table.n_rows < n_params:
        raise ModelError(
            f"{n_params} parameters but only {table.n_rows} rows; the fit is under-determined"
        )
    a_names = designs.abundance_names or tuple(f"x{i}" for i in range(designs.p_lambda))
    bad = _column_rank_report(np.asarray(designs.abundance_design), a_names)
    if bad:
        raise ModelError(
            "abundance design is rank deficient; collinear columns: " + ", ".join(bad)
        )
    d_names = designs.detection_names or tuple(f"x{i}" for i in range(designs.p_detect))
    stacked = np.asarray(designs.detection_design)[table.mask]
    bad = _column_rank_report(stacked, d_names)
    if bad:
        raise ModelError(
            "detection design is rank deficient over the observed cells; "
            "collinear columns: " + ", ".join(bad)
        )


def _guarded(log_density_and_score):
    """Negated value and gradient; invalid regions report +inf."""

    def neg(x):
        try:
            value, grad = log_density_and_score(x)
        except NumericError:
            value = np.inf
        if not np.isfinite(value):
            return np.inf, np.full(x.size, np.nan)
        return -value, -np.asarray(grad, dtype=float)

    return neg


class Optimum(NamedTuple):
    """Outcome of :func:`maximize_log_density`."""

    x: np.ndarray
    value: float
    converged: bool
    iterations: int
    gradient_norm: float
    success: bool
    message: str


def maximize_log_density(log_density_and_score, x0: np.ndarray, options: FitOptions) -> Optimum:
    """Maximise a log density from ``x0`` by BFGS on its exact gradient.

    ``log_density_and_score(x)`` returns (value, gradient).  The result's
    gradient_norm is the infinity norm of the gradient at the returned
    point, from BFGS's own last evaluation; ``converged`` compares it
    with ``options.convergence_gradient_norm``.
    """
    with np.errstate(all="ignore"):
        res = scipy.optimize.minimize(
            _guarded(log_density_and_score),
            np.asarray(x0, dtype=float),
            jac=True,
            method="BFGS",
            options={"gtol": options.gradient_tol, "maxiter": options.max_iterations},
        )
    # every accepted line-search step lowers the objective, so the result
    # is finite unless the starting point already was not
    if not np.isfinite(res.fun):
        raise NumericError("objective is not finite at the starting point")
    gnorm = float(np.max(np.abs(res.jac)))
    return Optimum(
        x=res.x,
        value=-float(res.fun),
        converged=bool(gnorm < options.convergence_gradient_norm),
        iterations=int(res.nit),
        gradient_norm=gnorm,
        success=bool(res.success),
        message=str(res.message),
    )


def covariance_from_log_density(log_density_and_score, x_hat: np.ndarray) -> np.ndarray | None:
    """Covariance as the inverse negative Hessian, or None when not usable.

    The Hessian comes from central differences of the score, with steps
    1e-5 * max(1, |x_i|), symmetrised.  None signals curvature
    that is singular or not positive definite at the mode; callers
    surface this as a fit without standard errors rather than an error.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    n = x_hat.size
    neg_hess = np.empty((n, n))
    try:
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = 1e-5 * max(1.0, abs(x_hat[i]))
            _, g_up = log_density_and_score(x_hat + shift)
            _, g_down = log_density_and_score(x_hat - shift)
            neg_hess[i] = (np.asarray(g_down) - np.asarray(g_up)) / (2.0 * shift[i])
    except NumericError:
        return None
    neg_hess = 0.5 * (neg_hess + neg_hess.T)
    if not np.all(np.isfinite(neg_hess)):
        return None
    eigval, eigvec = np.linalg.eigh(neg_hess)
    if np.any(eigval <= 0.0):
        return None
    cov = (eigvec / eigval) @ eigvec.T
    return 0.5 * (cov + cov.T)


def default_start(
    table: ObservationTable, designs: DesignMatrices, family: MixtureFamily
) -> ParameterVector:
    """Starting point: intercept at log(mean(row max) + 0.5), all else zero."""
    beta = np.zeros(designs.p_lambda)
    beta[0] = np.log(float(np.mean(table.row_max())) + 0.5)
    alpha = np.zeros(designs.p_detect)
    log_theta = 0.0 if family.has_dispersion else None
    return ParameterVector(beta=beta, alpha=alpha, log_theta=log_theta)
