"""Shared optimisation machinery for the ML and Laplace fitting engines.

Both engines maximise a smooth log density over the stacked parameter
vector (beta, alpha, log_theta), given as one function that returns the
value, its exact gradient (the score) and its exact Hessian from a
single kernel pass.  scipy's ``trust-exact`` (Newton steps in a trust
region, safe where the Hessian is indefinite) runs on that triple, and
convergence is judged by the score at the returned point.  The
covariance is the inverse negative Hessian at the mode, which the last
pass already computed, so every fit gets one at no extra pass.  Fits
take no settings: the optimiser's limits are the constants below.
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


# trust-exact's limits (its gtol bounds the gradient's 2-norm), and the
# gradient infinity norm below which a fit counts as converged
_MAX_ITERATIONS, _GRADIENT_TOL, _CONVERGED_NORM = 500, 1e-5, 1e-4


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: mode, curvature, and convergence diagnostics.

    ``loglik`` is the maximised objective: the log-likelihood for the ML
    engine, the log posterior kernel for the Laplace engine.
    ``covariance`` is None only when the curvature at the mode was not
    finite and positive definite.
    ``converged`` judges the score at the mode; ``optimizer_success`` and
    ``optimizer_message`` are the optimiser's own verdict and termination
    message.  ``kernel_passes`` counts the evaluations of the log density,
    one series pass each, covariance included.
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
    kernel_passes: int = 0

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


class _Negated:
    """The negated log density, gradient and Hessian for a minimiser.

    The two most recent points are cached, so a rejected trial point
    never forces a second pass at the accepted one; ``passes`` counts the
    evaluations.  Invalid regions report +inf (and zero derivatives,
    unused since the minimiser rejects the point).
    """

    def __init__(self, log_density_derivs):
        self._fn = log_density_derivs
        self._recent = []
        self.passes = 0

    def __call__(self, x):
        key = x.tobytes()
        for seen, result in self._recent:
            if seen == key:
                return result
        self.passes += 1
        try:
            value, grad, hess = self._fn(x)
        except NumericError:
            value = np.inf
        if np.isfinite(value):
            result = (-value, -np.asarray(grad, dtype=float), -np.asarray(hess, dtype=float))
        else:
            result = (np.inf, np.zeros(x.size), np.zeros((x.size, x.size)))
        self._recent = [(key, result)] + self._recent[:1]
        return result


class Optimum(NamedTuple):
    """Outcome of :func:`maximize_log_density`; ``hessian`` is the log
    density's Hessian at ``x`` and ``passes`` the evaluations made."""

    x: np.ndarray
    value: float
    converged: bool
    iterations: int
    gradient_norm: float
    success: bool
    message: str
    hessian: np.ndarray
    passes: int


def maximize_log_density(log_density_derivs, x0: np.ndarray) -> Optimum:
    """Maximise a log density from ``x0`` by trust-region Newton steps.

    ``log_density_derivs(x)`` returns (value, gradient, Hessian).  The
    result's gradient_norm is the infinity norm of the gradient at the
    returned point; ``converged`` compares it with ``_CONVERGED_NORM``.
    """
    objective = _Negated(log_density_derivs)
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(objective(x0)[0]):
        raise NumericError("objective is not finite at the starting point")
    with np.errstate(all="ignore"):
        res = scipy.optimize.minimize(
            lambda x: objective(x)[:2],
            x0,
            jac=True,
            hess=lambda x: objective(x)[2],
            method="trust-exact",
            options={"gtol": _GRADIENT_TOL, "maxiter": _MAX_ITERATIONS},
        )
    gnorm = float(np.max(np.abs(res.jac)))
    return Optimum(
        x=res.x,
        value=-float(res.fun),
        converged=bool(gnorm < _CONVERGED_NORM),
        iterations=int(res.nit),
        gradient_norm=gnorm,
        success=bool(res.success),
        message=str(res.message),
        hessian=-objective(res.x)[2],
        passes=objective.passes,
    )


def covariance_from_log_density(hessian: np.ndarray) -> np.ndarray | None:
    """Covariance as the inverse negative Hessian of the log density at the
    mode, or None when that curvature is not finite and positive definite;
    callers surface None as a fit without standard errors, not an error."""
    neg_hess = -0.5 * (hessian + hessian.T)
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
