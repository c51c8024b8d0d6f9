"""Shared optimisation machinery for the ML and Laplace fitting engines.

Both engines maximise a smooth log density over the stacked parameter
vector (beta, alpha, log_theta), given as one function that returns the
value, its exact gradient (the score) and its exact Hessian from a
single kernel pass.  An exact trust region (Newton steps, safe where
the Hessian is indefinite) runs on that triple, evaluating each point
once, and convergence is judged by the score at the returned point.
Several fits run in lock-step, so that each step's points can share one
kernel pass; each fit takes the steps it would take alone.
The covariance is the inverse negative Hessian at the mode, which the
last pass already computed, so every fit gets one at no extra pass.
Fits take no settings: the optimiser's limits are the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelError, NumericError
from .model import (
    DesignMatrices, MixtureFamily, ObservationTable, ParameterVector, check_table_designs,
)


# The trust region stops at a gradient 2-norm below _GRADIENT_TOL; a fit not cut off at
# _MAX_ITERATIONS is converged below an infinity norm of _CONVERGED_NORM.  Radius rules
# are trust-exact's (Nocedal & Wright, Alg. 4.1); the ratio test allows for rounding
_MAX_ITERATIONS, _GRADIENT_TOL, _CONVERGED_NORM = 500, 1e-5, 1e-4
_RADIUS, _MAX_RADIUS, _ETA, _ROUNDING = 1.0, 1000.0, 0.15, 10.0 * np.finfo(float).eps
_SUBPROBLEM_ITERATIONS, _SUBPROBLEM_TOL = 50, 1e-12
# These limits are in the coefficients' own units, so fits are only asked of designs whose
# columns' largest |values| lie within _SCALE_SPREAD of each other (wider spreads were seen
# to stop short of the mode, some reported converged)
_SCALE_SPREAD = 1e4
_STATUS_MESSAGES = ("Optimization terminated successfully.",
                    "Maximum number of iterations has been exceeded.",
                    "A bad approximation caused failure to predict improvement.")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: mode, curvature, and convergence diagnostics.

    ``loglik`` is the maximised objective: the log-likelihood for the ML
    engine, the log posterior kernel for the Laplace engine.
    ``covariance`` is None only when the curvature at the mode was not
    finite and positive definite.
    ``converged`` judges the score at the mode, and is False for a fit
    cut off at the iteration limit; ``optimizer_success`` and
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
    """Names of the columns that add nothing to the columns before them,
    empty if full rank.  In an unpivoted QR, |R_ii| is the norm of the part
    of column i outside the span of the columns before it, and columns past
    the row count have no R_ii.  Each column is first scaled to a largest
    |value| of 1, which leaves the rank as it is and the covariates' units
    out of the test; a zero column stays zero."""
    scale = np.max(np.abs(matrix), axis=0)
    matrix = matrix / np.where(scale > 0.0, scale, 1.0)
    diag = np.abs(np.diag(np.linalg.qr(matrix, mode="r")))
    tol = max(matrix.shape) * np.finfo(float).eps * np.max(np.linalg.norm(matrix, axis=0))
    return [name for i, name in enumerate(names) if i >= diag.size or diag[i] <= tol]


def check_designs_for_fit(
    table: ObservationTable, designs: DesignMatrices, family: MixtureFamily
) -> None:
    """Reject mismatched, under-determined, rank-deficient or badly scaled
    fitting problems."""
    check_table_designs(table, designs)
    n_params = designs.p_lambda + designs.p_detect + (1 if family.has_dispersion else 0)
    if table.n_rows < n_params:
        raise ModelError(
            f"{n_params} parameters but only {table.n_rows} rows; the fit is under-determined"
        )
    stacked = np.asarray(designs.detection_design)[table.mask]
    for label, design, names in (
        ("abundance design", np.asarray(designs.abundance_design), designs.abundance_names),
        ("detection design over the observed cells", stacked, designs.detection_names),
    ):
        bad = _column_rank_report(design, names)
        if bad:
            raise ModelError(f"{label} is rank deficient; collinear columns: " + ", ".join(bad))
        scale = np.max(np.abs(design), axis=0)
        big, small = np.argmax(scale), np.argmin(scale)
        if float(scale[big]) > _SCALE_SPREAD * float(scale[small]):
            raise ModelError(f"{label} columns differ in scale past {_SCALE_SPREAD:g} ({names[big]} "
                             f"reaches {scale[big]:g}, {names[small]} {scale[small]:g}); rescale them")


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


def _trust_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """Maximiser s of grad·s + ½ sᵀ hess s over ‖s‖ ≤ radius, and whether it
    lies on the boundary (Moré & Sorensen 1983).  With -hess = V diag(lam) Vᵀ
    and a = Vᵀ grad, s = V a / (lam + mu) for the least mu ≥ max(0, -lam[0])
    that keeps ‖s‖ ≤ radius.  Newton steps on 1/‖s‖ - 1/radius run on the
    shift d = lam[0] + mu, which keeps its digits near the hard case, where
    grad misses the lowest eigenvector and s moves along it instead."""
    lam, vec = np.linalg.eigh(-hess)
    a = vec.T @ grad
    gaps = lam - lam[0]
    # a lower bound on d at which ‖s‖ ≥ radius, unless d = lam[0] (mu = 0) or 0
    d = max(lam[0], float(np.max(np.abs(a) / radius - gaps)))
    for _ in range(_SUBPROBLEM_ITERATIONS):
        shifted = gaps + d
        shifted[shifted <= 0.0] = np.inf  # only where a is 0
        c = a / shifted
        norm = float(np.linalg.norm(c))
        if norm <= radius and d == lam[0]:
            return vec @ c, False
        if norm <= radius and d == 0.0:
            c[0] = np.sqrt(radius**2 - norm**2)
            return vec @ c, True
        if abs(norm - radius) <= _SUBPROBLEM_TOL * radius:
            break
        d += (norm / radius - 1.0) / np.sum((c / norm) ** 2 / shifted)
    return vec @ c, True


def _trust_region(x: np.ndarray):
    """One fit's trust region from ``x``, as a generator: it yields each
    point to evaluate, is sent back (value, gradient, Hessian) there, the
    NumericError that evaluating it raised, or None where the triple is
    not finite, and returns the :class:`Optimum`; it raises NumericError,
    naming the evaluation's own error if there is one, if the start fails."""
    point = yield x
    if not isinstance(point, tuple):
        cause = "" if point is None else f": {point}"
        raise NumericError("objective is not finite at the starting point" + cause)
    iterations, radius, status = 0, _RADIUS, 0
    while np.linalg.norm(point[1]) >= _GRADIENT_TOL:
        if iterations >= _MAX_ITERATIONS:
            status = 1
            break
        value, grad, hess = point
        step, on_boundary = _trust_step(grad, hess, radius)
        predicted = grad @ step + 0.5 * step @ hess @ step
        if not predicted > 0.0:
            status = 2
            break
        trial_x = x + step
        trial = yield trial_x
        noise = _ROUNDING * max(1.0, abs(value))  # Conn, Gould & Toint 2000, 17.4.2
        rho = (trial[0] - value + noise) / (predicted + noise) if isinstance(trial, tuple) else -np.inf
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, _MAX_RADIUS)
        if rho > _ETA:
            x, point = trial_x, trial
        iterations += 1
    gnorm = float(np.max(np.abs(point[1])))
    return Optimum(
        x=x,
        value=float(point[0]),
        converged=bool(gnorm < _CONVERGED_NORM) and status != 1,
        iterations=iterations,
        gradient_norm=gnorm,
        success=status == 0,
        message=_STATUS_MESSAGES[status],
        hessian=point[2],
        passes=iterations + 1,  # the start and one trial point per iteration
    )


def maximize_log_density(log_density_derivs, starts) -> dict[object, Optimum | NumericError]:
    """Maximise one log density from each of ``starts``, a dict {key: x0},
    by trust-region Newton steps, the fits in lock-step.

    ``log_density_derivs(points)`` gets a list of (key, x), one for each
    fit still running, x the point where it asks for (value, gradient,
    Hessian) next.  It returns a list of their entries in that order: the
    triple at x, or the NumericError that evaluating it raised; such a
    point, or one whose triple is not finite, is a rejected step.  Each fit
    takes the steps it takes alone, and evaluates every point once.
    Returns {key: result}, the result the fit's :class:`Optimum`, whose
    gradient_norm is the infinity norm of the gradient at the returned
    point (``converged`` compares it with ``_CONVERGED_NORM``, and is
    False at the iteration limit), or a NumericError if the objective is
    not finite at the start, which carries the start's own error, if any.
    """
    runs = {key: _trust_region(np.asarray(x0, dtype=float)) for key, x0 in starts.items()}
    asked = {key: next(run) for key, run in runs.items()}
    results = {}
    while asked:
        with np.errstate(all="ignore"):
            evaluated = log_density_derivs(list(asked.items()))
        for key, entry in zip(list(asked), evaluated):
            if not isinstance(entry, NumericError):
                entry = tuple(np.asarray(v, dtype=float) for v in entry)
                entry = entry if all(np.all(np.isfinite(v)) for v in entry) else None
            try:
                asked[key] = runs[key].send(entry)
                continue
            except StopIteration as done:
                results[key] = done.value
            except NumericError as exc:
                results[key] = exc
            del asked[key]
    return results


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
