"""Bayesian fitting via a Laplace approximation at the posterior mode.

The posterior over (beta, alpha, log_theta) is approximated by a
Gaussian centred at the mode with covariance equal to the inverse
negative Hessian there.  Downstream quantities (fitted abundance means,
the posterior over a row's latent N) are Monte Carlo summaries over
draws from that Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import ModelError, NumericError
from .fitcore import (
    DEFAULT_FIT_OPTIONS,
    FitOptions,
    FitResult,
    check_designs_for_fit,
    covariance_from_log_density,
    default_start,
    fit_result,
    maximize_log_density,
)
from .likelihood import (
    DEFAULT_TRUNCATION,
    TruncationPolicy,
    log_count_density,
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
    table_loglik_hessian,
)
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
)


@dataclass(frozen=True)
class PriorSpec:
    """Independent normal priors on every coefficient; flat prior on log_theta.

    ``normal_precision`` is the inverse variance shared by all beta and
    alpha coefficients.  Precisions near zero make the posterior mode
    collapse onto the maximum likelihood estimate.
    """

    normal_mean: float = 0.0
    normal_precision: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.normal_precision) and self.normal_precision > 0.0):
            raise ModelError("normal_precision must be positive and finite")
        if not np.isfinite(self.normal_mean):
            raise ModelError("normal_mean must be finite")

    def log_density(self, coefs: np.ndarray) -> float:
        """Log prior density of the coefficient block (beta and alpha)."""
        n = coefs.size
        quad = float(np.sum((coefs - self.normal_mean) ** 2))
        return 0.5 * n * math.log(self.normal_precision / (2.0 * math.pi)) - (
            0.5 * self.normal_precision * quad
        )

    def score(self, coefs: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`log_density`: -precision * (coefs - mean)."""
        return -self.normal_precision * (coefs - self.normal_mean)

    def hessian(self, coefs: np.ndarray) -> np.ndarray:
        """Hessian of :meth:`log_density`: -precision * I."""
        return -self.normal_precision * np.eye(coefs.size)


DEFAULT_PRIOR = PriorSpec()


def fit_laplace(
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    priors: PriorSpec = DEFAULT_PRIOR,
    options: FitOptions = DEFAULT_FIT_OPTIONS,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
    start: ParameterVector | None = None,
) -> FitResult:
    """Posterior mode and Gaussian curvature under normal coefficient priors.

    Returns a FitResult whose ``loglik`` is the log posterior kernel
    (log-likelihood plus log prior) at the mode and whose ``covariance``
    approximates the posterior covariance.
    """
    check_designs_for_fit(table, designs, family)
    p_lam, p_det = designs.p_lambda, designs.p_detect
    n_coef = p_lam + p_det

    def log_density_derivs(x):
        pv = ParameterVector.from_array(x, p_lam, p_det, family.has_dispersion)
        loglik, score, hess = table_loglik_hessian(pv, table, designs, family, trunc)
        score[:n_coef] += priors.score(x[:n_coef])
        hess[:n_coef, :n_coef] += priors.hessian(x[:n_coef])
        return loglik + priors.log_density(x[:n_coef]), score, hess

    if start is None:
        start = default_start(table, designs, family)
    opt = maximize_log_density(log_density_derivs, start.to_array(), options)
    cov = covariance_from_log_density(opt.hessian) if options.compute_covariance else None
    return fit_result(opt, cov, designs, family)


@dataclass(frozen=True)
class PosteriorSamples:
    """Draws from the Gaussian posterior approximation, one row per draw."""

    draws: np.ndarray
    parameter_names: tuple[str, ...]
    family: MixtureFamily
    p_lambda: int
    p_detect: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ModelError("draws must be a 2-d array with at least one row")
        draws = draws.copy()
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def beta_draws(self) -> np.ndarray:
        return self.draws[:, : self.p_lambda]

    def alpha_draws(self) -> np.ndarray:
        return self.draws[:, self.p_lambda : self.p_lambda + self.p_detect]

    def log_theta_draws(self) -> np.ndarray | None:
        if not self.family.has_dispersion:
            return None
        return self.draws[:, -1]


def sample_posterior(fit: FitResult, n_draws: int, seed: int) -> PosteriorSamples:
    """Draw from N(mode, covariance); deterministic for a given seed."""
    if n_draws < 1:
        raise ModelError("n_draws must be at least 1")
    if fit.covariance is None:
        raise ModelError("fit carries no covariance; cannot sample the posterior")
    try:
        chol = np.linalg.cholesky(fit.covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "posterior covariance is not positive definite; add a small "
            "jitter to its diagonal or refit with fewer covariates"
        ) from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, fit.n_params))
    draws = fit.estimates.to_array()[None, :] + z @ chol.T
    return PosteriorSamples(
        draws=draws,
        parameter_names=fit.parameter_names,
        family=fit.family,
        p_lambda=fit.estimates.beta.size,
        p_detect=fit.estimates.alpha.size,
    )


@dataclass(frozen=True)
class LambdaFittedSummary:
    """Posterior summary of one row's abundance mean lambda_i."""

    index: int
    mean: float
    sd: float
    q025: float
    median: float
    q975: float


def lambda_fitted(
    samples: PosteriorSamples, designs: DesignMatrices
) -> list[LambdaFittedSummary]:
    """Per-row posterior summaries of lambda = exp(X beta).

    Quantiles use linear interpolation between order statistics and the
    standard deviation uses the n-1 denominator, matching the usual
    sample definitions.
    """
    if samples.p_lambda != designs.p_lambda:
        raise ModelError("samples and designs disagree on the abundance design width")
    eta = samples.beta_draws() @ np.asarray(designs.abundance_design).T
    lam = np.exp(eta)
    q = np.quantile(lam, [0.025, 0.5, 0.975], axis=0)
    mean = lam.mean(axis=0)
    sd = lam.std(axis=0, ddof=1) if samples.n_draws > 1 else np.zeros(designs.n_rows)
    return [
        LambdaFittedSummary(
            index=i + 1,
            mean=float(mean[i]),
            sd=float(sd[i]),
            q025=float(q[0, i]),
            median=float(q[1, i]),
            q975=float(q[2, i]),
        )
        for i in range(designs.n_rows)
    ]


# largest mass the averaged pmf may put on its last grid point before the
# grid counts as truncating the posterior
_POSTERIOR_EDGE_MASS = 1e-10


def default_posterior_n_grid_max(y_row: np.ndarray, lambda_draws: np.ndarray) -> int:
    """Grid ceiling max(y) + 50 sqrt(median lambda) + 50: far beyond any
    region with visible posterior mass."""
    lam_med = float(np.median(lambda_draws))
    return int(np.max(y_row) + math.ceil(50.0 * math.sqrt(lam_med)) + 50)


def posterior_n(
    y_row: np.ndarray,
    lambda_draws: np.ndarray,
    p_draws: np.ndarray,
    theta_draws: np.ndarray | None = None,
    n_grid_max: int | None = None,
) -> np.ndarray:
    """Posterior pmf of one row's latent abundance N.

    For each posterior draw the conditional pmf over N = max(y) ..
    n_grid_max is normalised, then the draws are averaged and the result
    renormalised.  Returns the probability vector aligned with
    ``np.arange(max(y), n_grid_max + 1)``.

    Raises NumericError, naming ``n_grid_max``, when the averaged pmf puts
    more than 1e-10 of its mass on the last grid point: the grid then
    cuts off posterior mass and the pmf would be silently wrong.

    Parameters
    ----------
    y_row : array of shape (n_surveys,)
        Observed counts of the row (observed surveys only).
    lambda_draws : array of shape (n_draws,)
    p_draws : array of shape (n_draws, n_surveys)
    theta_draws : array of shape (n_draws,), optional
        Dispersion draws; None for the Poisson mixture.
    n_grid_max : int, optional
        Grid ceiling; defaults to :func:`default_posterior_n_grid_max`.
    """
    y = np.atleast_1d(np.asarray(y_row, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda_draws, dtype=float))
    p = np.atleast_2d(np.asarray(p_draws, dtype=float))
    if p.shape != (lam.size, y.size):
        raise ModelError(
            f"p_draws must have shape ({lam.size}, {y.size}), got {p.shape}"
        )
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise ModelError("lambda draws must be positive and finite")
    # p = 1 is admitted: perfect detection pins N at the observed count
    if np.any(p <= 0) or np.any(p > 1):
        raise ModelError("detection draws must lie in (0, 1]")
    theta = None
    if theta_draws is not None:
        theta = np.atleast_1d(np.asarray(theta_draws, dtype=float))
        if theta.shape != lam.shape or np.any(theta <= 0):
            raise ModelError("theta draws must be positive with one entry per draw")
    if n_grid_max is None:
        n_grid_max = default_posterior_n_grid_max(y, lam)
    ystar = int(np.max(y))
    if n_grid_max < ystar:
        raise ModelError(f"n_grid_max={n_grid_max} is below the largest count {ystar}")

    grid = np.arange(ystar, n_grid_max + 1, dtype=float)[None, :]
    if theta is None:
        logw = log_count_density(grid, lam[:, None])
    else:
        logw = log_count_density(grid, lam[:, None], theta[:, None])
    for j in range(y.size):
        pj = p[:, j][:, None]
        # xlogy/xlog1py keep the 0 * log(0) corner finite so p = 1 works
        logw = logw + (
            gammaln(grid + 1.0)
            - gammaln(y[j] + 1.0)
            - gammaln(grid - y[j] + 1.0)
            + xlogy(y[j], pj)
            + xlog1py(grid - y[j], -pj)
        )
    log_norm = logsumexp(logw, axis=1)
    if not np.all(np.isfinite(log_norm)):
        bad = int(np.argmax(~np.isfinite(log_norm)))
        raise NumericError(
            f"posterior draw {bad} puts no mass on the latent-abundance grid; "
            "increase n_grid_max"
        )
    per_draw = np.exp(logw - log_norm[:, None])
    probs = per_draw.mean(axis=0)
    probs = probs / probs.sum()
    if probs[-1] > _POSTERIOR_EDGE_MASS:
        raise NumericError(
            f"posterior of N puts {probs[-1]:.3g} of its mass on the last grid point "
            f"n_grid_max={n_grid_max}; the grid truncates the posterior, so raise n_grid_max"
        )
    return probs
