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

from .errors import ModelError, NumericError
from .fitcore import (
    DEFAULT_FIT_OPTIONS,
    FitOptions,
    FitResult,
    covariance_from_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
    maximize_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .likelihood import (
    DEFAULT_TRUNCATION,
    TruncationPolicy,
    _batch_series,
    _leading_log_term,
    _ratio_parts,
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .mle import _fit
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
    return _fit(table, designs, family, priors, options, trunc, start)


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


def posterior_n(
    y_row: np.ndarray,
    lambda_draws: np.ndarray,
    p_draws: np.ndarray,
    theta_draws: np.ndarray | None = None,
    n_grid_max: int | None = None,
) -> np.ndarray:
    """Posterior pmf of one row's latent abundance N, averaged over draws.

    The draws are the rows of one batch of the likelihood's series
    kernel, so each draw's support is the range that the kernel's two
    geometric tail bounds select (under 1e-12 of its mass lies outside).
    On the union of the ranges each draw's pmf g(N) / L is rebuilt from
    the kernel's leading term and term ratios; the pmfs are averaged and
    renormalised.

    Returns the pmf aligned with ``np.arange(max(y), top + 1)``, where
    ``top`` is ``n_grid_max`` if given, else the highest end of a draw's
    range; entries outside the union are zero.  Raises NumericError when
    a draw gives the counts zero likelihood (p = 1 with unequal counts),
    when a range runs past ``n_grid_max`` (naming it), or when the kernel
    fails on a draw (its message calls the draw a row).

    Parameters
    ----------
    y_row : array of shape (n_surveys,)
        Observed counts of the row (observed surveys only).
    lambda_draws : array of shape (n_draws,)
    p_draws : array of shape (n_draws, n_surveys)
    theta_draws : array of shape (n_draws,), optional
        Dispersion draws; None for the Poisson mixture.
    n_grid_max : int, optional
        Ceiling on the support; the pmf is zero-padded up to it.
    """
    y = np.atleast_1d(np.asarray(y_row, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda_draws, dtype=float))
    p = np.atleast_2d(np.asarray(p_draws, dtype=float))
    if p.shape != (lam.size, y.size):
        raise ModelError(f"p_draws must have shape ({lam.size}, {y.size}), got {p.shape}")
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
    ystar = int(np.max(y))
    if n_grid_max is not None and n_grid_max < ystar:
        raise ModelError(f"n_grid_max={n_grid_max} is below the largest count {ystar}")

    counts, mask = np.broadcast_to(y, p.shape), np.ones(p.shape, dtype=bool)
    # log(1 - p) is -inf at p = 1; the kernel's ratios are then exactly 0
    with np.errstate(divide="ignore"):
        log_l, n_min, n_max, _ = _batch_series(
            counts, mask, lam, p, theta, DEFAULT_TRUNCATION, moments=False
        )
        if not np.all(np.isfinite(log_l)):
            bad = int(np.argmax(~np.isfinite(log_l)))
            raise NumericError(f"posterior draw {bad} gives the counts zero likelihood")
        lo, hi = int(n_min.min()), int(n_max.max())
        if n_grid_max is not None and hi > n_grid_max:
            raise NumericError(
                f"posterior draw {int(np.argmax(n_max))} has mass up to N={hi}, past "
                f"n_grid_max={n_grid_max}; raise n_grid_max or leave it unset"
            )
        lead = _leading_log_term(np.full(lam.size, float(lo)), counts, mask, lam, p, theta)
        grid = np.arange(lo + 1.0, hi + 1.0)[None, :]
        dens, survey = _ratio_parts(grid, counts, mask, lam, p, theta)
        log_g = np.cumsum(np.column_stack([lead, np.log(dens * survey)]), axis=1)
    probs = np.exp(log_g - log_l[:, None]).mean(axis=0)
    top = hi if n_grid_max is None else n_grid_max
    return np.pad(probs / probs.sum(), (lo - ystar, top - hi))
