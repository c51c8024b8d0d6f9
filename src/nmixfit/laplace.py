"""Bayesian fitting via a Laplace approximation at the posterior mode.

The posterior over (beta, alpha, log_theta) is approximated by a
Gaussian centred at the mode with covariance equal to the inverse
negative Hessian there.  Under it each row's abundance mean is log-normal,
so :func:`lambda_fitted` summarises it in closed form; the posterior over
a row's latent N (:func:`likelihood.posterior_n`) is averaged over draws
from that Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ModelError, NumericError
from .fitcore import (
    FitResult,
    covariance_from_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
    maximize_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .likelihood import table_loglik  # noqa: F401  perfbench/tracer.py wraps the name here
from .mle import _fit_one
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    _frozen_array,
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

# the 97.5% quantile of the standard normal
_Z975 = NormalDist().inv_cdf(0.975)


def fit_laplace(
    table: ObservationTable,
    designs: DesignMatrices,
    family: MixtureFamily,
    priors: PriorSpec = DEFAULT_PRIOR,
    start: ParameterVector | None = None,
) -> FitResult:
    """Posterior mode and Gaussian curvature under normal coefficient priors.

    Returns a FitResult whose ``loglik`` is the log posterior kernel
    (log-likelihood plus log prior) at the mode and whose ``covariance``
    approximates the posterior covariance.
    """
    return _fit_one(table, designs, family, priors, start)


@dataclass(frozen=True)
class PosteriorSamples:
    """Draws from the Gaussian posterior approximation, one row per draw."""

    draws: np.ndarray
    parameter_names: tuple[str, ...]
    family: MixtureFamily
    p_lambda: int
    p_detect: int

    def __post_init__(self):
        draws = _frozen_array(self.draws)
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ModelError("draws must be a 2-d array with at least one row")
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


def lambda_fitted(fit: FitResult, designs: DesignMatrices) -> list[LambdaFittedSummary]:
    """Per-row posterior summaries of lambda = exp(x beta) under the fit's
    Gaussian, in closed form.

    With mu = x beta_hat and s2 = x S x', S the abundance block of the
    covariance, log lambda ~ N(mu, s2), so lambda is log-normal: its mean
    is exp(mu + s2/2), its sd the mean times sqrt(expm1(s2)), its median
    exp(mu) and its 2.5% and 97.5% quantiles exp(mu -/+ z s), z the 97.5%
    normal quantile.  Raises ModelError when the fit carries no covariance
    or its beta does not match the design width, and NumericError naming
    the first row whose s2 is negative or whose summaries overflow.
    """
    if fit.covariance is None:
        raise ModelError("fit carries no covariance; cannot summarise the posterior")
    beta = fit.estimates.beta
    if beta.size != designs.p_lambda:
        raise ModelError("fit and designs disagree on the abundance design width")
    x = designs.abundance_design
    mu = x @ beta
    s2 = np.einsum("ij,jk,ik->i", x, fit.covariance[: beta.size, : beta.size], x)
    bad = np.flatnonzero(~(s2 >= 0.0))
    if bad.size:
        i = bad[0]
        raise NumericError(f"abundance predictor variance {s2[i]:.6g} at row {i} is negative")
    zs = _Z975 * np.sqrt(s2)
    # an overflow (or 0 * inf in the sd) is caught below and names its row
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.exp(mu + 0.5 * s2)
        sd = mean * np.sqrt(np.expm1(s2))
        values = np.stack([mean, sd, np.exp(mu - zs), np.exp(mu), np.exp(mu + zs)])
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"lambda summaries at row {i} overflow exp(): abundance predictor {mu[i]:.6g}, "
            f"variance {s2[i]:.6g}"
        )
    return [LambdaFittedSummary(i, *row) for i, row in enumerate(values.T.tolist(), start=1)]
