"""Bayesian fitting via a Laplace approximation at the posterior mode.

The posterior over (beta, alpha, log_theta) is approximated by a
Gaussian centred at the mode with covariance equal to the inverse
negative Hessian there.  Downstream quantities (fitted abundance means,
and through :func:`likelihood.posterior_n` the posterior over a row's
latent N) are Monte Carlo summaries over draws from that Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError
from .fitcore import (
    FitResult,
    covariance_from_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
    maximize_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .likelihood import (
    _row_slabs,
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .mle import _fit_one
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    _frozen_array,
    lambda_from_predictor,
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


def lambda_fitted(
    samples: PosteriorSamples, designs: DesignMatrices
) -> list[LambdaFittedSummary]:
    """Per-row posterior summaries of lambda = exp(X beta); NumericError
    names the draw and the row where exp() overflows.

    lambda is laid out rows x draws, so each row's draws are contiguous,
    and is built, summarised and dropped one slab of rows at a time (see
    :func:`likelihood._row_slabs`): a slab holds about 2**15 values, and
    never fewer than one row's draws, whatever the number of rows.  The
    mean and the sd (n-1 denominator) are summed along each row's draws.
    The quantiles are numpy's "linear" method (Hyndman & Fan's type 7),
    read from the order statistics of one sort per row.  Wherever no slab
    is a lone row (up to 10,922 draws, where a slab takes three rows or
    more, and up to 16,384 for an even number of rows), every row's
    summary is the one a single rows x draws array gives, to the bit.
    When several predictors overflow, the error names the largest in the
    first slab that holds one, by its row in the table.
    """
    if samples.p_lambda != designs.p_lambda:
        raise ModelError("samples and designs disagree on the abundance design width")
    x, beta = np.asarray(designs.abundance_design), samples.beta_draws()
    n = samples.n_draws
    mean, sd, q = np.empty(designs.n_rows), np.zeros(designs.n_rows), np.empty((3, designs.n_rows))
    # numpy's "linear" arithmetic on the order statistics a <= b around (n-1)q
    virtual = (n - 1) * np.array([0.025, 0.5, 0.975])
    below = np.floor(virtual).astype(np.intp)
    above = np.minimum(below + 1, n - 1)
    gamma = virtual - below
    for rows in _row_slabs(designs.n_rows, n):
        eta = x[rows] @ beta.T
        lam = lambda_from_predictor(eta.T, units=("draw", "row"), origin=(0, rows.start)).T
        del eta
        mean[rows] = lam.mean(axis=1)
        if n > 1:
            sd[rows] = lam.std(axis=1, ddof=1)
        lam.sort(axis=1)
        a, b = lam[:, below], lam[:, above]
        q[:, rows] = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma).T
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

