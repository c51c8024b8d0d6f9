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

from . import likelihood
from .errors import ModelError, NumericError
from .fitcore import (
    FitResult,
    covariance_from_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
    maximize_log_density,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .likelihood import (
    _batch_series,
    _d_scale,
    _leading_log_term,
    _phi,
    _ratio_parts,
    _row_slabs,
    _take,
    table_loglik,  # noqa: F401  perfbench/tracer.py wraps the name here
)
from .mle import _fit
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
    return _fit(table, designs, family, priors, start)


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
    :func:`likelihood._row_slabs`): a slab holds about 2**17 values, and
    never fewer than one row's draws, whatever the number of rows.  The
    mean and the sd (n-1 denominator) are summed along each row's draws.
    The quantiles are numpy's "linear" method (Hyndman & Fan's type 7),
    read from the order statistics of one sort per row.  Up to 8,192
    draws, where a slab takes 16 rows or more, every row's summary is the
    one a single rows x draws array gives, to the bit.  When several
    predictors overflow, the error names the largest in the first slab
    that holds one, by its row in the table.
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


def check_n_grid_max(n_grid_max: int | None, ystar: int) -> None:
    """ModelError when a ceiling on N lies below the largest count ``ystar``."""
    if n_grid_max is not None and n_grid_max < ystar:
        raise ModelError(f"n_grid_max={n_grid_max} is below the largest count {ystar}")


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
    the kernel's leading term and term ratios, one slab of draws at a
    time (see :func:`likelihood._row_slabs`), so the working arrays hold
    about 2**17 elements, or one draw's pmf where that is wider, however
    many draws there are.  The pmfs are added in draw order, as one mean
    over all the draws adds them, then averaged and renormalised.

    Returns the pmf aligned with ``np.arange(max(y), top + 1)``, where
    ``top`` is ``n_grid_max`` if given, else the highest end of a draw's
    range; entries outside the union are zero.  Raises ModelError naming
    a malformed input (NaN included), and NumericError when
    a draw gives the counts zero likelihood (p = 1 with unequal counts),
    when a range runs past ``n_grid_max`` (naming it), or when the kernel
    fails on a draw, naming the draw and the term budget.

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
    # the checks are written so that NaN fails them
    if y.ndim != 1 or y.size < 1 or not np.all((y >= 0) & (y == np.floor(y)) & np.isfinite(y)):
        raise ModelError(f"y_row must hold at least one non-negative integer count, got {y.tolist()}")
    if p.shape != (lam.size, y.size):
        raise ModelError(f"p_draws must have shape ({lam.size}, {y.size}), got {p.shape}")
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise ModelError("lambda draws must be positive and finite")
    # p = 1 is admitted: perfect detection pins N at the observed count
    if not np.all((p > 0) & (p <= 1)):
        raise ModelError("detection draws must lie in (0, 1]")
    theta = None
    if theta_draws is not None:
        theta = np.atleast_1d(np.asarray(theta_draws, dtype=float))
        if theta.shape != lam.shape or not np.all((theta > 0) & np.isfinite(theta)):
            raise ModelError("theta draws must be positive and finite, with one entry per draw")
    phi = _phi(theta, lam.size)
    ystar = int(np.max(y))
    check_n_grid_max(n_grid_max, ystar)

    counts = np.broadcast_to(y, p.shape)
    # log(1 - p) is -inf at p = 1; the kernel's ratios are then exactly 0
    with np.errstate(divide="ignore"):
        try:
            log_l, n_min, n_max, _ = _batch_series(counts, lam, p, phi, moments=False)
        except NumericError as exc:
            if exc.row is None:
                raise
            raise NumericError(
                f"posterior draw {exc.row} (lam={lam[exc.row]:.6g}) fails in the series over N, "
                f"whose term budget is {likelihood._TERM_BUDGET} terms past the draw's start"
            ) from exc
        if not np.all(np.isfinite(log_l)):
            bad = int(np.argmax(~np.isfinite(log_l)))
            raise NumericError(f"posterior draw {bad} gives the counts zero likelihood")
        lo, hi = int(n_min.min()), int(n_max.max())
        if n_grid_max is not None and hi > n_grid_max:
            raise NumericError(
                f"posterior draw {int(np.argmax(n_max))} has mass up to N={hi}, past "
                f"n_grid_max={n_grid_max}; raise n_grid_max or leave it unset"
            )
        lead = _leading_log_term(np.full(lam.size, float(lo)), counts, lam, p, phi)
        grid = np.arange(lo + 1.0, hi + 1.0)[None, :]
        keep = 1.0 - p
        keep[:, 0] *= _d_scale(lam, phi)
        slabs = _row_slabs(lam.size, grid.size + 1)
        # row 0 holds the running total, so each slab's draws add to it in
        # draw order, as one mean over all the draws would add them
        pmfs = np.empty((max(r.stop - r.start for r in slabs) + 1, grid.size + 1))
        total = np.zeros(grid.size + 1)
        for rows in slabs:
            k = rows.stop - rows.start
            log_g = pmfs[1 : k + 1]
            ratio, _ = _ratio_parts(grid, *_take(rows, counts, keep, phi))
            log_g[:, 0] = lead[rows]
            np.log(ratio, out=log_g[:, 1:])
            np.add.accumulate(log_g, axis=1, out=log_g)
            log_g -= log_l[rows, None]
            np.exp(log_g, out=log_g)
            pmfs[0] = total
            np.add.reduce(pmfs[: k + 1], axis=0, out=total)
    probs = total / lam.size
    top = hi if n_grid_max is None else n_grid_max
    return np.pad(probs / probs.sum(), (lo - ystar, top - hi))
