"""Synthetic repeated-count data with known truth.

Site covariates x1 and x2 and the survey-level covariate x4 are centred
uniforms on (-0.5, 0.5); the year covariate x3 is an equally spaced
grid scaled to [-0.5, 0.5].  ``io.build_designs`` turns them into the
designs a fit of the written CSV gets (see ``SimOutput``), and lambda
and p are the model's links evaluated on those designs at
``config.parameters``: ``true_lambda`` is the fitted model's lambda at
the generating values, and the model's checks guard the generator.  N
is negative binomial (size theta) or Poisson.  Counts are drawn under
both detection models from the same N, so a fit can pair data whose
detection covariate varies within a (site, year) with a model that sees
only its mean, or with the correct one.

Draw order is fixed: the covariate stream draws x1, x2, x4; the
abundance stream draws N; the count stream draws the mean-model counts
then the survey-model counts, each in (site, survey, year) order.  Three
independent streams keep each block reproducible even if another block
changes shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError, NumericError
from .io import Dataset, build_designs
from .model import DesignMatrices, MixtureFamily, ObservationTable, ParameterVector
from .model import detection_probs, lambda_values


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; defaults give 72 sites x 3 surveys x 9 years."""

    n_sites: int = 72
    n_surveys: int = 3
    n_years: int = 9
    beta: tuple[float, float, float, float] = (2.0, 2.0, -3.0, 1.0)
    alpha: tuple[float, float, float] = (1.0, -2.0, 1.0)
    theta: float | None = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1 or self.n_surveys < 1 or self.n_years < 1:
            raise ModelError("n_sites, n_surveys and n_years must be positive")
        if len(self.beta) != 4 or len(self.alpha) != 3:
            raise ModelError("beta must have 4 entries and alpha 3")
        if self.theta is not None and not (np.isfinite(self.theta) and self.theta > 0):
            raise ModelError("theta must be positive and finite, or None for Poisson abundances")

    @property
    def family(self) -> MixtureFamily:
        return MixtureFamily.POISSON if self.theta is None else MixtureFamily.NEGBIN

    @property
    def parameters(self) -> ParameterVector:
        """The generating values in a fit's stacked layout: beta, alpha and
        log theta (None for Poisson abundances)."""
        log_theta = None if self.theta is None else np.log(self.theta)
        return ParameterVector(beta=self.beta, alpha=self.alpha, log_theta=log_theta)


@dataclass(frozen=True)
class SimOutput:
    """Simulated datasets, their designs, and the latent truth.

    Rows are ordered year-major and site-minor: row = year * n_sites + site.
    Both datasets carry row covariates x1, x2, x3, x4.m (the per-(site,
    year) mean of x4) and survey covariate x4; ``dataset_mean`` holds counts
    generated from x4.m, ``dataset_survey`` from x4, and ``designs_mean`` and
    ``designs_survey`` model detection by (x1, x4.m) and (x1, x4).  Fitting
    ``designs_mean`` against ``table_survey`` misstates detection whenever
    x4 varies between surveys.
    """

    config: SimConfig
    dataset_mean: Dataset
    dataset_survey: Dataset
    designs_mean: DesignMatrices
    designs_survey: DesignMatrices
    true_lambda: np.ndarray
    true_n: np.ndarray

    @property
    def table_mean(self) -> ObservationTable:
        return self.dataset_mean.table

    @property
    def table_survey(self) -> ObservationTable:
        return self.dataset_survey.table


def _centered_uniform(rng, size):
    x = rng.uniform(-0.5, 0.5, size=size)
    return x - x.mean()


def simulate(config: SimConfig = SimConfig()) -> SimOutput:
    """Generate one pair of datasets; fully determined by ``config.seed``.
    NumericError when lambda overflows exp() or the sampler cannot draw N."""
    s, j, k = config.n_sites, config.n_surveys, config.n_years
    rng_cov, rng_n, rng_y = (
        np.random.default_rng(ss) for ss in np.random.SeedSequence(config.seed).spawn(3)
    )

    x1 = _centered_uniform(rng_cov, s)
    x2 = _centered_uniform(rng_cov, s)
    x4 = _centered_uniform(rng_cov, (s, j, k))
    if k == 1:
        x3 = np.zeros(1)
    else:
        years = np.arange(1, k + 1, dtype=float)
        x3 = (years - years.mean()) / np.max(years - years.mean()) / 2.0

    # (site, survey, year) <-> rows of (year, site) with survey columns
    def to_rows(arr):
        return arr.transpose(2, 0, 1).reshape(k * s, -1)

    def from_rows(arr):
        return arr.reshape(k, s, -1).transpose(1, 2, 0)

    site = np.tile(np.arange(1, s + 1), k)
    year = np.repeat(np.arange(1, k + 1), s)
    # the counts never enter the designs, so the covariates carry zeros
    layout = Dataset(
        table=ObservationTable(counts=np.zeros((k * s, j)), site=site, year=year),
        row_covariates={
            "x1": np.tile(x1, k),
            "x2": np.tile(x2, k),
            "x3": np.repeat(x3, s),
            "x4.m": x4.mean(axis=1).T.reshape(k * s),
        },
        survey_covariates={"x4": to_rows(x4)},
    )
    designs_mean = build_designs(layout, ("x1", "x2", "x3"), ("x1", "x4.m"))[1]
    designs_survey = build_designs(layout, ("x1", "x2", "x3"), ("x1", "x4"))[1]

    params = config.parameters
    p_models = [from_rows(detection_probs(params, d)) for d in (designs_mean, designs_survey)]
    lam = lambda_values(params, designs_mean)
    lam_grid, theta = from_rows(lam), config.theta
    try:
        # numpy's range checks overflow before they raise, as lam / theta does near theta = 0
        with np.errstate(over="ignore", invalid="ignore"):
            if theta is None:
                n_latent = rng_n.poisson(lam_grid)
            else:
                # negative_binomial's own draw, a gamma then a Poisson per element, with the
                # scale lam / theta: its (1 - p) / p loses lam to rounding (0 at theta = 1e20)
                scales = (lam_grid / theta).flat
                n_latent = np.array([rng_n.poisson(rng_n.standard_gamma(theta) * s) for s in scales])
                n_latent = n_latent.reshape(lam_grid.shape)
    except ValueError as exc:
        size = "" if theta is None else f", theta={theta:.6g}"
        raise NumericError(f"the sampler cannot draw N at lambda={lam.max():.6g}{size}: {exc}") from None
    counts = [rng_y.binomial(n_latent, p, size=(s, j, k)) for p in p_models]
    dataset_mean, dataset_survey = (
        replace(layout, table=replace(layout.table, counts=to_rows(c))) for c in counts
    )
    return SimOutput(
        config=config,
        dataset_mean=dataset_mean,
        dataset_survey=dataset_survey,
        designs_mean=designs_mean,
        designs_survey=designs_survey,
        true_lambda=lam,
        true_n=n_latent.T.reshape(k * s).astype(float),
    )
