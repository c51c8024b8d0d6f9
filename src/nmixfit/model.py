"""Core model types: count tables, design matrices, parameter vectors.

The model treats each (site, year) combination as one row of a count
table.  Row i has an unobserved abundance N_i drawn from a Poisson or
negative binomial mixing distribution with mean lambda_i, and survey j
records y_ij ~ Binomial(N_i, p_ij) conditionally on N_i.  Covariates
enter through a log link for abundance and a logit link for detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import ModelError, NumericError

# Detection probabilities are clamped to this open interval before any
# likelihood work; the bounds only bind for extreme linear predictors.
P_CLAMP = 1e-12

# exp() overflows IEEE doubles just above this linear predictor value.
LOG_LAMBDA_MAX = 709.0


class MixtureFamily(str, Enum):
    """Mixing distribution for the latent abundances."""

    POISSON = "poisson"
    NEGBIN = "nb"

    @property
    def has_dispersion(self) -> bool:
        return self is MixtureFamily.NEGBIN


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ObservationTable:
    """Counts from repeated surveys, one row per (site, year).

    Parameters
    ----------
    counts : array of shape (n_rows, n_surveys)
        Observed counts; NaN marks a survey that was not carried out.
    site : array of shape (n_rows,), optional
        Integer site labels. Defaults to 0..n_rows-1.
    year : array of shape (n_rows,), optional
        Integer year labels. Defaults to all zeros.
    """

    counts: np.ndarray
    site: np.ndarray | None = None
    year: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 1:
            raise ModelError("counts must be a 2-d array with at least one row and one survey")
        mask = ~np.isnan(counts)
        observed = counts[mask]
        if observed.size and (
            np.any(~np.isfinite(observed))
            or np.any(observed < 0)
            or np.any(observed != np.floor(observed))
        ):
            raise ModelError("observed counts must be non-negative integers")
        if np.any(~mask.any(axis=1)):
            bad = int(np.flatnonzero(~mask.any(axis=1))[0])
            raise ModelError(f"row {bad} has no observed surveys; drop it before modelling")
        n = counts.shape[0]
        # 1-based defaults, matching the labels reports are indexed by
        site = np.arange(1, n + 1) if self.site is None else np.asarray(self.site, dtype=int)
        year = np.ones(n, dtype=int) if self.year is None else np.asarray(self.year, dtype=int)
        if site.shape != (n,) or year.shape != (n,):
            raise ModelError("site and year labels must be 1-d with one entry per row")
        object.__setattr__(self, "counts", _frozen_array(counts))
        object.__setattr__(self, "site", _frozen_array(site, dtype=int))
        object.__setattr__(self, "year", _frozen_array(year, dtype=int))

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_surveys(self) -> int:
        return self.counts.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """Boolean array, True where a survey was carried out."""
        return ~np.isnan(self.counts)

    def filled_counts(self) -> np.ndarray:
        """Counts with missing cells replaced by 0 (they are masked out downstream)."""
        return np.where(self.mask, self.counts, 0.0)

    def row_max(self) -> np.ndarray:
        """Largest observed count per row; lower bound for the latent abundance."""
        return np.max(np.where(self.mask, self.counts, -np.inf), axis=1)


@dataclass(frozen=True)
class DesignMatrices:
    """Covariate designs for the two linear predictors.

    ``abundance_design`` has shape (n_rows, p_lambda) and feeds the log
    link; ``detection_design`` has shape (n_rows, n_surveys, p_detect)
    and feeds the logit link.  Intercepts are explicit columns of ones,
    never implied.
    """

    abundance_design: np.ndarray
    detection_design: np.ndarray
    abundance_names: tuple[str, ...] | None = None
    detection_names: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.abundance_design, dtype=float)
        d = np.asarray(self.detection_design, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1:
            raise ModelError("abundance design must be 2-d with at least one column")
        if d.ndim != 3 or d.shape[2] < 1:
            raise ModelError("detection design must be 3-d with at least one column")
        if a.shape[0] != d.shape[0]:
            raise ModelError(
                f"designs disagree on row count: {a.shape[0]} vs {d.shape[0]}"
            )
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(d)):
            raise ModelError("design matrices must be finite everywhere")
        for names, width, label in (
            (self.abundance_names, a.shape[1], "abundance"),
            (self.detection_names, d.shape[2], "detection"),
        ):
            if names is not None and len(names) != width:
                raise ModelError(f"{label} names must match the design width {width}")
        object.__setattr__(self, "abundance_design", _frozen_array(a))
        object.__setattr__(self, "detection_design", _frozen_array(d))
        if self.abundance_names is not None:
            object.__setattr__(self, "abundance_names", tuple(self.abundance_names))
        if self.detection_names is not None:
            object.__setattr__(self, "detection_names", tuple(self.detection_names))

    @property
    def n_rows(self) -> int:
        return self.abundance_design.shape[0]

    @property
    def n_surveys(self) -> int:
        return self.detection_design.shape[1]

    @property
    def p_lambda(self) -> int:
        return self.abundance_design.shape[1]

    @property
    def p_detect(self) -> int:
        return self.detection_design.shape[2]


@dataclass(frozen=True)
class ParameterVector:
    """Stacked model parameters: beta (abundance), alpha (detection), log_theta.

    ``log_theta`` is None for the Poisson family and the log of the
    negative binomial size parameter otherwise.  Larger theta means less
    overdispersion; the Poisson model is the theta -> infinity limit.
    """

    beta: np.ndarray
    alpha: np.ndarray
    log_theta: float | None = None

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if beta.ndim != 1 or beta.size < 1 or alpha.ndim != 1 or alpha.size < 1:
            raise ModelError("beta and alpha must be non-empty 1-d arrays")
        if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(alpha)):
            raise ModelError("parameters must be finite")
        if self.log_theta is not None and not np.isfinite(self.log_theta):
            raise ModelError("log_theta must be finite or None")
        object.__setattr__(self, "beta", _frozen_array(beta))
        object.__setattr__(self, "alpha", _frozen_array(alpha))
        if self.log_theta is not None:
            object.__setattr__(self, "log_theta", float(self.log_theta))

    @property
    def theta(self) -> float | None:
        return None if self.log_theta is None else float(np.exp(self.log_theta))

    @property
    def n_params(self) -> int:
        return self.beta.size + self.alpha.size + (0 if self.log_theta is None else 1)

    def to_array(self) -> np.ndarray:
        parts = [self.beta, self.alpha]
        if self.log_theta is not None:
            parts.append(np.array([self.log_theta]))
        return np.concatenate(parts)

    @classmethod
    def from_array(
        cls, x: np.ndarray, p_lambda: int, p_detect: int, has_dispersion: bool
    ) -> "ParameterVector":
        x = np.asarray(x, dtype=float)
        expected = p_lambda + p_detect + (1 if has_dispersion else 0)
        if x.shape != (expected,):
            raise ModelError(f"expected a stacked vector of length {expected}, got {x.shape}")
        log_theta = float(x[-1]) if has_dispersion else None
        return cls(beta=x[:p_lambda], alpha=x[p_lambda : p_lambda + p_detect], log_theta=log_theta)


def stacked_parameter_names(
    designs: DesignMatrices, family: MixtureFamily
) -> tuple[str, ...]:
    """Names for the stacked (beta, alpha, log_theta) vector, for reports."""
    a_names = designs.abundance_names or tuple(
        f"x{i}" for i in range(designs.p_lambda)
    )
    d_names = designs.detection_names or tuple(
        f"x{i}" for i in range(designs.p_detect)
    )
    names = [f"lambda:{n}" for n in a_names] + [f"p:{n}" for n in d_names]
    if family.has_dispersion:
        names.append("log_theta")
    return tuple(names)


def lambda_from_predictor(eta: np.ndarray, unit: str = "row") -> np.ndarray:
    """Abundance means exp(eta); NumericError names the first ``unit`` whose
    log-link predictor overflows exp()."""
    if np.any(eta > LOG_LAMBDA_MAX):
        bad = int(np.argmax(eta))
        raise NumericError(
            f"abundance linear predictor {eta[bad]:.6g} at {unit} {bad} overflows exp()"
        )
    return np.exp(eta)


def p_from_predictor(eta: np.ndarray) -> np.ndarray:
    """Detection probabilities expit(eta), clamped away from 0 and 1."""
    return np.clip(expit(eta), P_CLAMP, 1.0 - P_CLAMP)


def lambda_values(params: ParameterVector, designs: DesignMatrices) -> np.ndarray:
    """Abundance means exp(X beta) for every row; NumericError names a row
    whose linear predictor overflows exp()."""
    if params.beta.size != designs.p_lambda:
        raise ModelError(
            f"beta has length {params.beta.size} but the abundance design has "
            f"{designs.p_lambda} columns"
        )
    return lambda_from_predictor(designs.abundance_design @ params.beta)


def detection_probs(params: ParameterVector, designs: DesignMatrices) -> np.ndarray:
    """Detection probabilities expit(W alpha), clamped away from 0 and 1."""
    if params.alpha.size != designs.p_detect:
        raise ModelError(
            f"alpha has length {params.alpha.size} but the detection design has "
            f"{designs.p_detect} columns"
        )
    return p_from_predictor(designs.detection_design @ params.alpha)
