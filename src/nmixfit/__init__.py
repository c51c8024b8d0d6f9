"""N-mixture abundance models for repeated count surveys.

Counts y_ij from survey j of row i (a site-year) are modelled as
Binomial(N_i, p_ij) draws from a latent abundance N_i with a Poisson or
negative binomial distribution.  The marginal likelihood sums N out by
a ratio recursion; models are fit by maximum likelihood or a Laplace
approximation to the posterior under normal coefficient priors.
"""

from .errors import DataError, ModelError, NmixError, NumericError
from .fitcore import FitOptions, FitResult
from .io import Dataset, build_designs, parse_config, read_dataset, write_dataset
from .laplace import (
    LambdaFittedSummary,
    PosteriorSamples,
    PriorSpec,
    fit_laplace,
    lambda_fitted,
    posterior_n,
    sample_posterior,
)
from .likelihood import (
    DEFAULT_TRUNCATION,
    RowLikelihoodInput,
    TruncationPolicy,
    row_loglik_bruteforce,
    row_loglik_detail,
    row_loglik_recursive,
    table_loglik,
    table_loglik_hessian,
    table_loglik_score,
    table_row_logliks,
)
from .mle import ParameterSummary, fit_ml, format_fit_summary, summarize_fit
from .model import (
    DesignMatrices,
    MixtureFamily,
    ObservationTable,
    ParameterVector,
    detection_probs,
    lambda_values,
)
from .simulate import SimConfig, SimOutput, simulate

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "Dataset",
    "DesignMatrices",
    "DEFAULT_TRUNCATION",
    "FitOptions",
    "FitResult",
    "LambdaFittedSummary",
    "MixtureFamily",
    "ModelError",
    "NmixError",
    "NumericError",
    "ObservationTable",
    "ParameterSummary",
    "ParameterVector",
    "PosteriorSamples",
    "PriorSpec",
    "RowLikelihoodInput",
    "SimConfig",
    "SimOutput",
    "TruncationPolicy",
    "build_designs",
    "detection_probs",
    "fit_laplace",
    "fit_ml",
    "format_fit_summary",
    "lambda_fitted",
    "lambda_values",
    "parse_config",
    "posterior_n",
    "read_dataset",
    "row_loglik_bruteforce",
    "row_loglik_detail",
    "row_loglik_recursive",
    "sample_posterior",
    "simulate",
    "summarize_fit",
    "table_loglik",
    "table_loglik_hessian",
    "table_loglik_score",
    "table_row_logliks",
    "write_dataset",
]
