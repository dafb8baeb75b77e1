"""Best-subset variable selection for Gaussian linear models.

The selector picks the sparsest subset whose likelihood-ratio statistic
against the full model stays below an F-quantile threshold; BIC, Mallows
Cp, and adjusted R-squared are included for comparison, along with a
reproducible Monte Carlo harness for their error rates.
"""

__version__ = "0.1.0"

from .criteria import (
    CRITERIA,
    RatePair,
    SelectionReport,
    adjr2_select,
    bic_select,
    classify,
    cmc_from_table,
    cmc_select,
    cp_select,
    ic_from_table,
    kappa,
    labels_for,
    select_many,
)
from .datasets import PROSTATE_ENV, PROSTATE_RESPONSE, load_prostate
from .errors import (
    CmcError,
    ConfigError,
    ConstantColumnError,
    DegenerateFitError,
    DimensionMismatchError,
    DomainError,
    InconsistentStatisticError,
    InfeasibleCandidatesError,
    InputError,
    LimitExceededError,
    MissingResponseError,
    NumericalError,
    ParseError,
    RankDeficientError,
    TooFewRowsError,
)
from .fdist import FParams, f_cdf, f_quantile
from .linalg import (
    Dataset,
    FitSummary,
    FullFit,
    Mask,
    as_mask,
    fit_subset,
    full_fit,
    standardize,
)
from .simulate import MonteCarloResult, Scenario, run_monte_carlo
from .subsets import PerSizeBest, best_per_size

__all__ = [
    "CRITERIA",
    "CmcError",
    "ConfigError",
    "ConstantColumnError",
    "Dataset",
    "DegenerateFitError",
    "DimensionMismatchError",
    "DomainError",
    "FParams",
    "FitSummary",
    "FullFit",
    "InconsistentStatisticError",
    "InfeasibleCandidatesError",
    "InputError",
    "LimitExceededError",
    "Mask",
    "MissingResponseError",
    "MonteCarloResult",
    "NumericalError",
    "ParseError",
    "PerSizeBest",
    "RankDeficientError",
    "RatePair",
    "Scenario",
    "SelectionReport",
    "TooFewRowsError",
    "adjr2_select",
    "as_mask",
    "best_per_size",
    "bic_select",
    "classify",
    "cmc_from_table",
    "cmc_select",
    "cp_select",
    "f_cdf",
    "f_quantile",
    "fit_subset",
    "full_fit",
    "ic_from_table",
    "labels_for",
    "kappa",
    "load_prostate",
    "PROSTATE_ENV",
    "PROSTATE_RESPONSE",
    "run_monte_carlo",
    "select_many",
    "standardize",
]
