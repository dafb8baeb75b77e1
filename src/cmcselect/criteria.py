"""Model-selection criteria: the constrained-minimum selector and its rivals.

The selector treats model choice as a constrained optimization: among all
candidate subsets, pick the smallest one whose likelihood-ratio statistic

    lambda(M) = (RSS_M - RSS_full) / sigma2_hat

stays within the threshold kappa = q * F(1 - alpha; q, n - q), breaking
ties by lowest RSS.  Raising alpha tightens kappa and enlarges the chosen
model.  BIC, Mallows Cp (AIC-equivalent here), and adjusted R-squared are
provided for comparison; all four need only the per-size minimum-RSS
table, since each is monotone in RSS at fixed size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InconsistentStatisticError,
    InfeasibleCandidatesError,
)
from .fdist import FParams, f_cdf, f_quantile
from .linalg import Dataset, FitSummary, FullFit, Mask, full_fit
from .subsets import PerSizeBest, best_per_size

CRITERIA = ("adjr2", "cp_aic", "bic", "cmc")

# submodel RSS may undershoot the full-model RSS by at most this relative slack
_LAMBDA_SLACK = 1e-9


@dataclass(frozen=True)
class RatePair:
    """(false inactive rate, false active rate), both in [0, 1]."""

    fir: float
    far: float

    def __iter__(self):
        yield self.fir
        yield self.far


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Outcome of one criterion on one dataset.

    scores maps model size to the criterion value at that size's best
    subset (the lambda statistic for cmc); lambda_ and kappa are None for
    the non-cmc criteria.
    """

    criterion: str
    alpha: float | None
    chosen: Mask
    fit: FitSummary
    lambda_: float | None
    kappa: float | None
    scores: Mapping[int, float]
    per_size: PerSizeBest


def _lambda(rss: float, rss_full: float, sigma2: float, what: str) -> float:
    # tiny negative values from rounding clamp to zero; a submodel RSS
    # genuinely below the full-model RSS is a consistency violation
    if rss < rss_full - _LAMBDA_SLACK * rss_full:
        raise InconsistentStatisticError(f"{what} rss {rss} fell below full-model rss {rss_full}")
    return max(0.0, (rss - rss_full) / sigma2)


def lambda_stat(fit: FitSummary, rss_full: float, sigma2: float) -> float:
    """Likelihood-ratio statistic of a submodel fit against the full model.

    Tiny negative values from rounding clamp to zero; a submodel RSS
    genuinely below the full-model RSS is a consistency violation.
    """
    if sigma2 <= 0.0:
        raise DegenerateFitError(f"sigma2 must be positive, got {sigma2}")
    return _lambda(fit.rss, rss_full, sigma2, "submodel")


# cached: every Monte Carlo replicate asks its worker for the same few thresholds
@functools.lru_cache
def kappa(alpha: float, q: int, n: int) -> float:
    """Threshold q * F(1 - alpha; q, n - q); 0 at alpha=1, +inf at alpha=0.

    Each rule has one owner.  FParams raises DomainError for n <= q.
    f_quantile raises it for a NaN alpha or one outside [0, 1], and maps
    1 - alpha = 0 and 1 to 0 and +inf; an alpha at most 2**-53 below 0
    rounds to 1 - alpha = 1 and so gets +inf.
    """
    return q * f_quantile(1.0 - alpha, FParams(q, n - q))


def alpha_schedule(n: int, delta: float, q: int) -> float:
    """The decaying alpha level with 1 - alpha_n = P(F(q, n-q) <= n**delta).

    n <= q raises DomainError from FParams, before any overflow shortcut.
    """
    params = FParams(q, n - q)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive and finite, got {delta!r}")
    try:
        f = float(n) ** delta
    except OverflowError:
        # n**delta is beyond the float range, where the F tail is 0
        return 0.0
    return 1.0 - f_cdf(f, params)


def labels_for(criteria, alphas) -> tuple[str, ...]:
    """One result label per report: the criterion name, or cmc_<alpha:g> for each cmc alpha.

    This is the one check of a selection request.  Raises ConfigError
    for an unknown criterion, cmc without alphas, any alpha outside
    [0, 1] (cmc requested or not), or two reports with the same label.
    """
    out: list[str] = []
    for c in criteria:
        if c not in CRITERIA:
            raise ConfigError(f"unknown criterion {c!r}; expected one of {CRITERIA}")
        if c == "cmc":
            if not alphas:
                raise ConfigError("cmc requested but no alphas given")
            out.extend(f"cmc_{a:g}" for a in alphas)
        else:
            out.append(c)
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {a}")
    if len(set(out)) != len(out):
        raise ConfigError(f"duplicate result labels in {out}")
    return tuple(out)


def classify(chosen, truth, p: int) -> RatePair:
    """Misclassification rates of a chosen mask against the true active set."""
    chosen = set(chosen)
    truth = set(truth)
    fir = len(truth - chosen) / len(truth) if truth else 0.0
    far = len(chosen - truth) / (p - len(truth)) if p > len(truth) else 0.0
    return RatePair(fir=fir, far=far)


def cmc_from_table(
    per_size: PerSizeBest, full: FullFit, kap: float
) -> tuple[int, dict[int, float]]:
    """Smallest size whose best subset has lambda <= kap; returns (size, per-size lambdas).

    Raises InfeasibleCandidatesError when no size is feasible (possible
    only for explicit candidate lists that omit an adequate model).
    """
    lambdas: dict[int, float] = {}
    chosen_size = -1
    for s in sorted(per_size.entries):
        lam = _lambda(per_size.entries[s].rss, full.rss, full.sigma2, f"size-{s}")
        lambdas[s] = lam
        if chosen_size < 0 and lam <= kap:
            chosen_size = s
    if chosen_size < 0:
        raise InfeasibleCandidatesError(
            "no candidate model satisfies lambda <= kappa; "
            "explicit candidate lists must include an adequate model"
        )
    return chosen_size, lambdas


def ic_from_table(
    per_size: PerSizeBest, full: FullFit, criterion: str
) -> tuple[int, dict[int, float]]:
    """Best size under "bic", "cp_aic" or "adjr2"; returns (size, per-size scores).

    BIC is n*ln(RSS/n) + k*ln(n), Cp is RSS/sigma2_hat - n + 2k, adjusted
    R-squared is 1 - (RSS/(n-k)) / (TSS/(n-1)), with k = size + 1.
    Adjusted R-squared is maximized, the others minimized.  An exact score
    tie across sizes goes to the lexicographically smaller mask, the rule
    best_per_size applies within a size.  Any other name raises ConfigError.
    """
    if criterion not in ("bic", "cp_aic", "adjr2"):
        raise ConfigError(f"no information criterion {criterion!r}; expected bic, cp_aic or adjr2")
    if not per_size.entries:
        raise InfeasibleCandidatesError("candidate set produced no usable model")
    n = full.n
    scores: dict[int, float] = {}
    for s, entry in per_size.entries.items():
        k = s + 1
        if criterion == "bic":
            if entry.rss <= 0.0:
                raise DegenerateFitError("zero residual sum of squares; BIC undefined")
            scores[s] = n * math.log(entry.rss / n) + k * math.log(n)
        elif criterion == "cp_aic":
            scores[s] = entry.rss / full.sigma2 - n + 2.0 * k
        else:
            scores[s] = 1.0 - (entry.rss / (n - k)) / (full.tss / (n - 1))
    sign = -1.0 if criterion == "adjr2" else 1.0
    size = min(scores, key=lambda s: (sign * scores[s], per_size.entries[s].mask))
    return size, scores


def select_many(
    data: Dataset,
    criteria=CRITERIA,
    alphas=(0.9,),
    candidates=None,
) -> list[SelectionReport]:
    """Every requested criterion on one dataset, from one search.

    One per-size table serves all criteria, and the full-model
    statistics come from its size-p entry when it has one; each
    report's fit is the table entry of its chosen size.

    Parameters
    ----------
    data : Dataset
    criteria : sequence of {"adjr2", "cp_aic", "bic", "cmc"}
    alphas : sequence of floats in [0, 1], one cmc report per value
    candidates : None or iterable of masks
        None (the default) searches every subset; a list is fitted as
        listed.  See best_per_size.

    Returns
    -------
    list of SelectionReport
        In criteria order, cmc expanded to one report per alpha: the
        order of labels_for(criteria, alphas), which validates the request.
    """
    labels_for(criteria, alphas)
    return _reports(data, best_per_size(data, candidates), criteria, alphas)


def _reports(data: Dataset, per_size: PerSizeBest, criteria, alphas) -> list[SelectionReport]:
    """One report per criterion and cmc alpha, in labels_for order, from one table.

    The full-model statistics reuse the table's size-p entry when it has
    one; a collinear full design raises RankDeficientError.  The request
    is not validated here; select_many and run_monte_carlo do that.
    """
    full = full_fit(data, per_size.entries.get(data.p))

    def report(criterion, alpha, kap, size, scores) -> SelectionReport:
        fit = per_size.entries[size]
        return SelectionReport(
            criterion=criterion,
            alpha=alpha,
            chosen=fit.mask,
            fit=fit,
            lambda_=None if kap is None else scores[size],
            kappa=kap,
            scores=scores,
            per_size=per_size,
        )

    reports: list[SelectionReport] = []
    for c in criteria:
        if c == "cmc":
            for a in alphas:
                kap = kappa(a, full.q, full.n)
                reports.append(report(c, a, kap, *cmc_from_table(per_size, full, kap)))
        else:
            reports.append(report(c, None, None, *ic_from_table(per_size, full, c)))
    return reports


def cmc_select(data: Dataset, alpha: float = 0.9, candidates=None) -> SelectionReport:
    """Constrained-minimum selection at one alpha level.

    Returns the per-size best model at the smallest size whose lambda
    statistic is at or below kappa, with lambda_, kappa and the per-size
    lambda table filled in.  alpha=1 yields the full model, alpha=0 the
    intercept-only model; an alpha outside [0, 1] raises ConfigError.
    candidates is None (every subset) or a list of masks, as in
    best_per_size.
    """
    return select_many(data, ("cmc",), (alpha,), candidates)[0]


def bic_select(data: Dataset, candidates=None) -> SelectionReport:
    """Minimize n*ln(RSS/n) + k*ln(n) with k = size + 1."""
    return select_many(data, ("bic",), (), candidates)[0]


def cp_select(data: Dataset, candidates=None) -> SelectionReport:
    """Minimize RSS/sigma2_hat - n + 2k (Mallows Cp, equivalent to AIC here)."""
    return select_many(data, ("cp_aic",), (), candidates)[0]


def adjr2_select(data: Dataset, candidates=None) -> SelectionReport:
    """Maximize 1 - (RSS/(n-k)) / (TSS/(n-1))."""
    return select_many(data, ("adjr2",), (), candidates)[0]
