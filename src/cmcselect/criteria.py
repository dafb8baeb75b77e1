"""Model-selection criteria: the constrained-minimum selector and its rivals.

The selector treats model choice as a constrained optimization: among all
candidate subsets, pick the smallest one whose likelihood-ratio statistic

    lambda(M) = (RSS_M - RSS_full) / sigma2_hat

stays within the threshold kappa = q * F(1 - alpha; q, n - q), breaking
ties by lowest RSS.  Raising alpha tightens kappa and enlarges the chosen
model.  BIC, Mallows Cp (AIC-equivalent here), and adjusted R-squared are
provided for comparison; all four need only the per-size minimum-RSS
table, since each is monotone in RSS at fixed size.

Each rule is stated once, in cmc_from_table and ic_from_table, which
_decisions runs on a per-size table for select_many's reports and for
each Monte Carlo replicate; it runs cmc_from_table's two parts, _lambdas
and _smallest_feasible, so that one table's lambdas serve every alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ConfigError,
    DegenerateFitError,
    InconsistentStatisticError,
    InfeasibleCandidatesError,
)
from .fdist import FParams, f_quantile
from .linalg import Dataset, FitSummary, FullFit, Mask, _full_stats
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


def _lambda(rss: float, rss_full: float, sigma2: float, size: int) -> float:
    # tiny negative values from rounding clamp to zero; a submodel RSS
    # genuinely below the full-model RSS is a consistency violation
    if rss < rss_full - _LAMBDA_SLACK * rss_full:
        raise InconsistentStatisticError(f"size-{size} rss {rss} fell below full-model rss {rss_full}")
    return max(0.0, (rss - rss_full) / sigma2)


# cached with no bound: every Monte Carlo replicate asks its worker for the
# same thresholds, and a bounded cache evicts each of them once a request
# has more alphas than the bound
@functools.cache
def kappa(alpha: float, q: int, n: int) -> float:
    """Threshold q * F(1 - alpha; q, n - q); 0 at alpha=1, +inf at alpha=0.

    Each rule has one owner.  FParams raises DomainError for n <= q.
    f_quantile raises it for a NaN alpha or one outside [0, 1], and maps
    1 - alpha = 0 and 1 to 0 and +inf; an alpha at most 2**-53 below 0
    rounds to 1 - alpha = 1 and so gets +inf.
    """
    return q * f_quantile(1.0 - alpha, FParams(q, n - q))


def _alpha(a: float) -> float:
    """An alpha as labels and reports carry it: -0.0 is alpha 0, so it prints and labels as 0."""
    return a + 0.0


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
            out.extend(f"cmc_{_alpha(a):g}" for a in alphas)
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
    table: Mapping[int, tuple[Mask, float]], full: FullFit, kap: float
) -> tuple[int, dict[int, float]]:
    """Smallest size whose best subset has lambda <= kap; returns (size, per-size lambdas).

    table maps each model size to its best subset's (mask, rss).  A
    lambda below 0 by rounding clamps to 0; an RSS below the full-model
    RSS by more than _LAMBDA_SLACK relative raises
    InconsistentStatisticError.  Raises InfeasibleCandidatesError when no
    size is feasible (possible only for explicit candidate lists that
    omit an adequate model).
    """
    lambdas = _lambdas(table, full)
    return _smallest_feasible(lambdas, kap), lambdas


def _lambdas(table: Mapping[int, tuple[Mask, float]], full: FullFit) -> dict[int, float]:
    """cmc's per-size lambda table, in size order; it does not depend on alpha."""
    return {s: _lambda(table[s][1], full.rss, full.sigma2, s) for s in sorted(table)}


def _smallest_feasible(lambdas: Mapping[int, float], kap: float) -> int:
    """cmc's rule: the first size, in lambdas' size order, with lambda <= kap."""
    for s, lam in lambdas.items():
        if lam <= kap:
            return s
    raise InfeasibleCandidatesError(
        "no candidate model satisfies lambda <= kappa; "
        "explicit candidate lists must include an adequate model"
    )


def ic_from_table(
    table: Mapping[int, tuple[Mask, float]], full: FullFit, criterion: str
) -> tuple[int, dict[int, float]]:
    """Best size under "bic", "cp_aic" or "adjr2"; returns (size, per-size scores).

    table maps each model size to its best subset's (mask, rss).  BIC is
    n*ln(RSS/n) + k*ln(n), Cp is RSS/sigma2_hat - n + 2k, adjusted
    R-squared is 1 - (RSS/(n-k)) / (TSS/(n-1)), with k = size + 1.
    Adjusted R-squared is maximized, the others minimized.  An exact score
    tie across sizes goes to the lexicographically smaller mask, the rule
    best_per_size applies within a size.  Any other name raises ConfigError.
    """
    if criterion not in ("bic", "cp_aic", "adjr2"):
        raise ConfigError(f"no information criterion {criterion!r}; expected bic, cp_aic or adjr2")
    if not table:
        raise InfeasibleCandidatesError("candidate set produced no usable model")
    scores = {s: _score(criterion, rss, s + 1, full) for s, (_, rss) in table.items()}
    sign = -1.0 if criterion == "adjr2" else 1.0
    size = min(scores, key=lambda s: (sign * scores[s], table[s][0]))
    return size, scores


def _score(criterion: str, rss: float, k: int, full: FullFit) -> float:
    """One information criterion at one RSS with k coefficients; each formula is stated once."""
    n = full.n
    if criterion == "bic":
        if rss <= 0.0:
            raise DegenerateFitError("zero residual sum of squares; BIC undefined")
        return n * math.log(rss / n) + k * math.log(n)
    if criterion == "cp_aic":
        return rss / full.sigma2 - n + 2.0 * k
    return 1.0 - (rss / (n - k)) / (full.tss / (n - 1))


def select_many(
    data: Dataset,
    criteria=CRITERIA,
    alphas=(0.9,),
    candidates=None,
) -> list[SelectionReport]:
    """Every requested criterion on one dataset, from one search.

    One per-size table serves all criteria, and the full-model
    statistics come from its size-p RSS when it has one; each report's
    fit is the table entry of its chosen size.

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
    return _reports(best_per_size(data, candidates), criteria, alphas)


def _decisions(table: Mapping[int, tuple[Mask, float]], full: FullFit, criteria, alphas):
    """Each report's (criterion, alpha, kappa, size, scores), in labels_for order, from one table.

    alpha and kappa are None for the non-cmc criteria.  The cmc reports
    share one lambda table, computed once for all alphas.
    """
    for c in criteria:
        if c == "cmc":
            lambdas = _lambdas(table, full)
            for a in alphas:
                kap = kappa(a, full.q, full.n)
                yield (c, _alpha(a), kap, _smallest_feasible(lambdas, kap), lambdas)
        else:
            yield (c, None, None, *ic_from_table(table, full, c))


def _full(per_size: PerSizeBest) -> FullFit:
    """The full-model statistics of a table's dataset, from the full mask's RSS its fit kept.

    A collinear full design raises RankDeficientError, as full_fit does.
    """
    return _full_stats(per_size.data, per_size.full_rss)


def _reports(per_size: PerSizeBest, criteria, alphas) -> list[SelectionReport]:
    """One report per criterion and cmc alpha, in labels_for order, from one table.

    The request is not validated here; select_many does that.
    """
    decisions = list(_decisions(per_size.table, _full(per_size), criteria, alphas))
    entries = per_size.entries
    return [
        SelectionReport(
            criterion=c,
            alpha=a,
            chosen=entries[size].mask,
            fit=entries[size],
            lambda_=None if kap is None else scores[size],
            kappa=kap,
            scores=scores,
            per_size=per_size,
        )
        for c, a, kap, size, scores in decisions
    ]


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
