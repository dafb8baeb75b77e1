"""Model-selection criteria: the constrained-minimum selector and its rivals.

The selector treats model choice as a constrained optimization: among all
candidate subsets, pick the smallest one whose likelihood-ratio statistic

    lambda(M) = (RSS_M - RSS_full) / sigma2_hat

stays within the threshold kappa = q * F(1 - alpha; q, n - q), breaking
ties by lowest RSS.  Raising alpha tightens kappa and enlarges the chosen
model.  BIC, Mallows Cp (AIC-equivalent here), and adjusted R-squared are
provided for comparison; all four need only the per-size minimum-RSS
table, since each is monotone in RSS at fixed size.

Each rule is stated once, over a (K, S) array of RSS: K tables, one per
row, column s holding size s, NaN where a table has no entry.  cmc is
_lambdas and _smallest_feasible, so that one table's lambdas serve every
alpha; BIC, Cp and adjusted R-squared are _scores, and the cross-size
tie rule is _best.  _decisions runs them for a whole request over K
tables at once: select_many's one row, or every replicate of a Monte
Carlo run in one pass.  _rates is the one rate rule, for classify and
for a run.  _caps restates a request's rules as exact per-size RSS caps,
which let a Monte Carlo chunk's search skip the sizes no report can
choose; the subsets module docstring says how the search applies them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

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


# cached with no bound: _decisions asks once per alpha per Monte Carlo run
# or select call, for a request's alphas in one order, so a bounded cache
# evicts each of them once a request has more alphas than the bound
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
    fir, far = _rates(len(truth - chosen), len(chosen - truth), len(truth), p)
    return RatePair(fir=float(fir), far=float(far))


def _rates(missed, extra, n_truth: int, p: int):
    """The rate rule: (FIR, FAR) from the true predictors missed and the inactive ones chosen.

    missed and extra are counts, or arrays of counts with one entry per
    replicate; an empty truth has FIR 0, a truth of all p predictors FAR 0.
    """
    fir = missed / n_truth if n_truth else 0.0 * missed
    far = extra / (p - n_truth) if p > n_truth else 0.0 * extra
    return fir, far


def _columns(table: Mapping[int, tuple[Mask, float]]) -> np.ndarray:
    """A per-size table as the rules read it: a (1, S) row of RSS by size, NaN at a size it lacks."""
    rss = np.full((1, max(table, default=-1) + 1), np.nan)
    rss[0, list(table)] = [r for _, r in table.values()]
    return rss


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
    lambdas = _lambdas(_columns(table), full)
    row = lambdas[0].tolist()
    return int(_smallest_feasible(lambdas, kap)[0]), {s: row[s] for s in sorted(table)}


def _lambdas(rss: np.ndarray, full: FullFit) -> np.ndarray:
    """cmc's statistic (RSS - RSS_full) / sigma2_hat over (K, S) tables; it does not depend on alpha.

    A missing entry (NaN) stays NaN.  The first entry, in row then size
    order, whose RSS undershoots the full model's by more than
    _LAMBDA_SLACK relative raises InconsistentStatisticError.
    """
    low = rss < full.rss - _LAMBDA_SLACK * full.rss
    if low.any():
        k, s = np.argwhere(low)[0]
        rss_full = np.broadcast_to(full.rss, (len(rss), 1))[k, 0]
        raise InconsistentStatisticError(
            f"size-{s} rss {float(rss[k, s])} fell below full-model rss {float(rss_full)}")
    # tiny negative values from rounding clamp to zero; + 0.0 turns the -0.0
    # np.maximum keeps into 0.0
    return np.maximum((rss - full.rss) / full.sigma2, 0.0) + 0.0


def _smallest_feasible(lambdas: np.ndarray, kap: float) -> np.ndarray:
    """cmc's rule: each table's smallest size with lambda <= kap; a missing size never is."""
    feasible = lambdas <= kap
    if not feasible.any(axis=1).all():
        raise InfeasibleCandidatesError(
            "no candidate model satisfies lambda <= kappa; "
            "explicit candidate lists must include an adequate model"
        )
    return feasible.argmax(axis=1)


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
    scores = _scores(criterion, _columns(table), full)
    row = scores[0].tolist()
    size = _best(criterion, scores, lambda k, s: table[s][0])[0]
    return int(size), {s: row[s] for s in sorted(table)}


def _scores(criterion: str, rss: np.ndarray, full: FullFit) -> np.ndarray:
    """One information criterion over (K, S) tables, each formula stated once; a missing entry stays NaN.

    BIC takes math.log of each entry: numpy's log differs from it in the
    last bit on some inputs, and a score would print differently.
    """
    n, k = full.n, np.arange(1, rss.shape[1] + 1)
    if criterion == "bic":
        if (rss <= 0.0).any():
            raise DegenerateFitError("zero residual sum of squares; BIC undefined")
        log = np.array([math.log(x) for x in (rss / n).ravel().tolist()]).reshape(rss.shape)
        return n * log + k * math.log(n)
    if criterion == "cp_aic":
        return rss / full.sigma2 - n + 2.0 * k
    return 1.0 - (rss / (n - k)) / (full.tss / (n - 1))


def _best(criterion: str, scores: np.ndarray, mask_of) -> np.ndarray:
    """Each table's best size: adjusted R-squared's largest score, the others' smallest.

    An exact tie across sizes goes to the lexicographically smaller mask,
    mask_of(k, s) being table k's size-s mask.  A table with no entry
    raises InfeasibleCandidatesError.
    """
    signed = -scores if criterion == "adjr2" else scores
    # fmin skips the missing entries; a table with none reduces to +inf, which no NaN equals
    hit = signed == np.fmin.reduce(signed, axis=1, initial=np.inf, keepdims=True)
    count = hit.sum(axis=1)
    if not count.all():
        raise InfeasibleCandidatesError("candidate set produced no usable model")
    sizes = hit.argmax(axis=1)
    for k in np.flatnonzero(count > 1).tolist():
        sizes[k] = min(np.flatnonzero(hit[k]).tolist(), key=lambda s: mask_of(k, s))
    return sizes


def _caps(criteria, alphas, n: int, p: int):
    """A request's per-size RSS caps, as a function of a search's incumbents (subsets._leaps_and_bounds).

    The function maps (K, p+1) incumbent RSS, inf where a size has none,
    column 0 the TSS and column p the full model's, to (K, p+1) caps: a
    size whose least RSS lies above its cap cannot be any report's choice,
    since the incumbents only fall.  Per criterion, with r the incumbents
    and sigma2 = r_p / (n - p - 1), each rule rewritten with no log or exp:

    - BIC: min_j(r_j w_j) / w_s, w_j = n^((j+1)/n);
    - Cp: min_j(r_j + 2 sigma2 (j+1)) - 2 sigma2 (s+1);
    - adjusted R-squared: min_j(r_j / (n-j-1)) * (n-s-1);
    - cmc at each alpha: r_p + kappa sigma2 below the incumbents' cmc
      size, no cap at that size, and nothing above it.

    A size's cap is the largest over the request: -inf where no report
    can choose the size, +inf at a size left uncapped.  The caps are
    exact; subsets._search owns their rounding (see the subsets module
    docstring).
    """
    size = np.arange(p + 1)
    # BIC's and adjusted R-squared's caps are min_j(r_j c_j) / c_s, one row of c each
    scale = [c for crit, c in (("bic", float(n) ** ((size + 1) / n)),
                               ("adjr2", 1.0 / (n - size - 1.0))) if crit in criteria]
    pen = 2.0 * (size + 1) if "cp_aic" in criteria else None
    kaps = np.array([kappa(a, p + 1, n) for a in alphas]) if "cmc" in criteria else None

    def caps(rss: np.ndarray) -> np.ndarray:
        sigma2 = rss[:, p, None] / (n - p - 1)
        out = np.full(rss.shape, -np.inf)
        for c in scale:
            np.maximum(out, (rss * c).min(axis=1, keepdims=True) / c, out=out)
        if pen is not None:
            cp = sigma2 * pen
            np.maximum(out, (rss + cp).min(axis=1, keepdims=True) - cp, out=out)
        if kaps is not None:
            # (K, alphas): each alpha's limit on the RSS, and the incumbents' cmc size
            limit = rss[:, p, None] + sigma2 * kaps
            at = (rss[:, :, None] <= limit[:, None, :]).argmax(axis=1)
            # size s's cap is the largest limit whose size lies above s
            above = np.where(size[:, None] < at[:, None, :], limit[:, None, :], -np.inf)
            np.maximum(out, above.max(axis=2), out=out)
            out[np.arange(len(rss))[:, None], at] = np.inf
        return out

    return caps


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


def _decisions(rss: np.ndarray, full: FullFit, criteria, alphas, mask_of):
    """Each report's (criterion, alpha, kappa, sizes, scores), in labels_for order, for K tables at once.

    rss (K, S) holds table k's RSS at size s in row k, column s, NaN
    where the table has no such size; full's rss, sigma2 and tss are
    floats or (K, 1) columns.  sizes (K,) are the chosen sizes and scores
    the (K, S) criterion values; alpha and kappa are None for the non-cmc
    criteria.  The cmc reports share one lambda array, computed once for
    all alphas.  mask_of(k, s) is table k's size-s mask, read only to
    break an exact cross-size score tie.
    """
    for c in criteria:
        if c == "cmc":
            lambdas = _lambdas(rss, full)
            for a in alphas:
                kap = kappa(a, full.q, full.n)
                yield (c, _alpha(a), kap, _smallest_feasible(lambdas, kap), lambdas)
        else:
            scores = _scores(c, rss, full)
            yield (c, None, None, _best(c, scores, mask_of), scores)


def _reports(per_size: PerSizeBest, criteria, alphas) -> list[SelectionReport]:
    """One report per criterion and cmc alpha, in labels_for order, from one table.

    The request is not validated here; select_many does that.
    """
    fits, row = per_size.fits, per_size.row
    # the table's row of the call's arrays; full's statistics are (1, 1) columns
    full = _full_stats(per_size.data.n, fits.rss.shape[1], fits.full_rss[[row], None], fits.tss[[row], None])
    decisions = list(_decisions(fits.rss[[row]], full, criteria, alphas, lambda k, s: fits.mask(row, s)))
    entries = per_size.entries
    sizes = per_size.sizes()
    reports = []
    for c, a, kap, chosen, values in decisions:
        size = int(chosen[0])
        row = values[0].tolist()
        reports.append(SelectionReport(
            criterion=c,
            alpha=a,
            chosen=entries[size].mask,
            fit=entries[size],
            lambda_=None if kap is None else row[size],
            kappa=kap,
            scores={s: row[s] for s in sizes},
            per_size=per_size,
        ))
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
