"""Candidate sets and the per-size minimum-RSS search.

The selectors only ever need, for each model size s, the size-s subset
with minimum RSS.  Two exact search paths produce that table over all
2^p subsets: a vectorized scan that solves the centered normal equations
for whole blocks of same-size subsets at once, and a depth-first
branch-and-bound that prunes with the RSS-nesting bound (the residual
sum of squares of a partial model's most complete extension is a floor
for every model in between).  Both return identical results; the pruned
path is the default and is what makes p = 20..30 Monte Carlo runs cheap.

Intercepts are handled exactly by centering: the RSS of a subset fitted
with an intercept equals the RSS of the centered regression on the same
columns, so searches run on the centered Gram matrix and winners are
re-fit through the QR path; those fits are the table's entries.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LimitExceededError, RankDeficientError
from .linalg import Dataset, FitSummary, Mask, fit_subset

log = logging.getLogger(__name__)

SUBSET_LIMIT_DEFAULT = 25

# searched RSS below -tol*TSS marks a numerically unusable (collinear) subset
_NEG_RSS_TOL = 1e-8

_CHUNK = 32768


@dataclass(frozen=True)
class CandidateSet:
    """Which models to consider.

    kind is "all" (every subset) or "explicit" (a fixed list of masks,
    e.g. a lasso path).  "all" refuses to run beyond `limit` predictors.
    """

    kind: str
    masks: tuple[Mask, ...] | None = None
    limit: int = SUBSET_LIMIT_DEFAULT

    def __post_init__(self) -> None:
        if self.kind not in ("all", "explicit"):
            raise DimensionMismatchError(f"unknown candidate kind {self.kind!r}")
        if self.kind == "explicit":
            if self.masks is None:
                raise DimensionMismatchError("explicit candidate set needs masks")
            deduped: list[Mask] = []
            seen = set()
            for m in self.masks:
                m = tuple(sorted(set(int(i) for i in m)))
                if m not in seen:
                    seen.add(m)
                    deduped.append(m)
            object.__setattr__(self, "masks", tuple(deduped))
        elif self.masks is not None:
            raise DimensionMismatchError(f"kind {self.kind!r} does not take masks")

    @classmethod
    def all_subsets(cls, limit: int = SUBSET_LIMIT_DEFAULT) -> "CandidateSet":
        return cls(kind="all", limit=limit)

    @classmethod
    def explicit(cls, masks) -> "CandidateSet":
        return cls(kind="explicit", masks=tuple(tuple(m) for m in masks))


@dataclass(frozen=True)
class PerSizeBest:
    """The QR fit of the minimum-RSS subset per size; sizes with no usable candidate are missing."""

    p: int
    entries: dict[int, FitSummary]
    skipped: int = 0

    def sizes(self) -> list[int]:
        return sorted(self.entries)


def _check_limit(data: Dataset, cands: CandidateSet) -> None:
    if cands.kind == "all" and data.p > cands.limit:
        raise LimitExceededError(
            f"exhaustive search over p={data.p} exceeds the limit of {cands.limit}"
        )


def _centered(data: Dataset):
    Xc = data.X - data.X.mean(axis=0)
    yc = data.y - data.y.mean()
    return Xc.T @ Xc, Xc.T @ yc, float(yc @ yc)


def _chunk_rss(G: np.ndarray, b: np.ndarray, tss: float, idx: np.ndarray) -> np.ndarray:
    """RSS for a block of same-size subsets; +inf where the Gram is unusable."""
    Gs = G[idx[:, :, None], idx[:, None, :]]
    bs = b[idx]
    try:
        sol = np.linalg.solve(Gs, bs[..., None])[..., 0]
        rss = tss - np.einsum("ij,ij->i", bs, sol)
    except np.linalg.LinAlgError:
        rss = np.empty(idx.shape[0])
        for i in range(idx.shape[0]):
            try:
                rss[i] = tss - bs[i] @ np.linalg.solve(Gs[i], bs[i])
            except np.linalg.LinAlgError:
                rss[i] = np.inf
    bad = ~np.isfinite(rss) | (rss < -_NEG_RSS_TOL * tss)
    if bad.any():
        rss = np.where(bad, np.inf, rss)
    return rss


def _scan_all(G, b, tss, p: int) -> tuple[list[Mask | None], np.ndarray, int]:
    """Unpruned exhaustive search: per-size batched solves in lexicographic order."""
    best_rss = np.full(p + 1, np.inf)
    best_mask: list[Mask | None] = [None] * (p + 1)
    best_rss[0] = tss
    best_mask[0] = ()
    skipped = 0
    for s in range(1, p + 1):
        combos = itertools.combinations(range(p), s)
        while True:
            block = list(itertools.islice(combos, _CHUNK))
            if not block:
                break
            idx = np.asarray(block, dtype=np.intp)
            rss = _chunk_rss(G, b, tss, idx)
            skipped += int(np.isinf(rss).sum())
            k = int(np.argmin(rss))
            # lexicographic order of generation makes "first strict min" the tie-break
            if rss[k] < best_rss[s]:
                best_rss[s] = rss[k]
                best_mask[s] = tuple(int(i) for i in idx[k])
    return best_mask, best_rss, skipped


def _branch_and_bound(G, b, tss, p: int) -> tuple[list[Mask | None], np.ndarray, int]:
    """Pruned exhaustive search over the inclusion/exclusion tree.

    Every visited node registers its floor (all decided-in variables) and
    ceiling (floor plus all undecided variables).  A child is explored only
    if its ceiling RSS could still beat or tie the incumbent at some
    reachable size; ties must survive so the lexicographic rule stays exact.
    """
    best_rss = np.full(p + 1, np.inf)
    best_mask: list[Mask | None] = [None] * (p + 1)
    best_rss[0] = tss
    best_mask[0] = ()
    skipped = 0

    diag = np.diag(G)
    score = np.divide(
        b * b, diag, out=np.zeros_like(b), where=diag > 0
    )
    order = [int(j) for j in np.argsort(-score, kind="stable")]
    solve = np.linalg.solve

    def rss_of(idx: list[int]) -> tuple[float, bool]:
        if not idx:
            return tss, True
        a = np.asarray(idx, dtype=np.intp)
        Gs = G[np.ix_(a, a)]
        bs = b[a]
        try:
            val = tss - float(bs @ solve(Gs, bs))
            if np.isfinite(val) and val >= -_NEG_RSS_TOL * tss:
                return val, True
        except np.linalg.LinAlgError:
            pass
        # collinear subset: not a reportable candidate, but its projection
        # RSS (minimum-norm solve) still lower-bounds every extension
        w = np.linalg.lstsq(Gs, bs, rcond=None)[0]
        return max(tss - float(bs @ w), 0.0), False

    def register(idx: list[int], rss: float, ok: bool) -> None:
        nonlocal skipped
        if not ok:
            skipped += 1
            return
        s = len(idx)
        if rss < best_rss[s]:
            best_rss[s] = rss
            best_mask[s] = tuple(sorted(idx))
        elif rss == best_rss[s]:
            m = tuple(sorted(idx))
            prev = best_mask[s]
            if prev is None or m < prev:
                best_mask[s] = m

    def walk(d: int, fixed: list[int], ceil_rss: float) -> None:
        if d == p:
            return
        j = order[d]
        child = fixed + [j]
        child_rss, ok = rss_of(child)
        register(child, child_rss, ok)
        lo = len(child)
        if not np.all(ceil_rss > best_rss[lo : lo + (p - d)]):
            walk(d + 1, child, ceil_rss)
        ceil_set = fixed + order[d + 1 :]
        new_ceil, ok = rss_of(ceil_set)
        register(ceil_set, new_ceil, ok)
        lo = len(fixed)
        if not np.all(new_ceil > best_rss[lo : lo + (p - d)]):
            walk(d + 1, fixed, new_ceil)

    full_rss, ok = rss_of(list(range(p)))
    register(list(range(p)), full_rss, ok)
    walk(0, [], full_rss)
    return best_mask, best_rss, skipped


def _fit_table(data: Dataset, masks, skipped: int) -> PerSizeBest:
    """QR-fit each mask and keep the lowest RSS per size, ties to the smaller mask."""
    entries: dict[int, FitSummary] = {}
    for mask in masks:
        try:
            fit = fit_subset(data, mask)
        except RankDeficientError:
            skipped += 1
            continue
        s = len(fit.mask)
        cur = entries.get(s)
        if cur is None or fit.rss < cur.rss or (fit.rss == cur.rss and fit.mask < cur.mask):
            entries[s] = fit
    if skipped:
        log.info("skipped %d rank-deficient subset(s)", skipped)
    return PerSizeBest(p=data.p, entries=entries, skipped=skipped)


def best_per_size(data: Dataset, cands: CandidateSet, prune: bool = True) -> PerSizeBest:
    """The minimum-RSS subset at every size present in the candidate set.

    Parameters
    ----------
    data : Dataset
    cands : CandidateSet
    prune : bool
        Use the branch-and-bound path (default).  The unpruned scan
        returns identical results and exists as its safety net.

    Returns
    -------
    PerSizeBest
        Ties at equal RSS break to the lexicographically smallest sorted
        mask.  Rank-deficient masks are skipped and counted; each entry is
        the fit_subset fit of its mask.
    """
    _check_limit(data, cands)
    if cands.kind == "explicit":
        return _fit_table(data, cands.masks, 0)
    G, b, tss = _centered(data)
    search = _branch_and_bound if prune else _scan_all
    masks, _, skipped = search(G, b, tss, data.p)
    return _fit_table(data, [m for m in masks if m is not None], skipped)
