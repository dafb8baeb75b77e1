"""Candidate sets and the per-size minimum-RSS search.

The selectors only ever need, for each model size s, the size-s subset
with minimum RSS.  One exact search produces that table over all 2^p
subsets: a leaps-and-bounds search (after Furnival & Wilson, 1974) that
prunes with the RSS-nesting bound (the residual sum of squares of a
partial model's most complete extension is a floor for every model in
between), which is what makes p = 20..30 Monte Carlo runs cheap.

The search walks the inclusion/exclusion tree with Gaussian sweeps of
the augmented Gram matrix [[G, b], [b', tss]].  Each node carries two
swept blocks over its undecided variables plus y: the floor
(swept on the variables decided in) and the ceiling (the full-model
sweep with the variables decided out unswept).  Including a variable is
one rank-1 sweep of the floor, excluding it one rank-1 unsweep of the
ceiling, and a node's RSS is the [y, y] entry, so no node solves a
linear system.  Nodes advance one tree level at a time, a block of up to
_BLOCK nodes per numpy call, from a depth-first stack of blocks.

Intercepts are handled exactly by centering: the RSS of a subset fitted
with an intercept equals the RSS of the centered regression on the same
columns, so the search runs on the centered Gram matrix and winners are
re-fit by QR; those fits are the table's entries.  The refits of one
call are stacked by model size, across its datasets when it is given
several of one shape, and each carries the bits a lone fit_subset gives.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LimitExceededError
from .linalg import Dataset, FitSummary, Mask, _fit_stack, as_mask

log = logging.getLogger(__name__)

# most predictors for an exhaustive search: at p = 30 one takes 55 MB and ~1 s
# on the paper's designs, 27 s with all 30 strongly active (2-core x86, numpy 2.4)
SUBSET_LIMIT = 30

# a sweep pivot at or below this fraction of its column's centered sum of
# squares (1 - R^2 on the variables swept before it) marks a collinear subset
_PIVOT_TOL = 1e-10

# tree nodes per block of the search: bounds its memory and keeps the
# incumbents improving in near depth-first order
_BLOCK = 128


@dataclass(frozen=True)
class CandidateSet:
    """Which models to consider.

    kind is "all" (every subset; best_per_size refuses it beyond
    SUBSET_LIMIT predictors) or "explicit" (a fixed list of masks, e.g. a
    lasso path, each sorted and deduplicated, duplicates dropped).
    """

    kind: str
    masks: tuple[Mask, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("all", "explicit"):
            raise DimensionMismatchError(f"unknown candidate kind {self.kind!r}")
        if self.kind == "explicit":
            if self.masks is None:
                raise DimensionMismatchError("explicit candidate set needs masks")
            masks = (tuple(sorted({int(i) for i in m})) for m in self.masks)
            object.__setattr__(self, "masks", tuple(dict.fromkeys(masks)))
        elif self.masks is not None:
            raise DimensionMismatchError(f"kind {self.kind!r} does not take masks")

    @classmethod
    def all_subsets(cls) -> "CandidateSet":
        return cls(kind="all")

    @classmethod
    def explicit(cls, masks) -> "CandidateSet":
        return cls(kind="explicit", masks=tuple(tuple(m) for m in masks))


@dataclass(frozen=True)
class PerSizeBest:
    """The QR fit of the minimum-RSS subset per size; sizes with no usable candidate are missing."""

    entries: dict[int, FitSummary]
    skipped: int = 0
    # search tree nodes evaluated, floors plus ceilings (0 for an explicit
    # list): the search's work, independent of the machine
    nodes: int = 0

    def sizes(self) -> list[int]:
        return sorted(self.entries)


def _centered(data: Dataset):
    Xc = data.X - data.X.mean(axis=0)
    yc = data.y - data.y.mean()
    # einsum sums every entry in one order, so identical columns get
    # identical Gram rows and exact ties stay exact; BLAS products do not
    G = np.einsum("ij,ik->jk", Xc, Xc)
    return G, np.einsum("ij,i->j", Xc, yc), float(yc @ yc)


def _sweep(W: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Sweep a stack of symmetric (m, m) matrices in place on their first m-1 indices.

    A pivot at or below _PIVOT_TOL * diag is collinear and stays unswept,
    so the [y, y] entry becomes the RSS of projecting y on the others.
    Returns, per matrix, whether every pivot was swept.
    """
    clean = np.ones(W.shape[0], dtype=bool)
    for k in range(W.shape[1] - 1):
        piv = W[:, k, k].copy()
        ok = piv > _PIVOT_TOL * diag[k]
        clean &= ok
        col = np.divide(W[:, :, k], piv[:, None], out=np.zeros(W.shape[:2]), where=ok[:, None])
        W -= W[:, :, k, None] * col[:, None, :]
        W[:, :, k] = col
        W[:, k, :] = col
        W[:, k, k] = np.divide(-1.0, piv, out=np.zeros_like(piv), where=ok)
    return clean


def _leaps_and_bounds(G, b, tss, p: int) -> tuple[list[Mask | None], int, int]:
    """Pruned exhaustive search over the inclusion/exclusion tree.

    A node at depth d has decided order[:d]; its floor is the decided-in
    set and its ceiling the floor plus order[d:].  Evaluating a node gives
    its include child's floor and its exclude child's ceiling; both are
    registered, and a child is expanded only if its ceiling RSS could
    still beat or tie the incumbent at some reachable size, so ties
    survive and the lexicographic rule stays exact.  A child with one
    undecided variable is not expanded: its children repeat registered
    sets.  Returns the per-size masks, the collinear subsets skipped and
    the nodes evaluated.
    """
    diag = np.diag(G)
    score = np.divide(b * b, diag, out=np.zeros_like(b), where=diag > 0)
    order = np.argsort(-score, kind="stable")
    gdiag = diag[order]
    # row d marks order[d]; tail[d] marks order[d:]
    first = np.eye(p, dtype=bool)[order]
    tail = np.logical_or.accumulate(first[::-1], axis=0)[::-1]

    best_rss = np.full(p + 1, np.inf)
    best_set = [None] * (p + 1)  # per size, the winner as a bool row over the p columns
    best_rss[0] = tss
    best_set[0] = np.zeros(p, dtype=bool)

    def register(rss, size, ok, inset, extra) -> None:
        hit = rss <= best_rss[size]
        if ok is not None:
            hit &= ok
        for i in hit.nonzero()[0].tolist():
            s, r = size[i], rss[i]
            if r > best_rss[s]:
                continue
            cand = inset[i] | extra
            if r == best_rss[s]:
                # equal sizes: the set holding the first differing column sorts first
                k = (cand != best_set[s]).argmax()
                if not cand[k]:
                    continue
            best_rss[s] = r
            best_set[s] = cand

    M = np.empty((1, p + 1, p + 1))
    M[0, :p, :p] = G[np.ix_(order, order)]
    M[0, :p, p] = M[0, p, :p] = b[order]
    M[0, p, p] = tss
    T = M.copy()
    full_ok = _sweep(T, gdiag)
    ceil = T[:, p, p].copy()
    if not full_ok[0]:
        # a collinear full design has no ceiling chain to unsweep; each
        # ceiling is then the projection RSS of a fresh sweep of its floor
        T = None
    inset = np.zeros((1, p), dtype=bool)
    nin = np.zeros(1, dtype=np.intp)
    skipped = int(not full_ok[0])
    nodes = 2
    if p:
        register(ceil, nin + p, full_ok, inset, tail[0])
    stack = [(0, M, T, inset, nin, ceil)] if p >= 2 else []
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            d, S, T, inset, nin, ceil = stack.pop()
            n = len(nin)
            nodes += 2 * n
            # include order[d]: sweep it into the floor
            piv = S[:, 0, 0]
            inc_ok = piv > _PIVOT_TOL * gdiag[d]
            sy = S[:, -1, 0]
            floor = S[:, -1, -1] - sy * (sy / piv)
            # exclude order[d]: unsweep it from the ceiling
            if T is not None:
                ty = T[:, -1, 0]
                cex = T[:, -1, -1] - ty * (ty / T[:, 0, 0])
                exc_ok = None
            else:
                W = S[:, 1:, 1:].copy()
                exc_ok = _sweep(W, gdiag[d + 1 :])
                cex = W[:, -1, -1]
                skipped += n - int(np.count_nonzero(exc_ok))
            skipped += n - int(np.count_nonzero(inc_ok))
            register(floor, nin + 1, inc_ok, inset, first[d])
            register(cex, nin + (p - d - 1), exc_ok, inset, tail[d + 1])
            if d + 2 >= p:
                continue
            # reach[lo]: the worst incumbent over sizes lo .. lo+p-d-1, which a
            # child with floor size lo can reach (a sliding-window view of best_rss)
            window = np.ndarray((d + 2, p - d), best_rss.dtype, best_rss, 0, best_rss.strides * 2)
            reach = window.max(axis=1)
            ki = (inc_ok & (ceil <= reach[nin + 1])).nonzero()[0]
            ke = (cex <= reach[nin]).nonzero()[0]
            idx = np.concatenate((ki, ke))
            if not len(idx):
                continue
            m = len(ki)
            S2 = S[idx, 1:, 1:]
            a = S[ki, 1:, 0]
            S2[:m] -= a[:, :, None] * (a / piv[ki, None])[:, None, :]
            T2 = None
            if T is not None:
                T2 = T[idx, 1:, 1:]
                c = T[ke, 1:, 0]
                T2[m:] -= c[:, :, None] * (c / T[ke, 0, 0, None])[:, None, :]
            inset2 = inset[idx]
            inset2[:m] |= first[d]
            nin2 = nin[idx]
            nin2[:m] += 1
            ceil2 = np.concatenate((ceil[ki], cex[ke]))
            # include-children end up on top of the stack
            for lo in reversed(range(0, len(idx), _BLOCK)):
                hi = lo + _BLOCK
                stack.append((d + 1, S2[lo:hi], None if T2 is None else T2[lo:hi],
                              inset2[lo:hi], nin2[lo:hi], ceil2[lo:hi]))
    masks = [None if row is None else tuple(row.nonzero()[0].tolist()) for row in best_set]
    return masks, skipped, nodes


def _fit_tables(datas, searches) -> list[PerSizeBest]:
    """QR-fit each dataset's masks, stacking same-size masks across datasets.

    searches holds one (masks, skipped, nodes) per dataset.  Per dataset,
    keeps the lowest RSS per size, ties to the smaller mask.
    """
    by_size: dict[int, list[tuple[int, Mask]]] = {}
    for d, (masks, _, _) in enumerate(searches):
        for mask in masks:
            by_size.setdefault(len(mask), []).append((d, mask))
    fits: dict[tuple[int, Mask], FitSummary | None] = {}
    for pairs in by_size.values():
        fits.update(zip(pairs, _fit_stack([datas[d] for d, _ in pairs], [m for _, m in pairs])))
    tables = []
    for d, (masks, skipped, nodes) in enumerate(searches):
        entries: dict[int, FitSummary] = {}
        for mask in masks:
            fit = fits[d, mask]
            if fit is None:
                skipped += 1
                continue
            s = len(fit.mask)
            cur = entries.get(s)
            if cur is None or fit.rss < cur.rss or (fit.rss == cur.rss and fit.mask < cur.mask):
                entries[s] = fit
        if skipped:
            log.info("skipped %d rank-deficient subset(s)", skipped)
        log.debug("search evaluated %d node(s), skipped %d subset(s)", nodes, skipped)
        tables.append(PerSizeBest(entries=entries, skipped=skipped, nodes=nodes))
    return tables


def best_per_size(
    data: Dataset | Sequence[Dataset], cands: CandidateSet
) -> PerSizeBest | list[PerSizeBest]:
    """The minimum-RSS subset at every size present in the candidate set.

    "all" runs the leaps-and-bounds search, and raises LimitExceededError
    beyond SUBSET_LIMIT predictors; "explicit" fits each listed mask.

    Parameters
    ----------
    data : Dataset, or a sequence of Datasets of one shape
        A sequence is searched one dataset at a time, and the winners of
        all of them are fitted together: one stacked QR per model size.
    cands : CandidateSet

    Returns
    -------
    PerSizeBest, or for a sequence a list of them in its order
        Ties at equal RSS break to the lexicographically smallest sorted
        mask.  Rank-deficient masks are skipped and counted; each entry
        carries the bits fit_subset gives for its mask, and `nodes`
        counts the search's work.
    """
    if isinstance(data, Dataset):
        return _best_per_size([data], cands)[0]
    return _best_per_size(list(data), cands)


def _best_per_size(datas: list[Dataset], cands: CandidateSet) -> list[PerSizeBest]:
    if not datas:
        return []
    if len({d.X.shape for d in datas}) > 1:
        raise DimensionMismatchError("datasets fitted together must share one shape")
    p = datas[0].p
    if cands.kind == "explicit":
        masks = [as_mask(m, p) for m in cands.masks]
        return _fit_tables(datas, [(masks, 0, 0)] * len(datas))
    if p > SUBSET_LIMIT:
        raise LimitExceededError(
            f"exhaustive search over p={p} exceeds the limit of {SUBSET_LIMIT}"
        )
    searches = []
    for d in datas:
        G, b, tss = _centered(d)
        masks, skipped, nodes = _leaps_and_bounds(G, b, tss, p)
        searches.append(([m for m in masks if m is not None], skipped, nodes))
    return _fit_tables(datas, searches)
