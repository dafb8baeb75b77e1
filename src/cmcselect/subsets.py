"""The per-size minimum-RSS search.

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
linear system.  The tree decides the strongest variables first, those
whose deletion from the full model costs the most RSS (the |t| order
Furnival & Wilson recommend), so good incumbents come early and prune
most of the tree.  Nodes advance one tree level at a time, a block of
nodes per numpy call, from a depth-first stack of blocks.

One call searches all its datasets in lockstep.  A block holds nodes of
one depth from one dataset or from several, each tagged with its owner,
so at small p, where one tree level is far below a block, one set of
numpy calls advances a whole Monte Carlo chunk.  One cut rule keeps the
results exact: the children of a block stay one block if they fit in
one; otherwise each dataset's children become blocks of that dataset
alone, cut at multiples of the block size as its lone search cuts them.
So every dataset sees the sequence of blocks its lone search sees, and
its masks, skips and node count are those of a one-dataset call.  Large
trees soon run in blocks of their own, and a one-dataset block does no
work over the other datasets.  _BLOCK_FLOATS is the one bound on a
block, merged or not: it bounds the block's arrays, so a block holds
more nodes at small p, where each node is small.

Intercepts are handled exactly by centering: the RSS of a subset fitted
with an intercept equals the RSS of the centered regression on the same
columns, so the search runs on the centered Gram matrix and keeps only
its winning masks.  A table's entries are those masks fitted from the R
factor of their dataset's [1 | X | y] (linalg._factor, one batched QR
for all of a call's datasets), one stacked small QR per size across the
call, so each RSS has the bits a lone fit_subset gives.  Size p is the
full mask, fitted the same way.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, LimitExceededError
from .linalg import Dataset, FitSummary, Mask, _factor, _fit_masks, _summary, as_mask, full_mask

log = logging.getLogger(__name__)

# most predictors for an exhaustive search: at p = 30 one peaks at 46 MB of
# process RSS and takes 0.1-0.4 s on the paper's weak designs, 25 s with all
# 30 strongly active (2-core x86, numpy 2.4)
SUBSET_LIMIT = 30

# a sweep pivot at or below this fraction of its column's centered sum of
# squares (1 - R^2 on the variables swept before it) marks a collinear subset
_PIVOT_TOL = 1e-10

# floats per swept array of a search block, from one dataset or several: a
# node at depth 0 holds (p+1)^2, so a block holds _BLOCK_FLOATS // (p+1)^2
# nodes (128 at p = 30, 1016 at p = 10), which bounds its memory and keeps
# the incumbents improving in near depth-first order
_BLOCK_FLOATS = 128 * 31**2


@dataclass(frozen=True, eq=False)
class PerSizeBest:
    """The minimum-RSS subset per size; sizes with no usable candidate are missing.

    table maps each size to its best (mask, rss), fitted from the R
    factor of the dataset's [1 | X | y] (linalg._fit_masks), and skipped
    counts the rank-deficient masks, refused by the search's sweep or by
    the QR rank test.  full_rss is the full mask's RSS, fitted the same
    way whether or not the full mask is a candidate, and None when the
    full design is collinear.  entries gives each size's FitSummary, its
    beta solved from the same small R factor the first time it is read.
    """

    data: Dataset = field(repr=False)
    table: dict[int, tuple[Mask, float]]
    full_rss: float | None
    skipped: int = 0
    # search tree nodes evaluated, floors plus ceilings (0 for an explicit
    # list): the search's work, independent of the machine
    nodes: int = 0
    # each size's small R factor, None at size 0 (linalg._summary)
    factors: dict[int, np.ndarray | None] = field(default_factory=dict, repr=False)

    @functools.cached_property
    def entries(self) -> dict[int, FitSummary]:
        if self.skipped:
            log.info("skipped %d rank-deficient subset(s)", self.skipped)
        log.debug("search evaluated %d node(s), skipped %d subset(s)", self.nodes, self.skipped)
        return {s: _summary(self.data, mask, rss, self.factors[s])
                for s, (mask, rss) in self.table.items()}

    def sizes(self) -> list[int]:
        return sorted(self.table)


def _centered(data: Dataset):
    Xc = data.X - data.X.mean(axis=0)
    yc = data.y - data.y.mean()
    # einsum sums every entry in one order, so identical columns get
    # identical Gram rows and exact ties stay exact; BLAS products do not
    G = np.einsum("ij,ik->jk", Xc, Xc)
    return G, np.einsum("ij,i->j", Xc, yc), float(yc @ yc)


def _sweep(W: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Sweep a stack of symmetric (m, m) matrices in place on their first m-1 indices.

    diag holds the m-1 centered sums of squares, one row per matrix or one
    row for all.  A pivot at or below _PIVOT_TOL * diag is collinear and
    stays unswept, so the [y, y] entry becomes the RSS of projecting y on
    the others.  Returns, per matrix, whether every pivot was swept.
    """
    clean = np.ones(W.shape[0], dtype=bool)
    for k in range(W.shape[1] - 1):
        piv = W[:, k, k].copy()
        ok = piv > _PIVOT_TOL * diag[..., k]
        if ok.all():
            # the masked divisions below give these bits too, at a higher call cost
            col = W[:, :, k] / piv[:, None]
            inv = -1.0 / piv
        else:
            clean &= ok
            col = np.divide(W[:, :, k], piv[:, None], out=np.zeros(W.shape[:2]), where=ok[:, None])
            inv = np.divide(-1.0, piv, out=np.zeros_like(piv), where=ok)
        W -= W[:, :, k, None] * col[:, None, :]
        W[:, :, k] = col
        W[:, k, :] = col
        W[:, k, k] = inv
    return clean


def _block_nodes(p: int) -> int:
    """Nodes per search block at p predictors: _BLOCK_FLOATS // (p+1)^2, at least one."""
    return max(1, _BLOCK_FLOATS // (p + 1) ** 2)


def _leaps_and_bounds(G, b, tss, p: int) -> list[tuple[dict[int, tuple[Mask, float]], int, int]]:
    """Pruned exhaustive search over the inclusion/exclusion trees of K datasets.

    G (K, p, p), b (K, p) and tss (K,) are the centered Gram matrices,
    cross-products and total sums of squares.  A node at depth d has
    decided its dataset's order[:d]; its floor is the decided-in set and
    its ceiling the floor plus order[d:].  Evaluating a node gives its
    include child's floor and its exclude child's ceiling; both are
    registered, and a child is expanded only if its ceiling RSS could
    still beat or tie its dataset's incumbent at some reachable size, so
    ties survive and the lexicographic rule stays exact.  A child with one
    undecided variable is not expanded: its children repeat registered
    sets.

    A block holds nodes of one depth, of one dataset or of several, each
    tagged with its owner, so one set of numpy calls advances every
    dataset in it.  A block's children stay one block if they fit in one;
    otherwise each dataset's children, include-children first, are cut
    into blocks of their own at multiples of the block size.  So every
    dataset sees the blocks its lone search sees, and its masks, skips
    and node count do not depend on the others.  Returns, per
    dataset, its {size: (mask, sweep rss)} below size p, the collinear
    subsets skipped and the nodes evaluated.
    """
    K = len(tss)
    block = _block_nodes(p)
    diag = np.diagonal(G, axis1=1, axis2=2)
    M = np.empty((K, p + 1, p + 1))
    M[:, :p, :p] = G
    M[:, :p, p] = M[:, p, :p] = b
    M[:, p, p] = tss
    # one full-model sweep gives both the order and, permuted, the ceiling chain
    T = M.copy()
    full_ok = _sweep(T, diag)
    # order by the RSS increase of deleting j from the full model,
    # beta_j^2 / (G^-1)_jj = T[j, p]^2 / -T[j, j], strongest first (the |t|
    # order of Furnival & Wilson); a collinear full design has no such
    # increase and orders by the marginal drop b_j^2 / G_jj from the empty model
    score = np.divide(b * b, diag, out=np.zeros_like(b), where=diag > 0)
    tp = T[:, :p, p]
    np.divide(tp * tp, -np.diagonal(T, axis1=1, axis2=2)[:, :p], out=score, where=full_ok[:, None])
    order = np.argsort(-score, axis=1, kind="stable")
    ks = np.arange(K)[:, None]
    gdiag = diag[ks, order]
    # both matrices' rows and columns in search order, y last
    at = np.concatenate((order, np.full((K, 1), p)), axis=1)
    M = M[ks[:, :, None], at[:, :, None], at[:, None, :]]
    T = T[ks[:, :, None], at[:, :, None], at[:, None, :]]
    # a subset's key has bit p-1-j for column j, so at equal size the larger
    # key holds the first differing column: the lexicographically smaller mask
    first = np.left_shift(1, p - 1 - order)
    # tail[k, d] is the key of order[k, d:]
    tail = np.zeros((K, p + 1), dtype=np.int64)
    tail[:, :p] = np.cumsum(first[:, ::-1], axis=1)[:, ::-1]

    # the incumbents: slot k * (p+1) + s holds dataset k's best size-s subset;
    # a node carries the slot of its floor, so its size is slot - k * (p+1)
    best_rss = np.full((K, p + 1), np.inf)
    best_rss[:, 0] = tss
    flat_rss = best_rss.reshape(-1)
    best_key = ([0] + [-1] * p) * K
    # at depth d, reach[k, lo] for lo <= d+1 is dataset k's worst incumbent
    # over sizes lo .. lo+p-d-1, which a child with floor size lo can reach
    reach = np.empty((K, p + 1))
    flat_reach = reach.reshape(-1)

    def skip(own, ok) -> None:
        # count the collinear subsets, the False entries of ok, per dataset
        if isinstance(own, int):
            skipped[own] += len(ok) - int(np.count_nonzero(ok))
        elif not ok.all():
            skipped[:] += np.bincount(own[~ok], minlength=K)

    def register(slots, rss, keys) -> None:
        # lowest RSS per slot, ties to the larger key, in any order
        for s, r, k in zip(slots, rss, keys):
            cur = flat_rss[s]
            if r < cur or (r == cur and k > best_key[s]):
                flat_rss[s] = r
                best_key[s] = k

    ceil = T[:, p, p].copy()
    skipped = np.zeros(K, dtype=np.int64)
    nodes = np.full(K, 2, dtype=np.int64)
    best_rss[full_ok, p] = ceil[full_ok]
    stack = []
    if p >= 2:
        # a collinear full design has no ceiling chain to unsweep: its
        # ceilings are the projection RSS of fresh sweeps of its floors, so
        # it never shares a block with a clean one
        for group, chain in (((~full_ok).nonzero()[0], None), (full_ok.nonzero()[0], T)):
            for lo in range(0, len(group), block):
                own = group[lo : lo + block]
                n = len(own)
                stack.append((0, M[own], None if chain is None else chain[own],
                              np.zeros(n, dtype=np.int64), own * (p + 1),
                              ceil[own], int(own[0]) if n == 1 else own))
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            d, S, T, key, floor_slot, ceil, own = stack.pop()
            # own is the block's one dataset, or each node's when it holds several
            single = isinstance(own, int)
            n = len(floor_slot)
            # include order[d]: sweep it into the floor
            piv = S[:, 0, 0]
            inc_ok = piv > _PIVOT_TOL * gdiag[own, d]
            sy = S[:, -1, 0]
            floor = S[:, -1, -1] - sy * (sy / piv)
            # exclude order[d]: unsweep it from the ceiling
            if T is not None:
                ty = T[:, -1, 0]
                cex = T[:, -1, -1] - ty * (ty / T[:, 0, 0])
            else:
                W = S[:, 1:, 1:].copy()
                exc_ok = _sweep(W, gdiag[own, d + 1 :])
                cex = W[:, -1, -1]
                skip(own, exc_ok)
            skip(own, inc_ok)
            if single:
                nodes[own] += 2 * n
            else:
                nodes += 2 * np.bincount(own, minlength=K)
            # the candidates: include-children floors, one size up, then
            # exclude-children ceilings, p-d-1 sizes up, with their slots
            slot_in = floor_slot + 1
            slot = np.concatenate((slot_in, floor_slot + (p - d - 1)))
            rss = np.concatenate((floor, cex))
            hit = rss <= flat_rss[slot]
            hit[:n] &= inc_ok
            if T is None:
                hit[n:] &= exc_ok
            hit = hit.nonzero()[0]
            key_in = key | first[own, d]
            if len(hit):
                keys = np.concatenate((key_in, key | tail[own, d + 1]))
                register(slot[hit].tolist(), rss[hit].tolist(), keys[hit].tolist())
            if d + 2 >= p:
                continue
            # the maxima of a sliding-window view of the incumbents
            window = np.ndarray((K, d + 2, p - d), best_rss.dtype, best_rss, 0,
                                best_rss.strides + best_rss.strides[1:])
            if single:
                # a one-dataset block reads only its own row
                window[own].max(axis=1, out=reach[own, : d + 2])
            else:
                window.max(axis=2, out=reach[:, : d + 2])
            ki = (inc_ok & (ceil <= flat_reach[slot_in])).nonzero()[0]
            ke = (cex <= flat_reach[floor_slot]).nonzero()[0]
            idx = np.concatenate((ki, ke))
            if not len(idx):
                continue
            m = len(ki)
            key2 = np.concatenate((key_in[ki], key[ke]))
            slot2 = np.concatenate((slot_in[ki], floor_slot[ke]))
            ceil2 = np.concatenate((ceil[ki], cex[ke]))
            if single or len(idx) <= block:
                # each dataset's children are already in its lone order
                parts = [(0, m, len(idx), own if single else None)]
            else:
                # one part per dataset, its include- then its exclude-children
                by = np.argsort(own[idx], kind="stable")
                idx, key2, slot2, ceil2 = idx[by], key2[by], slot2[by], ceil2[by]
                count = np.bincount(own[idx], minlength=K)
                m_k = np.bincount(own[ki], minlength=K).tolist()
                start = (np.cumsum(count) - count).tolist()
                parts = [(start[k], m_k[k], int(count[k]), k) for k in count.nonzero()[0].tolist()]
            # a part is cut at multiples of the block size, where a lone search cuts it
            blocks = [(lo, min(max(a + m_a, lo), lo + block), min(lo + block, a + n_a), own_a)
                      for a, m_a, n_a, own_a in parts for lo in range(a, a + n_a, block)]
            # each block gets arrays of its own, so a popped sibling frees its part;
            # its include-children lo:mid sweep order[d] in, the rest unsweep it
            for lo, mid, hi, own_b in reversed(blocks):
                rows = idx[lo:hi]
                inc, exc = rows[: mid - lo], rows[mid - lo :]
                S2 = S[rows, 1:, 1:]
                if len(inc):
                    a = S[inc, 1:, 0]
                    S2[: len(inc)] -= a[:, :, None] * (a / piv[inc, None])[:, None, :]
                T2 = None
                if T is not None:
                    T2 = T[rows, 1:, 1:]
                    if len(exc):
                        c = T[exc, 1:, 0]
                        T2[len(inc) :] -= c[:, :, None] * (c / T[exc, 0, 0, None])[:, None, :]
                if own_b is None:
                    own_b = own[rows]
                # the first block ends up on top of the stack
                stack.append((d + 1, S2, T2, key2[lo:hi], slot2[lo:hi], ceil2[lo:hi], own_b))
    bits = [(1 << (p - 1 - j), j) for j in range(p)]
    rows = []
    for k in range(K):
        # sizes below p; size p is the full mask's fit
        keys = best_key[k * (p + 1) : k * (p + 1) + p]
        rows.append({s: (tuple([j for bit, j in bits if key & bit]), float(best_rss[k, s]))
                     for s, key in enumerate(keys) if key >= 0})
    return [(rows[k], int(skipped[k]), int(nodes[k])) for k in range(K)]


def _fit_tables(datas, searches) -> list[PerSizeBest]:
    """Fit every dataset's masks from its R factor and keep the least RSS per size.

    searches holds, per dataset, its masks, the subsets its search
    skipped and its node count.  One batched QR factors the datasets,
    then each size is one stacked small QR across all of them; ties at
    equal RSS go to the smaller mask, and a mask failing the rank test
    is skipped and counted.  The full mask is fitted for every dataset
    and kept as full_rss; it enters the table and the skip count only
    where it is one of the dataset's masks.
    """
    p = datas[0].p
    by_size: dict[int, list[tuple[int, Mask]]] = {}
    for k, (masks, _, _) in enumerate(searches):
        for mask in masks:
            by_size.setdefault(len(mask), []).append((k, mask))
    # size p holds the full mask alone
    listed = {k for k, _ in by_size.get(p, ())}
    by_size[p] = [(k, full_mask(p)) for k in range(len(datas))]
    R, tss = _factor(datas)
    tables: list[dict[int, tuple[Mask, float]]] = [{} for _ in datas]
    factors: list[dict[int, np.ndarray | None]] = [{} for _ in datas]
    full_rss: list[float | None] = [None] * len(datas)
    skipped = [skip for _, skip, _ in searches]
    for s in sorted(by_size):
        pairs = by_size[s]
        rss, ok, small = _fit_masks(R, tss, [k for k, _ in pairs], [mask for _, mask in pairs])
        for i, ((k, mask), r, good) in enumerate(zip(pairs, rss.tolist(), ok.tolist())):
            if s == p:
                full_rss[k] = r if good else None
                if k not in listed:
                    continue
            cur = tables[k].get(s)
            if not good:
                skipped[k] += 1
            elif cur is None or (r, mask) < (cur[1], cur[0]):
                tables[k][s] = (mask, r)
                factors[k][s] = None if small is None else small[i]
    return [PerSizeBest(d, table, full, skip, nodes, f)
            for d, table, full, skip, (_, _, nodes), f
            in zip(datas, tables, full_rss, skipped, searches, factors)]


def best_per_size(
    data: Dataset | Sequence[Dataset], candidates=None
) -> PerSizeBest | list[PerSizeBest]:
    """The minimum-RSS subset at every size present among the candidates.

    Parameters
    ----------
    data : Dataset, or a sequence of Datasets of one shape
        A sequence is searched in lockstep, its datasets sharing blocks of
        at most _BLOCK_FLOATS // (p+1)^2 nodes, and fitted together: one
        batched QR factors them, one stacked small QR fits each size.
        Each table equals the one-dataset call's, node count included.
    candidates : None or iterable of masks
        None considers every subset: the leaps-and-bounds search, which
        raises LimitExceededError beyond SUBSET_LIMIT predictors.  An
        iterable (e.g. a lasso path) is fitted as listed, with no limit:
        each mask goes through as_mask (sorted, deduplicated, an index
        outside [0, p) raises DimensionMismatchError before any fit),
        and repeats are dropped in first-seen order.  An empty list
        yields an empty table, not every subset.

    Returns
    -------
    PerSizeBest, or for a sequence a list of them in its order
        Ties at equal RSS break to the lexicographically smallest sorted
        mask.  Rank-deficient masks are skipped and counted; each table
        RSS and entry carries the bits fit_subset gives for its mask, and
        `nodes` counts the search's work (0 for a list).
    """
    lone = isinstance(data, Dataset)
    datas = [data] if lone else list(data)
    if not datas:
        return []
    if len({d.X.shape for d in datas}) > 1:
        raise DimensionMismatchError("datasets fitted together must share one shape")
    p = datas[0].p
    if candidates is not None:
        masks = tuple(dict.fromkeys(as_mask(m, p) for m in candidates))
        searches = [(masks, 0, 0)] * len(datas)
    elif p > SUBSET_LIMIT:
        raise LimitExceededError(
            f"exhaustive search over p={p} exceeds the limit of {SUBSET_LIMIT}"
        )
    else:
        G, b, tss = (np.stack(a) for a in zip(*map(_centered, datas)))
        # the search's winners below size p, then the full mask
        searches = [(tuple(mask for mask, _ in rows.values()) + (full_mask(p),), skipped, nodes)
                    for rows, skipped, nodes in _leaps_and_bounds(G, b, tss, p)]
    tables = _fit_tables(datas, searches)
    return tables[0] if lone else tables
