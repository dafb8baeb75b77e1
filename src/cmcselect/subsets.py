"""The per-size minimum-RSS search.

The selectors only ever need, for each model size s, the size-s subset
with minimum RSS.  One exact search produces that table over all 2^p
subsets: a leaps-and-bounds search (after Furnival & Wilson, 1974) that
prunes with the RSS-nesting bound (the residual sum of squares of a
partial model's most complete extension is a floor for every model in
between), which is what makes p = 20..30 Monte Carlo runs cheap.

The search walks the inclusion/exclusion tree with Gaussian sweeps of
the augmented Gram matrix [[G, b], [b', tss]] of the centered [X | y]
(_gram).  Each node carries two swept blocks over its undecided
variables plus y: the floor (swept on the variables decided in) and the
ceiling (the full-model sweep with the variables decided out unswept).
Including a variable is one rank-1 sweep of the floor, excluding it one
rank-1 unsweep of the ceiling, and a node's RSS is the [y, y] entry, so
no node solves a linear system.  The tree decides the strongest
variables first, those whose deletion from the full model costs the most
RSS (the |t| order Furnival & Wilson recommend), so good incumbents come
early and prune most of the tree.  Nodes advance one tree level at a
time, a block of nodes per numpy call, from a depth-first stack of
blocks.

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
the keys of its winning masks.  A call copies its datasets once, into
one [1 | X | y] stack (linalg._stack).  _search, the one entry from that
stack to the call's tables, centers its [X | y] once, in place, for its
R factors, TSS and search matrices alike (linalg._factor).  Its winners
are the search's or a candidate list's masks; one fitter (_fit) fits
either from the R factors, one stacked small QR per size across the
call, so each RSS has the bits a lone fit_subset gives.  Size p is the
full mask, fitted the same way.  A call's tables are rows of arrays over
all its datasets (_Fits), column s for size s, which a Monte Carlo chunk
returns whole; a table's dict of masks is built only when read.

A Monte Carlo chunk calls _search as best_per_size does, handing it the
[1 | X | y] stack it drew its replicates into and its request's caps
(criteria._caps): per size, the exact RSS, from the incumbents, above
which no report can choose that size.  _search alone owns the capped
search's rounding.  It widens each cap by _CAP_SLACK of itself plus
_CAP_SLACK_TSS of the TSS, so that rounding cannot drop a size a report
on the refits might choose or tie, and leaves a dataset uncapped while
its full model has no finite incumbent (the sweep found its full design
collinear).  The search prunes against the lesser of each incumbent and
its widened cap, and drops (NaN, not refitted) each size whose best
ends above it, so a replicate searches and refits only the sizes its
reports can read: about 35 nodes instead of 200 on a (50, 10, 5) draw,
60 instead of 31 million when all 30 of 30 predictors are strongly
active.  Caps prune on the sweep's RSS while reports read the refits,
so a dataset any of whose refitted winners strays from its sweep RSS by
more than _CAP_DRIFT of the slack, or fails the rank test, is searched
again, uncapped, and its node count adds both searches.  best_per_size,
select and the library never cap.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, LimitExceededError
from .linalg import Dataset, FitSummary, Mask, _factor, _fit_masks, _stack, _summary, as_mask, full_mask

log = logging.getLogger(__name__)

# most predictors for an exhaustive search: at p = 30 an uncapped search
# (best_per_size, select) peaks at 46 MB of process RSS and takes 0.1-0.4 s
# on the paper's weak designs, 25 s with all 30 strongly active; a Monte
# Carlo replicate's capped search takes 2-50 ms on the paper's designs and
# 2 ms with all 30 active (2-core x86, numpy 2.4)
SUBSET_LIMIT = 30

# the capped search's slack and drift guard, read by _search alone (see the
# module docstring): the sweep's RSS and the refits' differed by at most
# 6.8 eps * TSS on weak, tiny-noise and beta0 = 1e6 designs, six times below
# the guard's 1e-14 * TSS
_CAP_SLACK = 1e-9
_CAP_SLACK_TSS = 1e-12
_CAP_DRIFT = 1e-2

# a sweep pivot at or below this fraction of its column's centered sum of
# squares (1 - R^2 on the variables swept before it) marks a collinear subset
_PIVOT_TOL = 1e-10

# floats per swept array of a search block, from one dataset or several: a
# node at depth 0 holds (p+1)^2, so a block holds _BLOCK_FLOATS // (p+1)^2
# nodes, at least one (128 at p = 30, 1016 at p = 10), which bounds its
# memory and keeps the incumbents improving in near depth-first order
_BLOCK_FLOATS = 128 * 31**2

# floats of the array each search allocates untouched, once its stack of
# datasets is freed, and drops at once.  glibc serves it with mmap; freeing it raises
# glibc's dynamic mmap threshold to its size and its trim threshold to twice
# that, so from then on every block array (at most _BLOCK_FLOATS floats)
# comes from the heap, and a finished subtree's arrays stay there for the
# next one instead of being handed back to the kernel and faulted in again.
# At 3.9 MB it stays below the 4 MiB from which numpy asks for huge pages.
_HEAP_FLOATS = 4 * _BLOCK_FLOATS


class _Fits(NamedTuple):
    """One _search call's tables, as arrays over its K datasets, searched or listed.

    rss (K, p+1) holds each dataset's least RSS per size, NaN where the
    size has no usable mask or a capped search dropped it, and at
    (K, p+1) the index of that mask in the size's (M, s) cols and
    (M, s+2, s+2) small R factors, -1 where there is none.  keys
    (K, p+1) are the search's winner keys (None for a list); full_rss
    (NaN where the full design is collinear), tss, skipped and nodes are
    (K,); mean (K, p+1) is [xbar | ybar] (linalg._factor).  The scorers
    read rss, full_rss and tss (criteria._decisions), not the responses,
    and break an exact cross-size tie on masks: select_many's from mask, a
    Monte Carlo run's decoded from keys (_held), the same masks.
    """

    rss: np.ndarray
    at: np.ndarray
    cols: dict[int, np.ndarray]
    small: dict[int, np.ndarray]
    keys: np.ndarray | None
    full_rss: np.ndarray
    tss: np.ndarray
    mean: np.ndarray
    skipped: np.ndarray
    nodes: np.ndarray

    def mask(self, row: int, size: int) -> Mask:
        """Dataset row's best mask of one size; the size must be in its table."""
        return tuple(self.cols[size][self.at[row, size]].tolist())


def _held(keys: np.ndarray, p: int) -> np.ndarray:
    """The (..., p) columns each search key holds: column j is bit p-1-j."""
    return (keys[..., None] & np.left_shift(1, p - 1 - np.arange(p))) != 0


@dataclass(frozen=True, eq=False, repr=False)
class PerSizeBest:
    """The minimum-RSS subset per size; sizes with no usable candidate are missing.

    One dataset's row of its best_per_size call's arrays (fits, shared by
    every table of the call).  table maps each size to its best (mask,
    rss), fitted from the R factor of the dataset's centered [1 | X | y]
    (linalg._fit_masks) and built from the arrays the first time it is
    read; skipped counts the rank-deficient masks, refused by the
    search's sweep or by the QR rank test.  full_rss is the full mask's
    RSS, fitted the same way whether or not the full mask is a candidate,
    and None when the full design is collinear; tss is the centered TSS
    from the same centering (linalg._factor).  entries gives each size's
    FitSummary, its beta solved from the same small R factor the first
    time that size is read and its intercept from the same means.
    """

    data: Dataset = field(repr=False)
    fits: _Fits = field(repr=False)
    row: int

    @property
    def full_rss(self) -> float | None:
        rss = float(self.fits.full_rss[self.row])
        return None if math.isnan(rss) else rss

    @property
    def tss(self) -> float:
        return float(self.fits.tss[self.row])

    @property
    def skipped(self) -> int:
        return int(self.fits.skipped[self.row])

    @property
    def nodes(self) -> int:
        """Search tree nodes evaluated, floors plus ceilings (0 for a list): machine-independent work."""
        return int(self.fits.nodes[self.row])

    @functools.cached_property
    def table(self) -> dict[int, tuple[Mask, float]]:
        rss = self.fits.rss[self.row].tolist()
        return {s: (self.fits.mask(self.row, s), rss[s]) for s in self.sizes()}

    @functools.cached_property
    def entries(self) -> Mapping[int, FitSummary]:
        if self.skipped:
            log.info("skipped %d rank-deficient subset(s)", self.skipped)
        log.debug("search evaluated %d node(s), skipped %d subset(s)", self.nodes, self.skipped)
        return _Entries(self.data, self.table, self.fits, self.row)

    def sizes(self) -> list[int]:
        return np.flatnonzero(self.fits.at[self.row] >= 0).tolist()

    def __repr__(self) -> str:
        return (f"PerSizeBest(table={self.table!r}, full_rss={self.full_rss!r}, tss={self.tss!r}, "
                f"skipped={self.skipped!r}, nodes={self.nodes!r})")


class _Entries(Mapping):
    """A table's FitSummary per size, each solved the first time it is read.

    select_many's reports read the few sizes they choose, so the other
    sizes' coefficients are never solved.
    """

    def __init__(self, data: Dataset, table, fits: _Fits, row: int) -> None:
        self._data, self._table, self._fits, self._row = data, table, fits, row
        self._solved: dict[int, FitSummary] = {}

    def __getitem__(self, size: int) -> FitSummary:
        if size not in self._solved:
            mask, rss = self._table[size]
            small = self._fits.small[size][self._fits.at[self._row, size]]
            self._solved[size] = _summary(self._data, mask, rss, small, self._fits.mean[self._row])
        return self._solved[size]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def _gram(A) -> np.ndarray:
    """The (K, p+1, p+1) augmented Gram matrices [[G, b], [b', tss]] of a factored _stack's centered [X | y].

    einsum sums every entry in one order, so identical columns get identical
    rows and exact ties stay exact, as BLAS products do not; it reduces each
    dataset on its own, so a stacked row has the bits of its lone call.
    """
    return np.einsum("kij,kil->kjl", A[:, :, 1:], A[:, :, 1:])


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


def _leaps_and_bounds(M, p: int, caps=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pruned exhaustive search over the inclusion/exclusion trees of K datasets.

    M (K, p+1, p+1) holds their centered augmented Gram matrices
    [[G, b], [b', tss]] (_gram), y last, and is never written: each root
    block gathers its rows and columns in search order.  A node at depth
    d has decided its dataset's order[:d]; its floor is the decided-in
    set and its ceiling the floor plus order[d:].  Evaluating a node
    gives its include child's floor and its exclude child's ceiling; both
    are registered, and a child is expanded only if its ceiling RSS could
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
    and node count do not depend on the others.

    caps, when given, maps the (K', p+1) incumbent RSS of some of the
    datasets (inf where a size has none; column 0 the TSS, column p the
    full model's) to the (K', p+1) caps the search prunes with, as
    _search hands them over (see the module docstring).  Then every test
    above reads min(incumbent, cap) for the incumbent, so a candidate
    registers, and a child is expanded, only if it can beat that at a
    reachable size, and a size in 1 .. p-1 whose final best lies above
    its final cap is dropped (key -1): its best may sit in a pruned
    subtree.  Every kept size's winner is the uncapped search's.

    Returns the (K, p+1) int64 keys of the winners, column s holding size
    s's (-1 where every size-s subset is collinear, or dropped) and
    column p the full mask's, their (K, p+1) sweep RSS (inf where there
    is none, and at p where the full design is collinear), and the (K,)
    collinear subsets skipped and nodes evaluated.
    """
    K = len(M)
    block = max(1, _BLOCK_FLOATS // (p + 1) ** 2)
    diag = np.diagonal(M, axis1=1, axis2=2)[:, :p]
    b = M[:, :p, p]
    # one full-model sweep gives both the order and, gathered, the ceiling chain
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
    gdiag = np.take_along_axis(diag, order, axis=1)
    # each dataset's rows and columns in search order, y last
    at = np.concatenate((order, np.full((K, 1), p)), axis=1)
    # a subset's key has bit p-1-j for column j, so at equal size the larger
    # key holds the first differing column: the lexicographically smaller mask
    first = np.left_shift(1, p - 1 - order)
    # tail[k, d] is the key of order[k, d:]
    tail = np.zeros((K, p + 1), dtype=np.int64)
    tail[:, :p] = np.cumsum(first[:, ::-1], axis=1)[:, ::-1]

    # the incumbents: slot k * (p+1) + s holds dataset k's best size-s subset;
    # a node carries the slot of its floor, so its size is slot - k * (p+1)
    best_rss = np.full((K, p + 1), np.inf)
    best_rss[:, 0] = M[:, p, p]
    flat_rss = best_rss.reshape(-1)
    best_key = ([0] + [-1] * p) * K
    # what a candidate must beat: the incumbent, or with caps the lesser of it and its cap
    bound = best_rss if caps is None else np.empty((K, p + 1))
    flat_bound = bound.reshape(-1)
    # at depth d, reach[k, lo] for lo <= d+1 is dataset k's worst bound
    # over sizes lo .. lo+p-d-1, which a child with floor size lo can reach
    reach = np.empty((K, p + 1))
    flat_reach = reach.reshape(-1)

    def tighten(rows) -> None:
        # the bounds of the datasets in rows (a slice), from their incumbents
        if caps is not None:
            np.minimum(best_rss[rows], caps(best_rss[rows]), out=bound[rows])

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
                # the block's matrices, gathered in search order
                ix = own[:, None, None], at[own, :, None], at[own, None, :]
                stack.append((0, M[ix], None if chain is None else chain[ix],
                              np.zeros(n, dtype=np.int64), own * (p + 1),
                              ceil[own], int(own[0]) if n == 1 else own))
    with np.errstate(divide="ignore", invalid="ignore"):
        tighten(slice(None))
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
            hit = rss <= flat_bound[slot]
            hit[:n] &= inc_ok
            if T is None:
                hit[n:] &= exc_ok
            hit = hit.nonzero()[0]
            key_in = key | first[own, d]
            if len(hit):
                keys = np.concatenate((key_in, key | tail[own, d + 1]))
                register(slot[hit].tolist(), rss[hit].tolist(), keys[hit].tolist())
                tighten(slice(own, own + 1) if single else slice(None))
            if d + 2 >= p:
                continue
            # the maxima of a sliding-window view of the bounds
            window = np.ndarray((K, d + 2, p - d), bound.dtype, bound, 0,
                                bound.strides + bound.strides[1:])
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
        keys = np.array(best_key, dtype=np.int64).reshape(K, p + 1)
        # sizes 0 and p hold one subset each, so their bests are exact; each row's
        # bound was tightened after its last registration, so it is min(best, cap),
        # and uncapped it is best_rss itself, so nothing drops
        keys[:, 1:p][best_rss[:, 1:p] > bound[:, 1:p]] = -1
    # size p is the full mask, fitted whether or not its design is collinear
    keys[:, p] = (1 << p) - 1
    return keys, best_rss, skipped, nodes


def _fit(R, tss, size, row, cols):
    """Fit masks from the datasets' R factors, one stacked small QR per size, and keep each size's best.

    Fit i is a mask of size size[i] on dataset row[i], its columns the
    next size[i] entries of cols.  The fits come in ascending size, and
    each dataset's fits of one size in ascending mask order.  A dataset's
    best at a size is the first of its least RSS among the masks passing
    the rank test, so the smallest such mask.  Returns _Fits' rss, at,
    cols and small, and each dataset's count of masks failing the rank
    test.
    """
    K, p = len(R), R.shape[-1] - 2
    # size s's fits are bounds[s]:bounds[s+1]
    bounds = np.searchsorted(size, np.arange(p + 2))
    by_size, small = {}, {}
    r, ok = np.empty(len(size)), np.empty(len(size), dtype=bool)
    c = 0
    for s, (a, b) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
        if a < b:
            by_size[s] = cols[c : c + s * (b - a)].reshape(b - a, s)
            c += s * (b - a)
            r[a:b], ok[a:b], small[s] = _fit_masks(R, tss, row[a:b], by_size[s])
    r[~ok] = np.inf
    # by size, dataset and RSS, ties in the order given: each (size, dataset)'s
    # first fit is its best, if it passed the rank test
    order = np.lexsort((r, row, size))
    size_o, row_o = size[order], row[order]
    best = ok[order]
    best[1:] &= (size_o[1:] != size_o[:-1]) | (row_o[1:] != row_o[:-1])
    best = order[best]
    rss = np.full((K, p + 1), np.nan)
    rss[row[best], size[best]] = r[best]
    at = np.full((K, p + 1), -1)
    # a fit's index among its size's fits
    at[row[best], size[best]] = best - bounds[size[best]]
    return rss, at, by_size, small, np.bincount(row[~ok], minlength=K)


def _search(A, caps=None, masks=None) -> _Fits:
    """The tables of every dataset of a _stack, fitted from its R factors: the one entry to a call's _Fits.

    A is the (K, n, p+2) [1 | X | y] of K datasets; the call takes it
    over and centers it in place (linalg._factor).  With masks None, one
    lockstep search finds the winners, the stack freed before it, and
    raises LimitExceededError beyond SUBSET_LIMIT predictors.  Otherwise
    the canonical masks, sorted by size, then lexicographically, are the
    winners on every dataset, with no limit; an unlisted full mask is
    fitted for full_rss alone.  best_per_size enters here, and a Monte
    Carlo chunk draws its replicates into A.

    caps (criteria._caps, exact) lets the search drop each size that no
    report can choose: a dropped size is not fitted, and its RSS is NaN.
    Here alone the caps are widened by the slack, left off a collinear
    full sweep, and guarded against drift by an uncapped re-search, as
    the module docstring states.
    """
    K, p = len(A), A.shape[2] - 2
    if masks is None and p > SUBSET_LIMIT:
        raise LimitExceededError(f"exhaustive search over p={p} exceeds the limit of {SUBSET_LIMIT}")
    R, tss, mean = _factor(A)

    def winners():
        # the search's winners, by size, then dataset
        size, row = (keys >= 0).T.nonzero()
        return size, row, _held(keys[row, size], p).nonzero()[1]

    if masks is None:
        M = _gram(A)
        # the stack is freed before the search's arrays
        del A
        # never written, so never faulted in: see _HEAP_FLOATS
        np.empty(_HEAP_FLOATS)
        # each cap widened by the slack, and none while the full model has no finite incumbent
        widened = None if caps is None else lambda r: np.where(
            np.isfinite(r[:, p, None]), caps(r) * (1.0 + _CAP_SLACK) + _CAP_SLACK_TSS * r[:, :1], np.inf)
        keys, sweep, skipped, nodes = _leaps_and_bounds(M, p, widened)
        fitted = winners()
    else:
        keys, skipped, nodes = None, np.zeros(K, dtype=np.int64), np.zeros(K, dtype=np.int64)
        # each listed mask on every dataset in turn
        size = np.repeat(np.array([len(m) for m in masks], dtype=np.intp), K)
        flat = np.array([j for m in masks for _ in range(K) for j in m], dtype=np.intp)
        fitted = size, np.tile(np.arange(K), len(masks)), flat
    rss, at, cols, small, failed = _fit(R, tss, *fitted)
    if caps is not None:
        # the drift guard; a dataset whose full design the sweep found collinear was not capped
        slack = _CAP_SLACK * sweep + _CAP_SLACK_TSS * sweep[:, :1]
        stray = (keys >= 0) & ~(np.abs(rss - sweep) <= _CAP_DRIFT * slack)
        redo = (stray.any(axis=1) & np.isfinite(sweep[:, p])).nonzero()[0]
        if len(redo):
            keys[redo], _, skipped[redo], again = _leaps_and_bounds(M[redo], p)
            nodes[redo] += again
            rss, at, cols, small, failed = _fit(R, tss, *winners())
    full_rss = rss[:, p]
    if p not in cols:
        # a list without the full mask has it fitted for full_rss alone
        r, ok, _ = _fit_masks(R, tss, np.arange(K), [full_mask(p)] * K)
        full_rss = np.where(ok, r, np.nan)
    # the winners the rank test refused count as skipped too
    return _Fits(rss, at, cols, small, keys, full_rss, tss, mean, skipped + failed, nodes)


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
        None considers every subset: the leaps-and-bounds search
        (_search, uncapped), which raises LimitExceededError beyond
        SUBSET_LIMIT predictors.  An iterable (e.g. a lasso path) is
        fitted as listed by the same _search call, with no search and no
        limit: each mask goes through as_mask (sorted, deduplicated, an
        index outside [0, p) raises DimensionMismatchError before any
        fit), and repeats are dropped.  An empty list yields an empty
        table, not every subset.

    Returns
    -------
    PerSizeBest, or for a sequence a list of them in its order
        Ties at equal RSS break to the lexicographically smallest sorted
        mask.  The rule is exact only for bit-identical columns: between
        proportional columns (X[:, c] = a * X[:, j]), or masks whose RSS
        differ in the last bits, rounding in the sweep picks the winner,
        so a change to the search's arithmetic can move it.
        Rank-deficient masks are skipped and counted; each table
        RSS and entry carries the bits fit_subset gives for its mask, and
        `nodes` counts the search's work (0 for a list).
    """
    lone = isinstance(data, Dataset)
    datas = [data] if lone else list(data)
    if not datas:
        return []
    if len({d.X.shape for d in datas}) > 1:
        raise DimensionMismatchError("datasets fitted together must share one shape")
    masks = None if candidates is None else sorted({as_mask(m, datas[0].p) for m in candidates},
                                                   key=lambda m: (len(m), m))
    fits = _search(_stack([(d.X, d.y) for d in datas]), masks=masks)
    tables = [PerSizeBest(d, fits, k) for k, d in enumerate(datas)]
    return tables[0] if lone else tables
