"""Least-squares fitting of predictor subsets with an always-present intercept.

Every model is identified by a mask of predictor indices; the intercept is
implicit and never part of the mask.  Each dataset's [1 | X | y] is
factored once by a Householder QR, and a subset's fit is the small QR of
its columns of that (p+2)x(p+2) R factor, stacked over fits of one size,
so a fit's cost does not grow with n.  The empty mask is the exact mean
fit.  Coefficient vectors come back dense (length p+1, exact zeros at
excluded positions) so downstream consumers never need to know which
columns were dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstantColumnError,
    DegenerateFitError,
    DimensionMismatchError,
    RankDeficientError,
    TooFewRowsError,
)

Mask = tuple[int, ...]

# relative floor on the QR diagonal below which columns count as collinear
RANK_TOL = 1e-10

# floor on the full-model RSS, relative to the centered TSS, below which
# lambda statistics are undefined
DEGENERATE_TOL = 1e-12


def as_mask(indices, p: int) -> Mask:
    """Canonical mask: sorted, deduplicated predictor indices in [0, p)."""
    mask = tuple(sorted(set(int(i) for i in indices)))
    if mask and not (0 <= mask[0] and mask[-1] < p):
        raise DimensionMismatchError(f"mask indices {mask} out of range for p={p}")
    return mask


def full_mask(p: int) -> Mask:
    """The mask selecting every predictor."""
    return tuple(range(p))


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable design matrix, response vector, and predictor names.

    Parameters
    ----------
    X : (n, p) array_like
        Predictor values; the intercept column is implicit, so the
        effective design has q = p+1 columns, and n <= p+1 (no residual
        degree of freedom) raises TooFewRowsError.
    y : (n,) array_like
        Response values.
    names : sequence of p unique strings, optional
        Defaults to x1..xp.
    """

    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DimensionMismatchError(
                f"y must be a length-{X.shape[0]} vector, got shape {y.shape}"
            )
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DimensionMismatchError("X and y entries must all be finite")
        n, p = X.shape
        if n <= p + 1:
            raise TooFewRowsError(f"need n > p+1 rows for the full-model fit, got n={n}, p={p}")
        names = tuple(self.names) if self.names else tuple(f"x{i+1}" for i in range(p))
        if len(names) != p or len(set(names)) != p:
            raise DimensionMismatchError(f"names must be {p} unique labels, got {names!r}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.X.shape[1] + 1


@dataclass(frozen=True, eq=False)
class FitSummary:
    """Least-squares result for one mask.

    beta has length q = p+1 with the intercept first and exact zeros at
    every excluded predictor position.
    """

    mask: Mask
    beta: np.ndarray
    rss: float
    df_resid: int

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=np.float64)
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


def _mean_fits(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intercept-only fit of each row of a (K, n) stack of responses: its mean and centered TSS.

    Size 0's fit and FullFit.tss both come from here, so adjusted
    R-squared is exactly 0 at size 0.  numpy reduces each row on its
    own, so a row's bits do not depend on K.
    """
    mean = Y.mean(axis=1)
    return mean, np.square(Y - mean[:, None]).sum(axis=1)


def _factor(datas) -> tuple[np.ndarray, np.ndarray]:
    """The (K, p+2, p+2) R factors of K same-shape datasets' [1 | X | y], and their TSS.

    One batched QR, run per matrix, so a dataset's R has the same bits
    at any K.  Q'[1 | X_S | y] is R's columns 0, S+1 and p+1, so every
    subset's fit is in R (Miller, *Subset Selection in Regression*, 2002,
    ch. 2; Golub & Van Loan, *Matrix Computations*, 5.3).  The TSS are
    _mean_fits' (size 0's RSS).
    """
    n, p = datas[0].X.shape
    A = np.empty((len(datas), n, p + 2))
    A[:, :, 0] = 1.0
    Y = np.empty((len(datas), n))
    for i, data in enumerate(datas):
        A[i, :, 1:-1] = data.X
        Y[i] = data.y
    A[:, :, -1] = Y
    return np.linalg.qr(A, mode="r"), _mean_fits(Y)[1]


def _fit_masks(R, tss, rows, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fit K' masks of one size s, masks[i] on the dataset with R factor R[rows[i]] and TSS tss[rows[i]].

    Above size 0 this is one stacked QR of the (K', p+2, s+2) columns
    0, mask+1 and p+1 of R: the small R factor of [1 | X_S | y].  The
    RSS is its last diagonal entry squared, and a member whose leading
    (s+1) |R| diagonal fails the RANK_TOL ratio test is collinear.  Each
    member's bits do not depend on K' or its position.  Size 0 is the
    mean fit, with no QR.  Returns the (K',) RSS, the (K',) rank tests
    and the (K', s+2, s+2) small R factors (None at size 0).
    """
    rows = np.asarray(rows, dtype=np.intp)
    s = len(masks[0])
    if not s:
        return tss[rows], np.ones(len(rows), dtype=bool), None
    p = R.shape[-1] - 2
    cols = np.empty((len(rows), s + 2), dtype=np.intp)
    cols[:, 0] = 0
    cols[:, 1:-1] = np.asarray(masks) + 1
    cols[:, -1] = p + 1
    small = np.linalg.qr(R[rows[:, None, None], np.arange(p + 2)[:, None], cols[:, None, :]], mode="r")
    diag = np.abs(np.diagonal(small, axis1=1, axis2=2)[:, :-1])
    ok = diag.min(axis=1) > RANK_TOL * diag.max(axis=1)
    return small[:, -1, -1] ** 2, ok, small


def _summary(data: Dataset, mask: Mask, rss: float, small: np.ndarray | None) -> FitSummary:
    """The FitSummary of one _fit_masks member: beta solved from its small R factor, no second QR.

    small is None at size 0, whose intercept is _mean_fits' mean.
    """
    beta = np.zeros(data.q)
    if small is None:
        beta[0] = _mean_fits(data.y[None])[0][0]
    else:
        coef = np.linalg.solve(small[:-1, :-1], small[:-1, -1])
        beta[0] = coef[0]
        beta[np.asarray(mask) + 1] = coef[1:]
    return FitSummary(mask=mask, beta=beta, rss=rss, df_resid=data.n - len(mask) - 1)


def _collinear(mask: Mask) -> RankDeficientError:
    return RankDeficientError(f"columns for mask {mask} are collinear beyond tolerance")


def fit_subset(data: Dataset, mask) -> FitSummary:
    """Exact least squares over the selected columns plus intercept.

    The fit comes from the R factor of [1 | X | y] through _fit_masks,
    the path that fits the per-size tables, so it gives the same bits as
    a table entry.  The empty mask is the mean fit.

    Parameters
    ----------
    data : Dataset
    mask : iterable of predictor indices

    Returns
    -------
    FitSummary

    Raises
    ------
    RankDeficientError
        If the selected columns plus intercept are collinear beyond
        RANK_TOL (relative, on the QR diagonal).
    """
    mask = as_mask(mask, data.p)
    R, tss = _factor([data])
    rss, ok, small = _fit_masks(R, tss, [0], [mask])
    if not ok[0]:
        raise _collinear(mask)
    return _summary(data, mask, float(rss[0]), None if small is None else small[0])


@dataclass(frozen=True)
class FullFit:
    """Full-model statistics that every criterion reads: sizes, RSS, sigma-hat-squared, TSS.

    Build it with full_fit, which validates it.
    """

    n: int
    q: int
    rss: float
    sigma2: float
    tss: float


def full_fit(data: Dataset, fit: FitSummary | None = None) -> FullFit:
    """Validated full-model statistics; sigma2 = rss / (n - q), tss is the centered TSS.

    fit, when given, is the full mask's fit_subset fit (a per-size
    table's size-p entry), which is then not fitted again.

    Raises
    ------
    RankDeficientError
        If the full design is collinear.
    DegenerateFitError
        If the response is constant, or the full-model RSS is zero up to
        DEGENERATE_TOL relative to the centered TSS.
    DimensionMismatchError
        If fit is not a fit of the full mask.
    """
    if fit is None:
        fit = fit_subset(data, full_mask(data.p))
    elif fit.mask != full_mask(data.p):
        raise DimensionMismatchError(f"full_fit needs the full mask's fit, got mask {fit.mask}")
    return _full_stats(data, fit.rss)


def _full_stats(data: Dataset, rss: float | None) -> FullFit:
    """full_fit's statistics and checks, from the full model's fit_subset RSS (None: collinear)."""
    if rss is None:
        raise _collinear(full_mask(data.p))
    tss = float(_mean_fits(data.y[None])[1][0])
    if np.ptp(data.y) == 0.0 or rss <= DEGENERATE_TOL * tss:
        raise DegenerateFitError("full-model residual sum of squares is numerically zero")
    return FullFit(n=data.n, q=data.q, rss=rss, sigma2=rss / (data.n - data.q), tss=tss)


def standardize(data: Dataset) -> Dataset:
    """Center and scale each predictor to sample mean 0 and sd 1 (n-1 denominator).

    The response is left untouched.  Raises ConstantColumnError for any
    zero-variance column.
    """
    means = data.X.mean(axis=0)
    sds = data.X.std(axis=0, ddof=1)
    bad = np.flatnonzero(sds == 0.0)
    if bad.size:
        raise ConstantColumnError(f"constant predictor column(s): {[data.names[i] for i in bad]}")
    return Dataset(X=(data.X - means) / sds, y=data.y, names=data.names)
