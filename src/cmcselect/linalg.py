"""Least-squares fitting of predictor subsets with an always-present intercept.

Every model is identified by a mask of predictor indices; the intercept is
implicit and never part of the mask.  Fits go through a Householder QR of
the selected columns, stacked over fits of one shape, and coefficient
vectors come back dense (length p+1, exact zeros at excluded positions)
so downstream consumers never need to know which columns were dropped.
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


def _fit_stack(datas, masks) -> tuple[list[FitSummary | None], np.ndarray]:
    """QR-fit K (dataset, mask) pairs of one shape and one mask size as one stack.

    The (K, n, k+1) designs go through one batched QR, one solve and
    one batch of products.  These are the calls a lone fit makes, with a
    stack axis, and they run per matrix, so each member's beta and rss
    carry the same bits at any K and any stack position.  A member whose
    R diagonal fails the RANK_TOL ratio test comes back as None; the
    others are unaffected.  Also returns the (K, k+1) |R| diagonals.
    """
    n = datas[0].n
    k = len(masks[0])
    A = np.empty((len(datas), n, k + 1))
    A[:, :, 0] = 1.0
    Y = np.empty((len(datas), n))
    for i, (data, mask) in enumerate(zip(datas, masks)):
        if k:
            A[i, :, 1:] = data.X[:, mask]
        Y[i] = data.y
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    ok = diag.min(axis=1) > RANK_TOL * diag.max(axis=1)
    if not ok.all():
        # a collinear member's R may be singular; solve it against the identity
        # instead, so it cannot fail the others' solve, and drop its result
        R[~ok] = np.eye(k + 1)
    coef = np.linalg.solve(R, Q.transpose(0, 2, 1) @ Y[:, :, None])
    resid = Y - (A @ coef)[:, :, 0]
    rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    fits: list[FitSummary | None] = []
    for i, (data, mask) in enumerate(zip(datas, masks)):
        if not ok[i]:
            fits.append(None)
            continue
        beta = np.zeros(data.q)
        beta[0] = coef[i, 0, 0]
        if k:
            beta[np.asarray(mask) + 1] = coef[i, 1:, 0]
        fits.append(FitSummary(mask=mask, beta=beta, rss=float(rss[i]), df_resid=n - (k + 1)))
    return fits, diag


def fit_subset(data: Dataset, mask) -> FitSummary:
    """Exact least squares over the selected columns plus intercept.

    This is the one-member stack of the fitter that also fits the
    per-size tables, so it gives the same bits as a table entry.

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
    fit = _fit_stack([data], [mask])[0][0]
    if fit is None:
        raise RankDeficientError(f"columns for mask {mask} are collinear beyond tolerance")
    return fit


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
    rss = fit.rss
    tss = float(np.square(data.y - data.y.mean()).sum())
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
