"""Least-squares fitting checks against hand-solved normal equations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcselect import (
    ConstantColumnError,
    Dataset,
    DegenerateFitError,
    DimensionMismatchError,
    RankDeficientError,
    TooFewRowsError,
    as_mask,
    fit_subset,
    full_fit,
    select_many,
    standardize,
)
from cmcselect.linalg import _factor, _fit_masks, _stack, _summary, full_mask
from conftest import normal_eq_fit, random_dataset

# hand-checkable instance: x = (0,1,2,3), y = (0,1,2,4)
HAND = Dataset(X=np.array([[0.0], [1.0], [2.0], [3.0]]), y=np.array([0.0, 1.0, 2.0, 4.0]))


def test_hand_full_fit():
    fit = fit_subset(HAND, (0,))
    assert abs(fit.beta[0] - (-0.2)) < 1e-10
    assert abs(fit.beta[1] - 1.3) < 1e-10
    assert abs(fit.rss - 0.30) < 1e-10
    assert fit.df_resid == 2
    assert fit.mask == (0,)


def test_hand_empty_fit():
    fit = fit_subset(HAND, ())
    assert abs(fit.beta[0] - 1.75) < 1e-10
    assert fit.beta[1] == 0.0
    assert abs(fit.rss - 8.75) < 1e-10
    assert fit.df_resid == 3


def test_hand_variance():
    assert abs(full_fit(HAND).sigma2 - 0.15) < 1e-10


def test_mask_helpers():
    assert as_mask([2, 0], 4) == (0, 2)
    assert full_mask(3) == (0, 1, 2)
    with pytest.raises(DimensionMismatchError):
        as_mask([4], 4)
    with pytest.raises(DimensionMismatchError):
        as_mask([-1], 4)
    # masks are sets: duplicates collapse
    assert as_mask([1, 1], 4) == (1,)


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
    # n = p+1 leaves the full model no residual degree of freedom
    with pytest.raises(TooFewRowsError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        Dataset(X=np.array([[np.nan], [1.0], [2.0]]), y=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        Dataset(X=np.zeros((4, 2)), y=np.zeros(4), names=("a",))
    # X is a matrix: neither a vector nor a stack of matrices
    for shape in ((4,), (4, 1, 1)):
        with pytest.raises(DimensionMismatchError, match="2-dimensional"):
            Dataset(X=np.zeros(shape), y=np.zeros(4))
    data = Dataset(X=np.zeros((3, 1)) + np.arange(3)[:, None], y=np.arange(3.0))
    assert data.names == ("x1",)
    assert not data.X.flags.writeable
    assert not data.y.flags.writeable


def test_embedding_is_exact_zero():
    rng = np.random.default_rng(7)
    data = random_dataset(rng, 30, 6)
    fit = fit_subset(data, (1, 4))
    for i in range(6):
        if i not in (1, 4):
            assert fit.beta[i + 1] == 0.0


def test_rss_matches_returned_beta():
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 40, 5)
    for mask in [(), (0,), (2, 3), (0, 1, 2, 3, 4)]:
        fit = fit_subset(data, mask)
        resid = data.y - fit.beta[0] - data.X @ fit.beta[1:]
        assert abs(fit.rss - resid @ resid) <= 1e-9 * max(fit.rss, 1.0)


def test_agrees_with_normal_equations():
    rng = np.random.default_rng(3)
    for trial in range(20):
        data = random_dataset(rng, 25, 6)
        size = int(rng.integers(0, 7))
        mask = tuple(sorted(rng.choice(6, size=size, replace=False).tolist()))
        fit = fit_subset(data, mask)
        beta_ref, rss_ref = normal_eq_fit(data, mask)
        np.testing.assert_allclose(fit.beta, beta_ref, rtol=1e-9, atol=1e-9)
        assert abs(fit.rss - rss_ref) <= 1e-9 * max(rss_ref, 1.0)


def test_rss_monotone_under_nesting():
    rng = np.random.default_rng(19)
    data = random_dataset(rng, 50, 8)
    checked = 0
    while checked < 200:
        size = int(rng.integers(0, 8))
        mask = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
        extra = int(rng.integers(0, 8))
        if extra in mask:
            continue
        bigger = tuple(sorted(mask + (extra,)))
        small = fit_subset(data, mask)
        large = fit_subset(data, bigger)
        assert large.rss <= small.rss + 1e-9 * max(small.rss, 1.0)
        checked += 1


def test_rank_deficient_subset_rejected():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 3))
    X[:, 2] = X[:, 0]
    data = Dataset(X=X, y=rng.standard_normal(20))
    with pytest.raises(RankDeficientError):
        fit_subset(data, (0, 2))
    # the clean pair still fits
    fit_subset(data, (0, 1))


def _lone_qr_fit(data: Dataset, mask) -> tuple[np.ndarray, float]:
    """The n-row fit: one Householder QR of [1 | X_S], a solve and the explicit residual."""
    A = np.column_stack([np.ones(data.n)] + [data.X[:, i] for i in mask])
    Q, R = np.linalg.qr(A)
    coef = np.linalg.solve(R, Q.T @ data.y)
    resid = data.y - A @ coef
    beta = np.zeros(data.q)
    beta[0] = coef[0]
    beta[np.asarray(mask, dtype=np.intp) + 1] = coef[1:]
    return beta, float(resid @ resid)


# largest gaps from the n-row fit over 6000 fits of the test below's kind
# (n = 25, p = 6, column scales 10^U(-2, 2)): RSS 1.5e-15 relative, beta
# 7.2e-16 scaled by column norms over ||y||; the bound leaves a margin
LONE_RTOL = 1e-14


@pytest.mark.parametrize("K", [1, 2, 7])
def test_stacked_fits_match_lone_fits_bit_for_bit(K):
    # K datasets factored together, one stacked small QR per size: each member
    # has fit_subset's bits at any K and stack position, and stays within
    # LONE_RTOL of the n-row QR fit
    rng = np.random.default_rng(100 + K)
    n, p = 25, 6
    for s in range(p + 1):
        for bad in range(K):
            # every stack position takes a turn as the collinear member
            datas, masks = [], []
            for i in range(K):
                X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, p)
                mask = tuple(sorted(rng.choice(p, s, replace=False).tolist()))
                if i == bad and s >= 2:
                    X[:, mask[1]] = 3.0 * X[:, mask[0]]
                datas.append(Dataset(X=X, y=rng.standard_normal(n) + 2.0))
                masks.append(mask)
            R, tss, mean = _factor(_stack([(d.X, d.y) for d in datas]))
            rss, ok, small = _fit_masks(R, tss, range(K), masks)
            assert rss.shape == ok.shape == (K,)
            for i, (data, mask) in enumerate(zip(datas, masks)):
                if i == bad and s >= 2:
                    assert not ok[i]
                    with pytest.raises(RankDeficientError):
                        fit_subset(data, mask)
                    continue
                assert ok[i]
                fit = _summary(data, mask, float(rss[i]), small[i], mean[i])
                lone = fit_subset(data, mask)
                assert fit.mask == lone.mask == mask
                assert fit.rss == lone.rss
                assert np.array_equal(fit.beta, lone.beta)
                assert fit.df_resid == lone.df_resid == n - s - 1
                beta, rss_qr = _lone_qr_fit(data, mask)
                assert abs(fit.rss - rss_qr) <= LONE_RTOL * rss_qr
                norms = np.linalg.norm(np.column_stack([np.ones(n), data.X]), axis=0)
                gap = np.abs(fit.beta - beta) * norms
                assert gap.max() <= LONE_RTOL * np.linalg.norm(data.y)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(p=st.integers(1, 8), data=st.data())
def test_fits_from_r_match_the_lstsq_oracle_property(p, data):
    # an SVD least-squares oracle, with no QR, on designs whose column scales
    # span 10^-3 .. 10^3 and up to 2000 rows; over 600 such fits the largest
    # gaps were 2.3e-15 ||y||^2 in RSS and 2.8e-12 ||y|| in column-scaled
    # coefficients, and the bounds leave a margin
    n = data.draw(st.integers(p + 2, 2000), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
    y = 1.0 + X[:, : (p + 1) // 2] @ rng.uniform(-2, 2, (p + 1) // 2) + rng.standard_normal(n)
    design = Dataset(X=X, y=y)
    mask = tuple(sorted(data.draw(st.sets(st.integers(0, p - 1)), label="mask")))
    fit = fit_subset(design, mask)
    A = np.column_stack([np.ones(n)] + [X[:, j] for j in mask])
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ coef
    ysq = float(y @ y)
    assert abs(fit.rss - resid @ resid) <= 1e-13 * ysq
    cols = np.array((0,) + tuple(j + 1 for j in mask))
    gap = np.abs(fit.beta[cols] - coef) * np.linalg.norm(A, axis=0)
    assert gap.max() <= 1e-10 * np.sqrt(ysq)
    assert not np.any(np.delete(fit.beta, cols))


def _exact_rss(X: np.ndarray, y: np.ndarray, mask) -> Fraction:
    """The RSS of y on [1 | X[:, mask]] in rational arithmetic, exact for the float entries."""
    def centered(column):
        exact = [Fraction(v) for v in column.tolist()]
        mean = sum(exact) / len(exact)
        return [v - mean for v in exact]

    # centered normal equations [G | b], solved by Gauss-Jordan elimination
    cent = [centered(X[:, j]) for j in mask]
    yc = centered(y)
    rows = [[sum(a * b for a, b in zip(ci, cj)) for cj in cent + [yc]] for ci in cent]
    for k in range(len(rows)):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(len(rows)):
            if i != k:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    beta = [row[-1] for row in rows]
    return sum(v * v for v in yc) - sum(bj * sum(a * v for a, v in zip(c, yc)) for bj, c in zip(beta, cent))


def test_rss_keeps_its_digits_under_a_shifted_response():
    # the one centering factors [1 | X - xbar | y - ybar], so a fit's error
    # scales with the response's spread, not its mean: against exact rational
    # arithmetic the RSS stays within 1e-14 relative at shifts up to 1e12
    # (1.2e-15 at worst here; a QR of the uncentered [1 | X | y] loses up to
    # 8.5e-13 at 1e5 and 3.5e-6 at 1e12)
    rng = np.random.default_rng(31)
    n, p = 50, 8
    X = rng.standard_normal((n, p))
    noise = X[:, :4] @ rng.uniform(-2, 2, 4) + rng.standard_normal(n)
    for shift in (1e5, 1e8, 1e10, 1e12):
        data = Dataset(X=X, y=shift + noise)
        for mask in ((1, 5), (0, 2, 3, 6), full_mask(p)):
            exact = _exact_rss(data.X, data.y, mask)
            assert abs(Fraction(fit_subset(data, mask).rss) - exact) <= Fraction(1e-14) * exact, (shift, mask)


def test_size_zero_is_the_exact_mean_fit():
    # the empty mask's fit is the mean and the centered TSS, the TSS full_fit
    # reports, so adjusted R-squared is exactly 0 at size 0; both come from
    # the one mean that centers the dataset's stack
    rng = np.random.default_rng(12)
    for _ in range(10):
        data = random_dataset(rng, 40, 5)
        ybar = _stack([(data.X, data.y)])[:, :, 1:].mean(axis=1)[0, -1]
        fit = fit_subset(data, ())
        assert fit.beta[0] == ybar and not np.any(fit.beta[1:])
        assert fit.rss == full_fit(data).tss == float(np.square(data.y - ybar).sum())


def test_degenerate_full_fit():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 2))
    y = 1.0 + X @ np.array([2.0, -1.0])
    data = Dataset(X=X, y=y)
    with pytest.raises(DegenerateFitError):
        full_fit(data)
    # a constant response: its centered TSS and full-model RSS are both rounding noise
    for c in (0.1, 5.0):
        with pytest.raises(DegenerateFitError):
            full_fit(Dataset(X=X, y=np.full(30, c)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=st.integers(1, 12), data=st.data())
def test_constant_response_is_degenerate(p, data):
    # a constant response centers onto the intercept column, so the full RSS
    # is rounding noise on the TSS and DEGENERATE_TOL refuses it, with no check
    # of the response itself: full_fit, a searched and a listed select_many
    n = data.draw(st.integers(max(5, p + 2), 200), label="n")
    c = data.draw(st.sampled_from([-1.0, 1.0]), label="sign") * 10.0 ** data.draw(
        st.floats(np.log10(5e-9), np.log10(2e10)), label="log10 magnitude")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
    constant = Dataset(X=X, y=np.full(n, c))
    with pytest.raises(DegenerateFitError):
        full_fit(constant)
    for candidates in (None, [(0,), tuple(range(p))], [(0,)]):
        with pytest.raises(DegenerateFitError):
            select_many(constant, ("cmc", "bic"), (0.9,), candidates)


def test_overflowing_sums_of_squares_are_named():
    # up to a scale of 1e153 the choices do not move; at 1e154 the centered
    # TSS overflows to inf, which is refused as an overflow, not as a zero RSS
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    y = 1.0 + X[:, 0] + rng.standard_normal(30)
    with np.errstate(all="ignore"):
        chosen = [[r.chosen for r in select_many(Dataset(X=X, y=y * s))] for s in (1.0, 1e153)]
        assert chosen[0] == chosen[1]
        huge = Dataset(X=X, y=y * 1e154)
        with pytest.raises(DegenerateFitError, match="overflow"):
            full_fit(huge)
        for candidates in (None, [(0,), (0, 1, 2)]):
            with pytest.raises(DegenerateFitError, match="overflow"):
                select_many(huge, candidates=candidates)


def test_variance_needs_residual_df():
    # the dataset itself refuses n = p+1, so full_fit's sigma2 always has n - q >= 1
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]])
    with pytest.raises(TooFewRowsError):
        Dataset(X=X, y=np.array([1.0, 2.0, 3.0]))
    X4 = np.vstack([X, [[3.0, 1.0]]])
    full = full_fit(Dataset(X=X4, y=np.array([1.0, 2.0, 3.0, 5.0])))
    assert full.n - full.q == 1


def test_standardize_moments_and_idempotence():
    rng = np.random.default_rng(23)
    data = random_dataset(rng, 40, 4)
    std = standardize(data)
    np.testing.assert_allclose(std.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(std.X.std(axis=0, ddof=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(std.y, data.y)
    assert std.names == data.names
    again = standardize(std)
    np.testing.assert_allclose(again.X, std.X, atol=1e-12)


def test_standardize_rejects_constant_column():
    X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    data = Dataset(X=X, y=np.arange(5.0))
    with pytest.raises(ConstantColumnError):
        standardize(data)
