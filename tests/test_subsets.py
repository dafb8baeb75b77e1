"""Exhaustive-search checks against a naive double-loop oracle."""

import numpy as np
import pytest

from cmcselect import (
    CandidateSet,
    Dataset,
    DimensionMismatchError,
    LimitExceededError,
    best_per_size,
    fit_subset,
)
from conftest import naive_best_per_size, random_dataset


def test_candidate_set_validation():
    with pytest.raises(DimensionMismatchError):
        CandidateSet(kind="greedy")
    with pytest.raises(DimensionMismatchError):
        CandidateSet(kind="explicit")
    with pytest.raises(DimensionMismatchError):
        CandidateSet(kind="all", masks=((0,),))
    cands = CandidateSet.explicit([(1, 0), (0, 1), (2,)])
    assert cands.masks == ((0, 1), (2,))


def test_explicit_out_of_range_mask():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 15, 4)
    cands = CandidateSet.explicit([(7,)])
    with pytest.raises(DimensionMismatchError):
        best_per_size(data, cands)


def test_limit_guard():
    rng = np.random.default_rng(6)
    data = random_dataset(rng, 20, 6)
    with pytest.raises(LimitExceededError):
        best_per_size(data, CandidateSet.all_subsets(limit=5))
    best_per_size(data, CandidateSet.all_subsets(limit=6))


def test_limit_default_is_twenty_five():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 26))
    y = rng.standard_normal(30)
    data = Dataset(X=X, y=y)
    with pytest.raises(LimitExceededError):
        best_per_size(data, CandidateSet.all_subsets())


def test_matches_naive_oracle_both_paths():
    rng = np.random.default_rng(20260814)
    for trial in range(20):
        p = int(rng.integers(3, 9))
        n = int(rng.integers(p + 5, p + 30))
        data = random_dataset(rng, n, p)
        expect = naive_best_per_size(data)
        for prune in (True, False):
            table = best_per_size(data, CandidateSet.all_subsets(), prune=prune)
            assert table.sizes() == list(range(p + 1))
            for s in range(p + 1):
                mask_ref, rss_ref = expect[s]
                entry = table.entries[s]
                assert entry.mask == mask_ref, (trial, prune, s)
                assert abs(entry.rss - rss_ref) <= 1e-9 * max(rss_ref, 1.0)


def test_per_size_rss_monotone():
    rng = np.random.default_rng(31)
    data = random_dataset(rng, 35, 7)
    table = best_per_size(data, CandidateSet.all_subsets())
    rss = [table.entries[s].rss for s in table.sizes()]
    for a, b in zip(rss, rss[1:]):
        assert b <= a + 1e-9 * max(a, 1.0)


def test_endpoints_are_trivial_fits():
    rng = np.random.default_rng(37)
    data = random_dataset(rng, 30, 5)
    table = best_per_size(data, CandidateSet.all_subsets())
    tss = float(((data.y - data.y.mean()) ** 2).sum())
    assert abs(table.entries[0].rss - tss) <= 1e-9 * tss
    assert table.entries[0].mask == ()
    full = fit_subset(data, (0, 1, 2, 3, 4))
    assert table.entries[5].mask == (0, 1, 2, 3, 4)
    assert table.entries[5].rss == full.rss


def test_reported_rss_matches_refit():
    rng = np.random.default_rng(41)
    data = random_dataset(rng, 30, 6)
    table = best_per_size(data, CandidateSet.all_subsets())
    for s in table.sizes():
        entry = table.entries[s]
        refit = fit_subset(data, entry.mask)
        assert entry.rss == refit.rss
        # entries are the QR fits themselves, coefficients included
        np.testing.assert_array_equal(entry.beta, refit.beta)
        assert entry.df_resid == refit.df_resid


def duplicate_column_dataset(seed: int = 5) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((25, 3))
    X[:, 2] = X[:, 0]
    y = 2.0 * X[:, 0] + 0.3 * rng.standard_normal(25)
    return Dataset(X=X, y=y)


def test_collinear_subsets_skipped():
    data = duplicate_column_dataset()
    table = best_per_size(data, CandidateSet.all_subsets(), prune=False)
    # the two masks holding both copies: {0,2} and {0,1,2}
    assert table.skipped == 2
    assert table.sizes() == [0, 1, 2]
    pruned = best_per_size(data, CandidateSet.all_subsets(), prune=True)
    assert pruned.skipped >= 1
    assert pruned.sizes() == [0, 1, 2]
    for s in (0, 1, 2):
        assert pruned.entries[s].mask == table.entries[s].mask
        assert pruned.entries[s].rss == table.entries[s].rss


def test_exact_tie_breaks_lexicographically():
    data = duplicate_column_dataset()
    # columns 0 and 2 are identical, so the size-1 optimum is a tie
    for prune in (True, False):
        table = best_per_size(data, CandidateSet.all_subsets(), prune=prune)
        assert table.entries[1].mask == (0,)
    assert table.entries[2].mask in ((0, 1), (1, 2))


def test_explicit_per_size_takes_min():
    rng = np.random.default_rng(47)
    data = random_dataset(rng, 25, 4)
    cands = CandidateSet.explicit([(0,), (3,), (1, 2)])
    table = best_per_size(data, cands)
    assert table.sizes() == [1, 2]
    rss0 = fit_subset(data, (0,)).rss
    rss3 = fit_subset(data, (3,)).rss
    assert table.entries[1].rss == min(rss0, rss3)
