"""Exhaustive-search checks against the batched-QR per-size oracle."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcselect import (
    CRITERIA,
    Dataset,
    DimensionMismatchError,
    LimitExceededError,
    best_per_size,
    cmc_select,
    criteria,
    fit_subset,
    select_many,
    simulate,
    subsets,
)
from cmcselect.cli import main
from cmcselect.simulate import Scenario, _gen_design, gen_correlated_design, gen_response
from conftest import naive_best_per_size, random_dataset, spy_calls


def test_candidate_list_is_canonicalized():
    # each mask is sorted and deduplicated, and repeated masks drop
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 15, 4)
    messy = best_per_size(data, [(1, 0), (0, 1, 1), (2,)])
    assert_same_tables([best_per_size(data, [(0, 1), (2,)])], [messy])
    # a repeated rank-deficient mask is fitted and counted once
    X = data.X.copy()
    X[:, 1] = X[:, 0]
    assert best_per_size(Dataset(X=X, y=data.y), [(1, 0), (0, 1, 1)]).skipped == 1


def test_explicit_out_of_range_mask(monkeypatch):
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 15, 4)
    factors = spy_calls(monkeypatch, subsets._factor)
    with pytest.raises(DimensionMismatchError):
        best_per_size(data, [(0,), (7,)])
    assert factors == []


def test_limit_guard(monkeypatch):
    # a stub search that only records p: this checks the guard, not the engine
    searched = []

    def stub_search(M, p, caps=None):
        searched.append(p)
        # the empty mask at size 0, no winner at sizes 1 .. p-1, the full mask at size p
        keys = np.full((len(M), p + 1), -1, dtype=np.int64)
        keys[:, 0] = 0
        keys[:, p] = (1 << p) - 1
        zeros = np.zeros(len(M), dtype=np.int64)
        return keys, np.full((len(M), p + 1), np.inf), zeros, zeros

    monkeypatch.setattr(subsets, "_leaps_and_bounds", stub_search)
    rng = np.random.default_rng(8)
    limit = subsets.SUBSET_LIMIT
    best_per_size(random_dataset(rng, limit + 9, limit))
    assert searched == [limit]
    data = random_dataset(rng, limit + 10, limit + 1)
    with pytest.raises(LimitExceededError, match=f"p={limit + 1}"):
        best_per_size(data)
    assert searched == [limit]
    # the limit bounds the search, not the data: an explicit list still fits
    table = best_per_size(data, [(0, 3), tuple(range(limit + 1))])
    assert table.sizes() == [2, limit + 1]


def test_matches_naive_oracle_both_paths():
    rng = np.random.default_rng(20260814)
    for trial in range(20):
        p = int(rng.integers(3, 9))
        n = int(rng.integers(p + 5, p + 30))
        data = random_dataset(rng, n, p)
        expect = naive_best_per_size(data)
        table = best_per_size(data)
        assert table.sizes() == list(range(p + 1))
        for s in range(p + 1):
            mask_ref, rss_ref = expect[s]
            entry = table.entries[s]
            assert entry.mask == mask_ref, (trial, s)
            assert abs(entry.rss - rss_ref) <= 1e-9 * max(rss_ref, 1.0)


def test_per_size_rss_monotone():
    rng = np.random.default_rng(31)
    data = random_dataset(rng, 35, 7)
    table = best_per_size(data)
    rss = [table.entries[s].rss for s in table.sizes()]
    for a, b in zip(rss, rss[1:]):
        assert b <= a + 1e-9 * max(a, 1.0)


def test_endpoints_are_trivial_fits():
    rng = np.random.default_rng(37)
    data = random_dataset(rng, 30, 5)
    table = best_per_size(data)
    tss = float(((data.y - data.y.mean()) ** 2).sum())
    assert abs(table.entries[0].rss - tss) <= 1e-9 * tss
    assert table.entries[0].mask == ()
    full = fit_subset(data, (0, 1, 2, 3, 4))
    assert table.entries[5].mask == (0, 1, 2, 3, 4)
    assert table.entries[5].rss == full.rss


def test_reported_rss_matches_refit():
    rng = np.random.default_rng(41)
    data = random_dataset(rng, 30, 6)
    table = best_per_size(data)
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
    # the masks holding both copies, {0,2} and {0,1,2}, are collinear
    table = best_per_size(data)
    assert table.skipped >= 1
    assert table.sizes() == [0, 1, 2]
    expect = naive_best_per_size(data)
    assert sorted(expect) == [0, 1, 2]
    for s in (0, 1, 2):
        assert abs(table.entries[s].rss - expect[s][1]) <= 1e-9 * expect[s][1]


def test_exact_tie_breaks_lexicographically():
    data = duplicate_column_dataset()
    # columns 0 and 2 are identical, so the size-1 optimum is a tie
    table = best_per_size(data)
    assert table.entries[1].mask == (0,)
    assert table.entries[2].mask in ((0, 1), (1, 2))


def test_explicit_per_size_takes_min():
    rng = np.random.default_rng(47)
    data = random_dataset(rng, 25, 4)
    table = best_per_size(data, [(0,), (3,), (1, 2)])
    assert table.sizes() == [1, 2]
    rss0 = fit_subset(data, (0,)).rss
    rss3 = fit_subset(data, (3,)).rss
    assert table.entries[1].rss == min(rss0, rss3)
    # an empty list is an empty explicit list, not every subset
    empty = best_per_size(data, [])
    assert (empty.entries, empty.skipped, empty.full_rss) == ({}, 0, fit_subset(data, range(4)).rss)
    assert best_per_size(data, None).sizes() == [0, 1, 2, 3, 4]
    # no datasets give no tables, searched or listed
    assert best_per_size([]) == best_per_size([], []) == []
    # repr shows the table and the counts, as README says
    text = repr(table)
    for part in (f"table={table.table!r}", f"full_rss={table.full_rss!r}", f"tss={table.tss!r}",
                 "skipped=0", "nodes=0"):
        assert part in text


def test_datasets_fitted_together_stack_refits(monkeypatch):
    # a sequence of same-shape datasets is factored by one batched QR, and each
    # size is fitted by one stacked small QR across all of them; each table
    # equals the one-dataset call's, bit for bit
    rng = np.random.default_rng(53)
    datas = [random_dataset(rng, 30, 7) for _ in range(6)]
    X = datas[2].X.copy()
    X[:, 6] = X[:, 1]
    datas[2] = Dataset(X=X, y=datas[2].y)
    lists = [(0,), (3,), (1, 6), (1, 2), tuple(range(7))]
    for candidates, sizes in ((None, range(8)), (lists, (1, 2, 7))):
        lone = [best_per_size(d, candidates) for d in datas]
        stacks = spy_calls(monkeypatch, subsets._stack)
        searches = spy_calls(monkeypatch, subsets._search)
        factors = spy_calls(monkeypatch, subsets._factor)
        fits = spy_calls(monkeypatch, subsets._fit_masks)
        together = best_per_size(datas, candidates)
        monkeypatch.undo()
        # one stack of the call's datasets, handed to the one entry, factored once
        assert [len(datas_) for datas_, in stacks] == [len(datas)]
        assert [len(A) for A, in searches] == [len(datas)]
        assert [len(A) for A, in factors] == [len(datas)]
        assert [len(masks[0]) for _, _, _, masks in fits] == list(sizes)
        per_size = len(datas) if candidates is None else len(datas) * 2
        assert [len(masks) for _, _, _, masks in fits] == [
            len(datas) if candidates is None or s == 7 else per_size for s in sizes]
        assert isinstance(together, list) and len(together) == len(datas)
        assert_same_tables(lone, together)
        # the TSS the factoring kept is each response's sum of squares about
        # the mean of its lone stack, the one centering of its call
        assert [t.tss for t in together] == [
            float(np.square(d.y - subsets._stack([(d.X, d.y)])[:, :, 1:].mean(axis=1)[0, -1]).sum())
            for d in datas]
    assert together[2].skipped >= 1

    def gram(datas):
        # the search's input: the Gram matrices of the stack _factor centered
        A = subsets._stack([(d.X, d.y) for d in datas])
        subsets._factor(A)
        return subsets._gram(A)

    # each dataset's row of the search's input has its lone call's bits
    M = gram(datas)
    for k, d in enumerate(datas):
        assert np.array_equal(M[k], gram([d])[0])
    with pytest.raises(DimensionMismatchError):
        best_per_size([datas[0], random_dataset(rng, 31, 7)])


def assert_same_tables(lone, together) -> None:
    """Masks, RSS and beta bits, skips, node counts and full-model RSS all equal."""
    for a, b in zip(lone, together, strict=True):
        assert (a.skipped, a.nodes, a.sizes(), a.full_rss) == (b.skipped, b.nodes, b.sizes(), b.full_rss)
        for s in a.sizes():
            assert a.entries[s].mask == b.entries[s].mask
            assert a.entries[s].rss == b.entries[s].rss
            assert np.array_equal(a.entries[s].beta, b.entries[s].beta)


def bound_blocks(monkeypatch, nodes, p: int) -> None:
    """Bound the search's blocks at p predictors to `nodes` nodes; None keeps the default."""
    if nodes is not None:
        monkeypatch.setattr(subsets, "_BLOCK_FLOATS", nodes * (p + 1) ** 2)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(K=st.integers(1, 8), p=st.integers(1, 12), data=st.data())
def test_datasets_searched_together_match_lone_calls(K, p, data):
    # a lockstep search over K datasets gives each the table of its lone
    # search; blocks of 1 and 3 nodes split the merged blocks at every level
    n = data.draw(st.integers(p + 3, 3 * p + 5), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    datas = []
    for k in range(K):
        Z = rng.standard_normal((n, p))
        j, c = rng.permutation(p)[:2] if p >= 2 else (0, 0)
        kind = data.draw(st.sampled_from(["plain", "twin", "pair"]), label=f"design {k}")
        if kind == "twin" and p >= 2:
            # a collinear full design: the search takes fresh sweeps
            Z[:, c] = Z[:, j]
        elif kind == "pair" and p >= 2:
            Z[:, c] = 0.9 * Z[:, j] + np.sqrt(1 - 0.81) * Z[:, c]
        y = Z[:, : max(1, p // 2)].sum(axis=1) + rng.standard_normal(n)
        datas.append(Dataset(X=Z, y=y))
    for block in (1, 3, None):
        with pytest.MonkeyPatch.context() as mp:
            bound_blocks(mp, block, p)
            lone = [best_per_size(d) for d in datas]
            together = best_per_size(datas)
        assert_same_tables(lone, together)


def masks_of(table) -> dict:
    return {s: entry.mask for s, entry in table.entries.items()}


def test_node_count_repeats_exactly():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, 40, 12)
    first = best_per_size(data)
    again = best_per_size(data)
    assert (again.nodes, again.skipped) == (first.nodes, first.skipped)
    # the unpruned tree would evaluate 2^p floors and ceilings
    assert 0 < first.nodes < 2**12
    assert best_per_size(data, [(0,), (1, 2)]).nodes == 0


def weak_draw(r: int) -> Dataset:
    """Replicate r of a weak (50, 10, 5) Monte Carlo run with seed 1."""
    scen = Scenario("weak", n=50, p=10, p_active=5)
    rng = np.random.default_rng([1, r])
    X = _gen_design(scen, rng)
    return Dataset(X=X, y=gen_response(X, scen, rng))


# (nodes, skipped) of the search on fixed designs in blocks of 128 and of 3
# nodes: any change to the variable order, the prune test or the block cuts
# moves these counts.  The correlated and weak counts are those of the
# Furnival-Wilson order; the twins, whose full designs are collinear, keep
# the marginal order and the counts recorded before the lockstep search
PINNED_CORRELATED = {  # correlated_case(seed, p)
    128: {(0, 12): (420, 0), (0, 13): (620, 0), (0, 14): (860, 0),
          (1, 12): (406, 0), (1, 13): (618, 0), (1, 14): (824, 0),
          (2, 12): (402, 0), (2, 13): (566, 0), (2, 14): (854, 0)},
    3: {(0, 12): (318, 0), (0, 13): (514, 0), (0, 14): (750, 0),
        (1, 12): (338, 0), (1, 13): (468, 0), (1, 14): (718, 0),
        (2, 12): (318, 0), (2, 13): (410, 0), (2, 14): (772, 0)},
}
PINNED_WEAK = {  # weak_draw(0) .. weak_draw(11)
    128: [(176, 0), (182, 0), (192, 0), (184, 0), (192, 0), (190, 0),
          (194, 0), (206, 0), (206, 0), (204, 0), (234, 0), (198, 0)],
    3: [(162, 0), (144, 0), (164, 0), (148, 0), (146, 0), (152, 0),
        (166, 0), (208, 0), (208, 0), (164, 0), (230, 0), (160, 0)],
}
PINNED_TWIN = {  # twin_dataset(seed, p, col, copy): every full design is collinear
    128: {(8, 8, 2, 7): (124, 2), (6, 6, 1, 3): (42, 4), (8, 8, 1, 5): (142, 4),
          (10, 10, 1, 7): (254, 4), (12, 12, 1, 9): (628, 60), (14, 14, 3, 0): (924, 2)},
    3: {(8, 8, 2, 7): (134, 2), (6, 6, 1, 3): (40, 4), (8, 8, 1, 5): (136, 4),
        (10, 10, 1, 7): (266, 4), (12, 12, 1, 9): (542, 48), (14, 14, 3, 0): (680, 2)},
}


@pytest.mark.parametrize("block", [3, 128])
def test_search_work_is_pinned(monkeypatch, block):
    for (seed, p), want in PINNED_CORRELATED[block].items():
        bound_blocks(monkeypatch, block, p)
        table = best_per_size(correlated_case(seed, p)[0])
        assert (table.nodes, table.skipped) == want, (seed, p)
    # searched together, so merged blocks split and interleave
    bound_blocks(monkeypatch, block, 10)
    weak = best_per_size([weak_draw(r) for r in range(12)])
    assert [(t.nodes, t.skipped) for t in weak] == PINNED_WEAK[block]
    twins = list(PINNED_TWIN[block].items())
    for args, want in twins:
        bound_blocks(monkeypatch, block, args[1])
        table = best_per_size(twin_dataset(*args))
        assert (table.nodes, table.skipped) == want, args
    # the two p = 8 twins share a shape: collinear designs searched together
    bound_blocks(monkeypatch, block, 8)
    pairs = [(twin_dataset(*args), want) for args, want in twins if args[1] == 8]
    together = best_per_size([data for data, _ in pairs])
    assert [(t.nodes, t.skipped) for t in together] == [want for _, want in pairs]


def test_overflowing_merged_blocks_match_lone_calls():
    # at the default block size, 25 weak (60, 20, 10) draws searched together
    # overflow their merged blocks and fall apart into one-dataset blocks
    scen = Scenario("weak", n=60, p=20, p_active=10)
    datas = []
    for r in range(25):
        rng = np.random.default_rng([1, r])
        X = _gen_design(scen, rng)
        datas.append(Dataset(X=X, y=gen_response(X, scen, rng)))
    assert_same_tables([best_per_size(d) for d in datas], best_per_size(datas))


def test_block_bound_scales_with_p(monkeypatch):
    # a block's swept arrays hold at most the floats of a 128-node p = 30 block
    assert [subsets._BLOCK_FLOATS // (p + 1) ** 2 for p in (30, 20, 14, 10)] == [128, 278, 546, 1016]
    # a bound below one node's floats still gives blocks of one node
    data = weak_draw(0)
    bound_blocks(monkeypatch, 1, data.p)
    one = best_per_size(data)
    monkeypatch.setattr(subsets, "_BLOCK_FLOATS", 1)
    assert_same_tables([one], [best_per_size(data)])


def test_p30_search_work_is_pinned():
    # one weak (60, 30, 15) replicate: 1,109,658 nodes in the marginal order,
    # so a lost variable order fails here as a count, not as a slow run
    scen = Scenario("weak", n=60, p=30, p_active=15)
    rng = np.random.default_rng([1, 0])
    X = _gen_design(scen, rng)
    table = best_per_size(Dataset(X=X, y=gen_response(X, scen, rng)))
    assert (table.nodes, table.skipped) == (278942, 0)


def capped_chunk(scen: Scenario, reps) -> subsets._Fits:
    """A Monte Carlo chunk's stacked search of reps with seed 1, capped for every criterion at alphas 0.9, 0.5, 0.1."""
    A = simulate._draw(scen, [np.random.default_rng([1, r]) for r in reps])
    return subsets._search(A, criteria._caps(CRITERIA, (0.9, 0.5, 0.1), scen.n, scen.p))


# nodes of each of reps 0-7 of a capped chunk; uncapped, the (60, 30, 15)
# rep 0 alone takes 278,942 (test_p30_search_work_is_pinned)
PINNED_CAPPED = {
    (50, 10, 5): [46, 38, 30, 36, 34, 28, 24, 26],
    (60, 20, 10): [366, 246, 516, 318, 428, 176, 226, 256],
    (60, 30, 15): [3330, 5122, 48676, 4590, 10330, 3472, 1654, 3154],
}


def test_capped_search_work_is_pinned(monkeypatch):
    searches = spy_calls(monkeypatch, subsets._leaps_and_bounds)
    for shape, want in PINNED_CAPPED.items():
        scen = Scenario("weak", *shape)
        fits = capped_chunk(scen, range(8))
        assert fits.nodes.tolist() == want, shape
        # a rep's capped search in lockstep is its lone capped search
        assert capped_chunk(scen, [2]).nodes.tolist() == want[2:3], shape
    # one capped search per chunk: none was searched again uncapped
    assert [len(args) for args in searches] == [3] * 6
    # every predictor strongly active: about 31 M nodes and 27 s uncapped
    fits = capped_chunk(Scenario("weak", n=200, p=30, p_active=30, sigma=0.1), [0])
    assert fits.nodes.tolist() == [60]


def test_a_capped_search_keeps_the_uncapped_winners():
    # every size a capped search keeps holds the uncapped search's winner and
    # RSS bit for bit, the others are NaN: on the paper's shapes, and on a
    # near-collinear full design whose sweep refuses the full model, so that
    # its caps are off, while its QR fit passes, alone and stacked with
    # clean weak draws whose caps stay on
    def near(n, p, rng):
        X = rng.standard_normal((n, p))
        X[:, p - 1] = X[:, 1] + 1e-7 * rng.standard_normal(n)
        return subsets._stack([(X, X[:, 0] + rng.standard_normal(n))])

    rng = np.random.default_rng(0)
    draws = lambda scen, reps: simulate._draw(scen, [np.random.default_rng([1, r]) for r in reps])  # noqa: E731
    stacks = [(near(30, 5, rng), 5, 30, [True])]
    mixed = np.concatenate((near(50, 10, rng), draws(Scenario("weak", 50, 10, 5), range(7))))
    stacks.append((mixed, 10, 50, [True] + [False] * 7))
    for shape in ((50, 10, 5), (20, 10, 5), (60, 20, 10)):
        scen = Scenario("weak", *shape)
        stacks.append((draws(scen, range(8)), scen.p, scen.n, [False] * 8))
    for A, p, n, collinear in stacks:
        capped = subsets._search(A.copy(), criteria._caps(CRITERIA, (0.9, 0.5, 0.1), n, p))
        full = subsets._search(A)
        kept = capped.keys >= 0
        assert np.array_equal(capped.keys[kept], full.keys[kept])
        assert np.array_equal(capped.rss[kept], full.rss[kept], equal_nan=True)
        assert np.isnan(capped.rss[~kept]).all()
        # a near-collinear design keeps every size; each of the paper's drops some
        assert kept.all(axis=1).tolist() == collinear, p
        assert not np.isnan(full.full_rss).any()


def test_the_search_never_writes_its_gram_matrix():
    # each root block gathers its rows and columns in search order, so the
    # caller's Gram matrices keep their bytes: an uncapped one-dataset call, a
    # capped 25-rep chunk, and a collinear full design with no ceiling chain
    scen = Scenario("weak", n=50, p=10, p_active=5)
    lone = random_dataset(np.random.default_rng(5), 30, 8)
    twin = twin_dataset(8, 8, col=2, copy=7)
    calls = [(subsets._stack([(lone.X, lone.y)]), None),
             (simulate._draw(scen, [np.random.default_rng([1, r]) for r in range(25)]),
              criteria._caps(CRITERIA, (0.9, 0.5, 0.1), scen.n, scen.p)),
             (subsets._stack([(twin.X, twin.y)]), None)]
    for A, caps in calls:
        subsets._factor(A)
        M = subsets._gram(A)
        before = M.tobytes()
        subsets._leaps_and_bounds(M, A.shape[2] - 2, caps)
        assert M.tobytes() == before


def assert_matches(table, expect) -> None:
    """Masks equal the oracle's exactly, RSS within 1e-9 relative."""
    assert masks_of(table) == {s: mask for s, (mask, _) in expect.items()}
    for s, (_, rss) in expect.items():
        assert abs(table.entries[s].rss - rss) <= 1e-9 * rss, s


@functools.cache
def correlated_case(seed: int, p: int) -> tuple[Dataset, dict]:
    """Factor-correlated design and its per-size oracle, built once per (seed, p)."""
    scen = Scenario("correlated", n=2 * p + 12, p=p, p_active=p // 2,
                    rho=0.8, group_size=4)
    rng = np.random.default_rng([seed, p])
    X = gen_correlated_design(scen, rng)
    data = Dataset(X=X, y=gen_response(X, scen, rng))
    return data, naive_best_per_size(data)


@pytest.mark.parametrize("block", [1, 3, 128])
def test_correlated_designs_match_scan(monkeypatch, block):
    # factor-correlated groups keep many subtrees alive, so the blocks fill,
    # split and stack up; blocks of 1 and 3 nodes force a split at every level
    for seed in range(3):
        for p in (12, 13, 14):
            bound_blocks(monkeypatch, block, p)
            data, expect = correlated_case(seed, p)
            table = best_per_size(data)
            assert_matches(table, expect)
            assert table.skipped == 0
            assert table.nodes < 2**p


def twin_dataset(seed: int, p: int, col: int, copy: int) -> Dataset:
    """Random design whose column `copy` repeats column `col` exactly."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3 * p, p)) * 10.0 ** rng.uniform(-2, 2, p)
    X[:, copy] = X[:, col]
    signal = X[:, : p // 2] / X[:, : p // 2].std(axis=0)
    return Dataset(X=X, y=signal.sum(axis=1) + rng.standard_normal(3 * p))


def test_rank_deficient_full_design_matches_oracle():
    # the full design is collinear, so the search has no ceiling chain and
    # bounds each subtree by a fresh projection sweep of its floor
    data = twin_dataset(8, 8, col=2, copy=7)
    table = best_per_size(data)
    expect = naive_best_per_size(data)
    assert table.skipped >= 1
    assert table.sizes() == sorted(expect) == list(range(8))

    def canonical(mask):
        # a mask holding column 7 alone ties exactly with its twin holding 2
        return tuple(sorted(2 if i == 7 else i for i in mask))

    for s, (mask, rss) in expect.items():
        assert canonical(table.entries[s].mask) == canonical(mask), s
        assert 7 not in table.entries[s].mask or 2 in table.entries[s].mask
        assert abs(table.entries[s].rss - rss) <= 1e-9 * rss


def test_near_collinear_full_model_is_in_the_table():
    # column 4 is column 1 plus 1e-7 noise: the sweep rejects the full set,
    # but its QR fit succeeds, so the table keeps size p and alpha=1 picks it
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 5))
    X[:, 4] = X[:, 1] + 1e-7 * rng.standard_normal(30)
    data = Dataset(X=X, y=X[:, 0] + rng.standard_normal(30))
    table = best_per_size(data)
    full = fit_subset(data, range(5))
    assert table.sizes() == [0, 1, 2, 3, 4, 5]
    assert table.entries[5].mask == full.mask
    np.testing.assert_array_equal(table.entries[5].beta, full.beta)
    assert (table.skipped, table.nodes) == (7, 28)
    assert cmc_select(data, alpha=1.0).chosen == full.mask


@pytest.mark.parametrize("p", [6, 8, 10, 12])
def test_duplicate_column_tie_breaks_lexicographically(p):
    # columns 1 and p-3 are identical: every winner holding just one of them
    # ties exactly with its twin, and the twin holding column 1 sorts first
    copy = p - 3
    data = twin_dataset(p, p, col=1, copy=copy)
    table = best_per_size(data)
    assert table.skipped >= 1
    for s in table.sizes():
        mask = table.entries[s].mask
        assert copy not in mask or 1 in mask, (s, mask)
    assert table.entries[p - 1].mask == tuple(i for i in range(p) if i != copy)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(p=st.integers(1, 12), data=st.data())
def test_pruned_search_matches_oracle_property(p, data):
    n = data.draw(st.integers(p + 3, 3 * p + 5), label="n")
    scales = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p), label="log10 scales")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    Z = rng.standard_normal((n, p))
    if p >= 2 and data.draw(st.booleans(), label="0.9-correlated pair"):
        j, k = data.draw(st.permutations(range(p)), label="pair")[:2]
        Z[:, k] = 0.9 * Z[:, j] + np.sqrt(1 - 0.81) * Z[:, k]
    y = Z[:, : max(1, p // 2)].sum(axis=1) + rng.standard_normal(n)
    design = Dataset(X=Z * 10.0 ** np.asarray(scales), y=y)
    table = best_per_size(design)
    assert_matches(table, naive_best_per_size(design))
    # permuting the columns permutes the winners and nothing else
    perm = data.draw(st.permutations(range(p)), label="column permutation")
    permuted = best_per_size(Dataset(X=design.X[:, perm], y=y))
    mapped = {s: tuple(sorted(perm[i] for i in m)) for s, m in masks_of(permuted).items()}
    assert mapped == masks_of(table)


def test_select_factors_its_dataset_once(tmp_path, capsys, monkeypatch):
    # select_many and the select command make one n-row QR, the R factor of
    # [1 | X | y]; every other QR is a small one of R's columns
    data = random_dataset(np.random.default_rng(5), 40, 6)
    shapes = []
    qr = np.linalg.qr

    def spy_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    reports = select_many(data, ("cmc", "bic", "cp_aic", "adjr2"), (0.9, 0.5, 0.1))
    assert len(reports) == 6
    path = tmp_path / "d.csv"
    rows = [",".join(f"x{j}" for j in range(data.p)) + ",y"]
    rows += [",".join(map(repr, row)) for row in np.column_stack([data.X, data.y]).tolist()]
    path.write_text("\n".join(rows) + "\n")
    assert main(["select", "--data", str(path), "--response", "y", "--criteria", "cmc,bic,cp,adjr2",
                 "--alphas", "0.9,0.5,0.1", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 6
    small = [(1, 8, s + 2) for s in range(1, 7)]
    assert shapes == ([(1, 40, 8)] + small) * 2


def test_entries_solve_beta_when_read_with_no_second_qr(monkeypatch):
    # a size's coefficients are solved the first time that entry is read, one
    # solve per size from the small R factors the table's RSS came from (at
    # size 0 the centered mean fit's diagonal factor), and each table solves
    # only its own
    rng = np.random.default_rng(6)
    datas = [random_dataset(rng, 30, 5) for _ in range(4)]
    tables = best_per_size(datas)
    qrs, solves = [], []
    solve = np.linalg.solve

    def spy_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: qrs.append(args))
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    for i, table in enumerate(tables):
        entries = table.entries
        assert table.entries is entries
        # its length is the table's, and reading it solves nothing
        assert len(entries) == len(table.table)
        assert len(solves) == 6 * i
        for s in table.sizes():
            assert entries[s] is entries[s]
        assert len(solves) == 6 * (i + 1)
    monkeypatch.undo()
    assert qrs == []
    for data, table in zip(datas, tables):
        for s, (mask, rss) in table.table.items():
            fit = fit_subset(data, mask)
            assert (table.entries[s].mask, table.entries[s].rss) == (mask, rss) == (fit.mask, fit.rss)
            assert np.array_equal(table.entries[s].beta, fit.beta)


