"""Selection-criterion checks: hand-derived values, extremes, and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcselect import (
    CRITERIA,
    ConfigError,
    Dataset,
    DegenerateFitError,
    DomainError,
    InconsistentStatisticError,
    InfeasibleCandidatesError,
    FullFit,
    RankDeficientError,
    adjr2_select,
    best_per_size,
    bic_select,
    classify,
    cmc_from_table,
    cmc_select,
    cp_select,
    fit_subset,
    full_fit,
    ic_from_table,
    kappa,
    select_many,
)
from cmcselect import criteria, linalg
from cmcselect.linalg import full_mask
from cmcselect.simulate import Scenario, gen_correlated_design, gen_response
from conftest import random_dataset, spy_calls

HAND = Dataset(X=np.array([[0.0], [1.0], [2.0], [3.0]]), y=np.array([0.0, 1.0, 2.0, 4.0]))


def test_adjr2_is_exactly_zero_at_size_zero():
    # size 0 is the exact mean fit, whose RSS is the TSS adjusted R-squared divides by
    sc = Scenario("correlated", n=80, p=14, p_active=7, rho=0.8)
    for seed in range(6):
        rng = np.random.default_rng([11, seed])
        X = gen_correlated_design(sc, rng)
        rep = select_many(Dataset(X=X, y=gen_response(X, sc, rng)), ("adjr2",), ())[0]
        assert rep.scores[0] == 0.0


def test_lambda_hand_value():
    # (8.75 - 0.30) / 0.15 = 56.333...
    fit = fit_subset(HAND, ())
    full = FullFit(n=4, q=2, rss=0.30, sigma2=0.15, tss=8.75)
    size, lambdas = cmc_from_table({0: (fit.mask, fit.rss)}, full, math.inf)
    assert size == 0
    assert abs(lambdas[0] - 56.0 - 1.0 / 3.0) < 1e-10


def one_entry_lambda(rss_full: float) -> float:
    """The lambda of the hand dataset's full fit, as the one entry of a table, against rss_full."""
    fit = fit_subset(HAND, (0,))
    full = FullFit(n=4, q=2, rss=rss_full, sigma2=0.15, tss=8.75)
    return cmc_from_table({1: (fit.mask, fit.rss)}, full, math.inf)[1][1]


def test_lambda_full_model_is_zero():
    assert one_entry_lambda(fit_subset(HAND, (0,)).rss) == 0.0


def test_lambda_clamps_rounding_noise():
    assert one_entry_lambda(fit_subset(HAND, (0,)).rss * (1.0 + 1e-12)) == 0.0


def test_lambda_rejects_impossible_rss():
    with pytest.raises(InconsistentStatisticError):
        one_entry_lambda(fit_subset(HAND, (0,)).rss * 2.0)


def test_kappa_values():
    assert kappa(1.0, 2, 4) == 0.0
    assert kappa(0.0, 2, 4) == math.inf
    # F(0.5; 2, 2) = 1, so kappa = q * 1 = 2
    assert abs(kappa(0.5, 2, 4) - 2.0) < 1e-9
    with pytest.raises(DomainError):
        kappa(1.5, 2, 10)
    # the endpoints and NaN are refused by FParams and f_quantile, not skipped past
    for alpha, q, n in ((0.5, 5, 5), (math.nan, 2, 10), (1.0, 3, 3), (0.0, 3, 3)):
        with pytest.raises(DomainError):
            kappa(alpha, q, n)


def test_kappa_cache_keeps_every_alpha_of_a_long_request():
    # an unbounded cache: a second pass over 129 distinct alphas, one more than
    # a default lru_cache holds, is all hits
    kappa.cache_clear()
    alphas = [i / 130 for i in range(1, 130)]
    for a in alphas:
        kappa(a, 11, 50)
    before = kappa.cache_info()
    assert (before.hits, before.misses) == (0, 129)
    for a in alphas:
        kappa(a, 11, 50)
    after = kappa.cache_info()
    assert (after.hits, after.misses) == (129, 129)


def test_kappa_decreasing_in_alpha():
    vals = [kappa(a, 3, 30) for a in (0.9, 0.5, 0.1, 0.01)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_classify_cases():
    assert tuple(classify((0, 1), (0, 1), 5)) == (0.0, 0.0)
    assert tuple(classify((0, 1, 2, 3), (0, 1), 4)) == (0.0, 1.0)
    assert tuple(classify((), (0, 1), 4)) == (1.0, 0.0)
    assert tuple(classify((2,), (), 4)) == (0.0, 0.25)
    assert tuple(classify((), (), 4)) == (0.0, 0.0)
    assert tuple(classify((0, 1, 2), (0, 1, 2), 3)) == (0.0, 0.0)
    half = classify((0, 2), (0, 1), 6)
    assert tuple(half) == (0.5, 0.25)


def test_cmc_hand_dataset():
    # empty-model lambda 56.3 > kappa 2, so alpha 0.5 keeps the predictor
    report = cmc_select(HAND, alpha=0.5)
    assert report.chosen == (0,)
    assert report.kappa == pytest.approx(2.0, abs=1e-9)
    assert report.lambda_ == 0.0
    assert report.scores[0] == pytest.approx(56.0 + 1.0 / 3.0, abs=1e-9)


def test_cmc_alpha_extremes():
    rng = np.random.default_rng(13)
    data = random_dataset(rng, 30, 5)
    assert cmc_select(data, alpha=1.0).chosen == full_mask(5)
    assert cmc_select(data, alpha=0.0).chosen == ()
    # -0.0 is alpha 0, and the report carries it as +0.0
    report = cmc_select(data, alpha=-0.0)
    assert report.chosen == () and math.copysign(1.0, report.alpha) == 1.0


def test_cmc_default_alpha():
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 40, 4)
    report = cmc_select(data)
    assert report.alpha == 0.9
    assert report.criterion == "cmc"


def test_cmc_feasibility_and_minimality():
    rng = np.random.default_rng(101)
    for trial in range(10):
        p = int(rng.integers(3, 8))
        data = random_dataset(rng, int(rng.integers(p + 6, p + 25)), p)
        for alpha in (0.9, 0.5, 0.1):
            report = cmc_select(data, alpha=alpha)
            kap = kappa(alpha, data.q, data.n)
            # feasibility at the chosen model
            assert report.lambda_ <= kap + 1e-9
            # no strictly smaller size is feasible
            for s in range(len(report.chosen)):
                assert report.scores[s] > kap


def test_cmc_sparsity_monotone_in_alpha():
    rng = np.random.default_rng(103)
    for trial in range(5):
        data = random_dataset(rng, 50, 6)
        sizes = [
            len(cmc_select(data, alpha=a).chosen)
            for a in (1.0, 0.9, 0.5, 0.1, 0.0)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 6 and sizes[-1] == 0


def test_cmc_scale_invariance():
    rng = np.random.default_rng(107)
    data = random_dataset(rng, 40, 5)
    scaled = Dataset(X=data.X, y=data.y * 37.5, names=data.names)
    for alpha in (0.9, 0.5, 0.1):
        a = cmc_select(data, alpha=alpha).chosen
        b = cmc_select(scaled, alpha=alpha).chosen
        assert a == b


def test_cmc_single_candidate():
    rng = np.random.default_rng(109)
    data = random_dataset(rng, 30, 4)
    report = cmc_select(data, alpha=0.5, candidates=[(0, 1, 2, 3)])
    assert report.chosen == (0, 1, 2, 3)
    assert report.lambda_ == 0.0


def test_a_list_without_the_full_mask_factors_its_dataset_once(monkeypatch):
    # the full mask is fitted beside the listed masks, from the same R factor,
    # and stays out of the table and the skip count
    data = random_dataset(np.random.default_rng(5), 30, 4)
    factors = spy_calls(monkeypatch, linalg._factor)
    passes = spy_calls(monkeypatch, criteria._decisions)
    select_many(data, ("bic",), (), candidates=[(0,), (1, 2)])
    assert len(factors) == 1
    per_size = best_per_size(data, [(0,), (1, 2)])
    monkeypatch.undo()
    assert (per_size.sizes(), per_size.skipped) == ([1, 2], 0)
    # the rules read full_fit's statistics, all five fields, as (1, 1) columns
    full = passes[0][1]
    assert {k: np.ravel(v).tolist() for k, v in vars(full).items()} == \
        {k: [v] for k, v in vars(full_fit(data)).items()}
    # a collinear full design raises as full_fit does
    X = data.X.copy()
    X[:, 3] = X[:, 0]
    collinear = Dataset(X=X, y=data.y)
    with pytest.raises(RankDeficientError) as listed:
        select_many(collinear, ("bic",), (), candidates=[(0,), (1, 2)])
    with pytest.raises(RankDeficientError) as fitted:
        full_fit(collinear)
    assert str(listed.value) == str(fitted.value)
    assert best_per_size(collinear, [(0,), (1, 2)]).skipped == 0


def test_cmc_infeasible_explicit_list():
    rng = np.random.default_rng(211)
    X = rng.standard_normal((60, 4))
    y = 1.0 + 10.0 * X[:, 0] + 0.1 * rng.standard_normal(60)
    data = Dataset(X=X, y=y)
    # candidates that all omit the dominant predictor
    with pytest.raises(InfeasibleCandidatesError):
        cmc_select(data, alpha=0.5, candidates=[(1,), (2, 3)])


def ic_oracle(data: Dataset, criterion: str) -> tuple:
    """Exhaustive direct scoring of every subset, independent of the package search."""
    import itertools

    n = data.n
    rss_full = fit_subset(data, full_mask(data.p)).rss
    sigma2 = rss_full / (n - data.q)
    tss = float(((data.y - data.y.mean()) ** 2).sum())
    best_mask, best_score = None, math.inf
    for s in range(data.p + 1):
        for combo in itertools.combinations(range(data.p), s):
            rss = fit_subset(data, combo).rss
            k = s + 1
            if criterion == "bic":
                score = n * math.log(rss / n) + k * math.log(n)
            elif criterion == "cp_aic":
                score = rss / sigma2 - n + 2 * k
            else:
                score = -(1.0 - (rss / (n - k)) / (tss / (n - 1)))
            if score < best_score:
                best_mask, best_score = combo, score
    return best_mask, best_score


def test_information_criteria_match_direct_scan():
    rng = np.random.default_rng(113)
    selectors = {"bic": bic_select, "cp_aic": cp_select, "adjr2": adjr2_select}
    for trial in range(6):
        p = int(rng.integers(3, 7))
        data = random_dataset(rng, int(rng.integers(p + 8, p + 30)), p)
        for name, select in selectors.items():
            report = select(data)
            mask_ref, _ = ic_oracle(data, name)
            assert report.chosen == mask_ref, (trial, name)
            assert report.criterion == name
            assert report.lambda_ is None and report.kappa is None


def test_cross_size_score_tie_takes_the_smaller_mask():
    # Cp = rss / sigma2 - n + 2(size + 1) is 3.0 at both sizes, so the
    # lexicographically smaller mask (0, 1) wins over (2,)
    table = {1: ((2,), 9.0), 2: ((0, 1), 7.0)}
    full = FullFit(n=10, q=4, rss=6.0, sigma2=1.0, tss=20.0)
    size, scores = ic_from_table(table, full, "cp_aic")
    assert scores == {1: 3.0, 2: 3.0}
    assert size == 2
    # adjusted R-squared is 0.5 at sizes 1 and 2 and 0 at size 0: maximized,
    # the tie again goes to (0, 1), and a minimizing sign would pick size 0
    table = {0: ((), 18.0), 1: ((2,), 8.0), 2: ((0, 1), 7.0)}
    full = FullFit(n=10, q=4, rss=6.0, sigma2=1.0, tss=18.0)
    size, scores = ic_from_table(table, full, "adjr2")
    assert scores == {0: 0.0, 1: 0.5, 2: 0.5}
    assert size == 2


def test_ic_from_table_refuses_names_it_cannot_score():
    # adjr2 picks size 3 here; scoring a name as adjr2 and minimizing it picks size 0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 5))
    data = Dataset(X=X, y=X[:, 0] + rng.standard_normal(40))
    table = {s: (fit.mask, fit.rss) for s, fit in best_per_size(data).entries.items()}
    full = full_fit(data)
    assert ic_from_table(table, full, "adjr2")[0] == 3
    for name in ("cmc", "bogus", "BIC"):
        with pytest.raises(ConfigError, match=repr(name)):
            ic_from_table(table, full, name)


def test_select_many_matches_single_selectors():
    rng = np.random.default_rng(127)
    data = random_dataset(rng, 35, 5)
    reports = select_many(data, CRITERIA, (0.9, 0.1))
    singles = [adjr2_select(data), cp_select(data), bic_select(data)] + [
        cmc_select(data, alpha=a) for a in (0.9, 0.1)
    ]
    assert [(r.criterion, r.alpha) for r in reports] == [
        (s.criterion, s.alpha) for s in singles
    ]
    for r, s in zip(reports, singles):
        assert r.chosen == s.chosen
        assert r.scores == s.scores
        assert (r.lambda_, r.kappa) == (s.lambda_, s.kappa)
        np.testing.assert_array_equal(r.fit.beta, s.fit.beta)
        assert r.per_size is reports[0].per_size
    with pytest.raises(ConfigError):
        select_many(data, ("aic",))


def test_select_many_request_checks():
    data = random_dataset(np.random.default_rng(131), 30, 4)
    for criteria, alphas in (
        (("cmc",), ()),  # cmc with no alphas
        (("bic",), (1.5,)),  # alphas are range-checked even without cmc
        (("cmc",), (-0.1,)),
        (("bic", "bic"), ()),  # two reports, one label
        (("cmc",), (0.9, 0.9)),
        (("cmc",), (0.1234561, 0.1234564)),  # both label as cmc_0.123456
    ):
        with pytest.raises(ConfigError):
            select_many(data, criteria, alphas)
    # the single-criterion selector applies the same alpha rule
    with pytest.raises(ConfigError):
        cmc_select(data, alpha=1.5)


def test_near_noiseless_recovery():
    rng = np.random.default_rng(1)
    n, p = 60, 6
    X = rng.standard_normal((n, p))
    truth = (0, 1, 2)
    y = 1.0 + X[:, :3].sum(axis=1) + 1e-4 * rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    bic = bic_select(data)
    assert bic.chosen == truth
    for report in (cp_select(data), adjr2_select(data)):
        assert set(truth) <= set(report.chosen)
    assert cmc_select(data, alpha=0.5).chosen == truth


def test_scores_cover_all_sizes():
    rng = np.random.default_rng(131)
    data = random_dataset(rng, 30, 4)
    report = bic_select(data)
    assert sorted(report.scores) == [0, 1, 2, 3, 4]
    report = cmc_select(data, alpha=0.9)
    assert sorted(report.scores) == [0, 1, 2, 3, 4]


def _property_design(data, p: int) -> Dataset:
    n = data.draw(st.integers(p + 3, 3 * p + 8), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.standard_normal((n, p))
    active = data.draw(st.integers(0, p), label="active columns")
    sigma = data.draw(st.sampled_from([0.3, 1.0, 3.0]), label="sigma")
    return Dataset(X=X, y=1.0 + X[:, :active].sum(axis=1) + sigma * rng.standard_normal(n))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=st.integers(1, 9), data=st.data())
def test_cmc_size_never_grows_as_alpha_falls_property(p, data):
    alphas = (0.95, 0.9, 0.5, 0.2, 0.1, 0.01)
    reports = select_many(_property_design(data, p), ("cmc",), alphas)
    sizes = [len(r.chosen) for r in reports]
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=st.integers(1, 9), data=st.data())
def test_power_of_two_column_scaling_changes_nothing_property(p, data):
    # power-of-two factors are exact in floating point, so the search, the QR
    # refits and every selection see the same numbers up to exact scaling
    design = _property_design(data, p)
    exps = data.draw(st.lists(st.integers(-8, 8), min_size=p, max_size=p), label="exponents")
    scaled = Dataset(X=design.X * 2.0 ** np.asarray(exps), y=design.y)
    a = select_many(design, CRITERIA, (0.9, 0.5, 0.1))
    b = select_many(scaled, CRITERIA, (0.9, 0.5, 0.1))
    assert [r.chosen for r in a] == [r.chosen for r in b]
    ta, tb = a[0].per_size, b[0].per_size
    assert ta.nodes == tb.nodes and ta.sizes() == tb.sizes()
    for s in ta.sizes():
        assert ta.entries[s].mask == tb.entries[s].mask
        assert ta.entries[s].rss == tb.entries[s].rss


# The mapping rules as they read before the rules were stated over arrays:
# one table, one size at a time.  The array rules must agree with them.
def mapping_lambda(rss, rss_full, sigma2, size):
    if rss < rss_full - criteria._LAMBDA_SLACK * rss_full:
        raise InconsistentStatisticError(f"size-{size} rss {rss} fell below full-model rss {rss_full}")
    return max(0.0, (rss - rss_full) / sigma2)


def mapping_lambdas(table, full):
    return {s: mapping_lambda(table[s][1], full.rss, full.sigma2, s) for s in sorted(table)}


def mapping_smallest_feasible(lambdas, kap):
    for s, lam in lambdas.items():
        if lam <= kap:
            return s
    raise InfeasibleCandidatesError(
        "no candidate model satisfies lambda <= kappa; "
        "explicit candidate lists must include an adequate model"
    )


def mapping_cmc_from_table(table, full, kap):
    lambdas = mapping_lambdas(table, full)
    return mapping_smallest_feasible(lambdas, kap), lambdas


def mapping_score(criterion, rss, k, full):
    n = full.n
    if criterion == "bic":
        if rss <= 0.0:
            raise DegenerateFitError("zero residual sum of squares; BIC undefined")
        return n * math.log(rss / n) + k * math.log(n)
    if criterion == "cp_aic":
        return rss / full.sigma2 - n + 2.0 * k
    return 1.0 - (rss / (n - k)) / (full.tss / (n - 1))


def mapping_ic_from_table(table, full, criterion):
    if criterion not in ("bic", "cp_aic", "adjr2"):
        raise ConfigError(f"no information criterion {criterion!r}; expected bic, cp_aic or adjr2")
    if not table:
        raise InfeasibleCandidatesError("candidate set produced no usable model")
    scores = {s: mapping_score(criterion, rss, s + 1, full) for s, (_, rss) in table.items()}
    sign = -1.0 if criterion == "adjr2" else 1.0
    size = min(scores, key=lambda s: (sign * scores[s], table[s][0]))
    return size, scores


def mapping_decisions(table, full, criteria_, alphas):
    """Each report's (size, scores) for one table, as a list, or the error it raised."""
    try:
        out = []
        for c in criteria_:
            if c == "cmc":
                lambdas = mapping_lambdas(table, full)
                for a in alphas:
                    out.append((mapping_smallest_feasible(lambdas, kappa(a, full.q, full.n)), lambdas))
            else:
                out.append(mapping_ic_from_table(table, full, c))
        return out
    except (InconsistentStatisticError, DegenerateFitError, InfeasibleCandidatesError) as exc:
        return exc


def mapping_classify(chosen, truth, p):
    chosen = set(chosen)
    truth = set(truth)
    fir = len(truth - chosen) / len(truth) if truth else 0.0
    far = len(chosen - truth) / (p - len(truth)) if p > len(truth) else 0.0
    return fir, far


def outcome(call):
    """A call's result, or its error as (type, message)."""
    try:
        return call()
    except (InconsistentStatisticError, DegenerateFitError, InfeasibleCandidatesError) as exc:
        return type(exc), str(exc)


def _random_tables(data, p: int, n: int, K: int):
    """K random per-size tables with their full-model statistics, built to reach every rule's edges.

    "tie" tables make every entry score the same Cp (sigma2 1, integer
    RSS) or the same adjusted R-squared (RSS a dyadic multiple of n - k),
    as in test_cross_size_score_tie_takes_the_smaller_mask; "low" tables
    put one RSS below the full model's, "zero" tables one RSS at 0.
    """
    kind = data.draw(st.sampled_from(["random", "cp_tie", "adjr2_tie", "low", "zero"]), label="kind")
    tables, fulls = [], []
    for _ in range(K):
        sizes = data.draw(st.lists(st.integers(0, p), unique=True, max_size=p + 1), label="sizes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rss_full = float(data.draw(st.sampled_from([0.5, 1.0, 2.0, 7.25]), label="rss_full"))
        sigma2 = 1.0 if kind == "cp_tie" else rss_full / (n - p - 1)
        full = FullFit(n=n, q=p + 1, rss=rss_full, sigma2=sigma2, tss=float(rng.uniform(10.0, 500.0)))
        c = float(rng.integers(1, 64)) / 8.0 + rss_full
        table = {}
        for s in sizes:
            mask = tuple(sorted(rng.choice(p, s, replace=False).tolist()))
            if kind == "cp_tie":
                rss = float(2 * n) - 2.0 * (s + 1)
            elif kind == "adjr2_tie":
                rss = c * (n - s - 1)
            else:
                rss = rss_full * float(rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12])) \
                    if rng.random() < 0.3 else rss_full + float(rng.exponential(5.0))
            table[s] = (mask, rss)
        if kind in ("low", "zero") and sizes:
            s = sizes[int(rng.integers(len(sizes)))]
            table[s] = (table[s][0], 0.0 if kind == "zero" else rss_full * 0.5)
        tables.append(table)
        fulls.append(full)
    return tables, fulls


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=st.integers(1, 8), data=st.data())
def test_array_rules_agree_with_the_mapping_rules_property(p, data):
    # random tables with missing sizes, exact cross-size ties, alpha 0, 1 and
    # random, and every error path: the K = 1 calls and one pass over all K
    # tables choose what the mapping rules choose, score the same bits and
    # raise the same errors with the same messages
    n = data.draw(st.integers(p + 2, p + 40), label="n")
    K = data.draw(st.integers(1, 5), label="K")
    tables, fulls = _random_tables(data, p, n, K)
    alphas = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                                max_size=3, unique=True), label="alphas")
    order = data.draw(st.permutations(CRITERIA), label="criteria")

    for table, full in zip(tables, fulls):
        for a in alphas:
            kap = kappa(a, full.q, full.n)
            assert outcome(lambda: cmc_from_table(table, full, kap)) == \
                outcome(lambda: mapping_cmc_from_table(table, full, kap))
        for c in ("bic", "cp_aic", "adjr2"):
            assert outcome(lambda: ic_from_table(table, full, c)) == \
                outcome(lambda: mapping_ic_from_table(table, full, c))

    # all K tables at once, as a Monte Carlo chunk scores them
    rss = np.full((K, p + 1), np.nan)
    for k, table in enumerate(tables):
        for s, (_, r) in table.items():
            rss[k, s] = r
    column = lambda name: np.array([[getattr(f, name)] for f in fulls])  # noqa: E731
    stacked = FullFit(n=n, q=p + 1, rss=column("rss"), sigma2=column("sigma2"), tss=column("tss"))
    want = [mapping_decisions(t, f, order, alphas) for t, f in zip(tables, fulls)]
    errors = {(type(w), str(w)) for w in want if isinstance(w, Exception)}
    got = outcome(lambda: list(criteria._decisions(
        rss, stacked, order, alphas, lambda k, s: tables[k][s][0])))
    if errors:
        assert got in errors
        return
    for i, (_, _, _, cols, scores) in enumerate(got):
        for k, table in enumerate(tables):
            size, want_scores = want[k][i]
            assert cols[k] == size
            assert {s: scores[k, s] for s in table} == want_scores
            assert np.isnan(np.delete(scores[k], sorted(table))).all()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=st.integers(1, 12), data=st.data())
def test_caps_keep_every_size_a_report_can_choose_property(p, data):
    # on tables of falling RSS with missing sizes (a search's incumbents once
    # it ends), exact cross-size ties of Cp (sigma2 1, integer RSS) or of
    # adjusted R-squared (RSS a dyadic multiple of n - k) among them, each
    # report's choice lies within its size's cap, and blanking every size
    # above its cap changes no choice
    n = data.draw(st.integers(p + 2, p + 40), label="n")
    K = data.draw(st.integers(1, 4), label="K")
    crits = data.draw(st.lists(st.sampled_from(CRITERIA), min_size=1, max_size=4, unique=True),
                      label="criteria")
    alphas = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                                max_size=3, unique=True), label="alphas")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = np.arange(p + 1)
    kind = data.draw(st.sampled_from(["random", "cp_tie", "adjr2_tie"]), label="kind")
    if kind == "cp_tie":
        rss = np.tile(float(n + p + 1) - 2.0 * (size + 1), (K, 1))
    elif kind == "adjr2_tie":
        rss = np.tile(float(rng.integers(1, 64)) / 8.0 * (n - size - 1), (K, 1))
    else:
        rss = 100.0 * np.cumprod(rng.uniform(0.2, 1.0, (K, p + 1)), axis=1)
    rss[:, 1:p][rng.uniform(size=(K, p - 1)) < 0.3] = np.inf
    caps = criteria._caps(crits, alphas, n, p)(rss)
    full = FullFit(n=n, q=p + 1, rss=rss[:, p:], sigma2=rss[:, p:] / (n - p - 1), tss=rss[:, :1])
    table = np.where(np.isinf(rss), np.nan, rss)
    chosen = [d[3] for d in criteria._decisions(table, full, crits, alphas, lambda k, s: tuple(range(s)))]
    for sizes in chosen:
        assert (rss[np.arange(K), sizes] <= caps[np.arange(K), sizes]).all()
    blank = np.where(rss > caps, np.nan, table)
    again = [d[3] for d in criteria._decisions(blank, full, crits, alphas, lambda k, s: tuple(range(s)))]
    assert [c.tolist() for c in again] == [c.tolist() for c in chosen]
    # a table whose full model the sweep found collinear is not capped
    rss[0, p] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isposinf(criteria._caps(crits, alphas, n, p)(rss[:1])).all()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=st.integers(1, 30), q=st.integers(1, 8), data=st.data())
def test_rate_rule_agrees_with_the_mapping_rule_property(p, q, data):
    # classify, and a chunk's counts of each searched mask against the
    # truth, give the mapping rule's bits
    t = data.draw(st.integers(0, p), label="active")
    chosen = data.draw(st.lists(st.sets(st.integers(0, p - 1)), min_size=1, max_size=6), label="chosen")
    truth = tuple(range(t))
    want = [mapping_classify(c, truth, p) for c in chosen]
    assert [tuple(classify(c, truth, p)) for c in chosen] == want
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    truth = tuple(sorted(data.draw(st.sets(st.integers(0, q - 1)), label="truth")))
    rng = np.random.default_rng(seed)
    tables = best_per_size([random_dataset(rng, 3 * q + 5, q) for _ in range(3)])
    rows, sizes = np.array([(k, s) for k, tb in enumerate(tables) for s in tb.sizes()]).T
    fir, far = criteria._rates(*tables[0].fits.misses(rows, sizes, truth), len(truth), q)
    want = [mapping_classify(tables[k].table[s][0], truth, q) for k, s in zip(rows, sizes)]
    assert list(zip(fir.tolist(), far.tolist())) == want
