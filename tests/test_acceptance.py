"""End-to-end acceptance gates.

One test per gate; the suite's terminal summary prints a PASS/FAIL line
for each.  The two heaviest gates carry the slow marker but still run by
default (the whole module is minutes, not hours, single-threaded).

The prostate gate needs the public dataset file; without it the test
skips and names the fetch command.
"""

import itertools
import math

import numpy as np
import pytest

from cmcselect import (
    CRITERIA,
    Dataset,
    FParams,
    Scenario,
    adjr2_select,
    best_per_size,
    bic_select,
    cmc_from_table,
    cmc_select,
    cp_select,
    f_cdf,
    f_quantile,
    fit_subset,
    full_fit,
    kappa,
    load_prostate,
    run_monte_carlo,
    select_many,
    standardize,
)
from cmcselect.datasets import FETCH_INSTRUCTION, locate_prostate
from cmcselect.linalg import full_mask
from conftest import naive_best_per_size, normal_eq_fit, random_dataset
from test_fdist import oracle_cdf

SEED = 20260814

HAND = Dataset(X=np.array([[0.0], [1.0], [2.0], [3.0]]), y=np.array([0.0, 1.0, 2.0, 4.0]))


def test_c1_hand_oracle_fit():
    """Full and intercept-only fits on the 4-point dataset, to 1e-10."""
    full = fit_subset(HAND, (0,))
    beta_ref, rss_ref = normal_eq_fit(HAND, (0,))
    np.testing.assert_allclose(full.beta, beta_ref, atol=1e-10)
    assert abs(full.beta[0] - (-0.2)) < 1e-10
    assert abs(full.beta[1] - 1.3) < 1e-10
    assert abs(full.rss - 0.30) < 1e-10
    assert abs(full.rss - rss_ref) < 1e-10
    assert abs(full_fit(HAND).sigma2 - 0.15) < 1e-10

    empty = fit_subset(HAND, ())
    _, rss_empty_ref = normal_eq_fit(HAND, ())
    assert abs(empty.rss - 8.75) < 1e-10
    assert abs(empty.rss - rss_empty_ref) < 1e-10
    lam = cmc_from_table({0: (empty.mask, empty.rss)}, full_fit(HAND), math.inf)[1][0]
    assert abs(lam - (56.0 + 1.0 / 3.0)) < 1e-10


def test_c2_distribution_correctness():
    """Median, round-trip grid, and the 95th percentile against quadrature."""
    for k in (1.0, 2.0, 5.0, 20.0):
        assert abs(f_quantile(0.5, FParams(k, k)) - 1.0) <= 1e-8

    probs = [i / 100.0 for i in range(1, 100)]
    for d1 in (1.0, 2.0, 5.0, 21.0):
        for d2 in (2.0, 10.0, 79.0, 200.0):
            params = FParams(d1, d2)
            for prob in probs:
                q = f_quantile(prob, params)
                assert abs(f_cdf(q, params) - prob) <= 1e-8

    q95 = f_quantile(0.95, FParams(2.0, 10.0))
    assert abs(q95 - 4.1028) <= 1e-3
    assert abs(oracle_cdf(q95, 2.0, 10.0) - 0.95) <= 1e-9


def test_c3_subset_engine_oracle_equivalence():
    """50 random instances, p <= 8: engine == batched-QR per-size oracle."""
    rng = np.random.default_rng(SEED)
    for trial in range(50):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(p + 4, p + 40))
        data = random_dataset(rng, n, p, sigma=float(rng.uniform(0.3, 3.0)))
        expect = naive_best_per_size(data)
        table = best_per_size(data)
        for s in range(p + 1):
            mask_ref, rss_ref = expect[s]
            assert table.entries[s].mask == mask_ref, (trial, s)
            assert abs(table.entries[s].rss - rss_ref) <= 1e-9 * max(rss_ref, 1.0)


def test_c4_weak_signal_rates_n50():
    """(n,p,p*) = (50,10,5), 500 reps: averaged rates near the reference."""
    sc = Scenario(kind="weak", n=50, p=10, p_active=5)
    res = run_monte_carlo(sc, reps=500, seed=SEED, threads=1)
    fir, far = res.rates["cmc_0.1"]
    assert abs(fir - 0.01) <= 0.02
    assert abs(far - 0.00) <= 0.02
    bic_fir, bic_far = res.rates["bic"]
    assert abs(bic_fir - 0.00) <= 0.03
    assert abs(bic_far - 0.08) <= 0.03
    assert abs(res.rates["cp_aic"].far - 0.18) <= 0.03
    assert abs(res.rates["adjr2"].far - 0.32) <= 0.04


def test_c5_weak_signal_rates_n20():
    """(n,p,p*) = (20,10,5), 500 reps: small-sample behavior."""
    sc = Scenario(kind="weak", n=20, p=10, p_active=5)
    res = run_monte_carlo(sc, reps=500, seed=SEED, threads=1)
    fir, far = res.rates["cmc_0.9"]
    assert abs(fir - 0.07) <= 0.03
    assert abs(far - 0.16) <= 0.03
    assert abs(res.rates["cmc_0.1"].fir - 0.41) <= 0.04


@pytest.mark.slow
def test_c6_consistency_pattern():
    """Zero-error fraction: near-certain at (n=100, alpha=0.1), above (n=40, alpha=0.9)."""
    large = run_monte_carlo(
        Scenario(kind="weak", n=100, p=20, p_active=10),
        criteria=("cmc",), alphas=(0.1,), reps=100, seed=SEED, threads=1,
    )
    small = run_monte_carlo(
        Scenario(kind="weak", n=40, p=20, p_active=10),
        criteria=("cmc",), alphas=(0.9,), reps=100, seed=SEED, threads=1,
    )
    frac_large = large.zero_fraction["cmc_0.1"]
    frac_small = small.zero_fraction["cmc_0.9"]
    assert frac_large >= 0.95
    assert frac_large > frac_small


@pytest.mark.slow
def test_c7_correlated_spot_check():
    """(rho, n) = (0.8, 400) with 10 active among 20: rates at most 0.02 each."""
    sc = Scenario(kind="correlated", n=400, p=20, p_active=10, rho=0.8)
    res = run_monte_carlo(sc, criteria=("cmc",), alphas=(0.1,), reps=100, seed=SEED, threads=1)
    fir, far = res.rates["cmc_0.1"]
    assert fir <= 0.02
    assert far <= 0.02


def test_c8_prostate_case_study():
    """Selected models and coefficients on the standardized prostate data."""
    if locate_prostate() is None:
        pytest.skip(
            "prostate fixture not present; fetch it first:\n" + FETCH_INSTRUCTION
        )
    data = standardize(load_prostate())
    names = data.names
    expect = tuple(names.index(v) for v in ("lcavol", "lweight", "svi"))

    for report in (
        cmc_select(data, alpha=0.1),
        cmc_select(data, alpha=0.5),
        bic_select(data),
    ):
        assert report.chosen == expect

    fit = fit_subset(data, expect)
    assert abs(fit.beta[0] - 2.478) <= 0.001
    assert abs(fit.beta[names.index("lcavol") + 1] - 0.619) <= 0.001
    assert abs(fit.beta[names.index("lweight") + 1] - 0.283) <= 0.001
    assert abs(fit.beta[names.index("svi") + 1] - 0.275) <= 0.001

    cp = cp_select(data)
    assert cp.chosen == tuple(sorted(expect + (names.index("lbph"),)))
    assert abs(cp.fit.beta[names.index("lbph") + 1] - 0.114) <= 0.001

    adjr2 = adjr2_select(data)
    assert adjr2.chosen == tuple(i for i in range(data.p) if names[i] != "gleason")


def test_c9_property_suite():
    """Feasibility, minimality, monotone sparsity, region membership,
    quadratic identity, rescaling and shift invariance, thread reproducibility."""
    rng = np.random.default_rng(SEED + 1)

    # feasibility and minimality against brute force
    for trial in range(8):
        p = int(rng.integers(3, 9))
        n = int(rng.integers(p + 6, p + 40))
        data = random_dataset(rng, n, p, sigma=float(rng.uniform(0.5, 2.0)))
        _, rss_full = normal_eq_fit(data, full_mask(p))
        sigma2 = rss_full / (n - p - 1)
        naive = naive_best_per_size(data)
        for alpha in (0.9, 0.5, 0.1):
            kap = kappa(alpha, p + 1, n)
            report = cmc_select(data, alpha=alpha)
            assert report.lambda_ <= kap + 1e-9
            smallest = min(
                s for s in range(p + 1)
                if (naive[s][1] - rss_full) / sigma2 <= kap + 1e-9
            )
            assert len(report.chosen) == smallest
            assert report.chosen == naive[smallest][0]

    # sparsity shrinks monotonically as alpha falls
    for trial in range(4):
        data = random_dataset(rng, 45, 6)
        sizes = [
            len(cmc_select(data, alpha=a).chosen)
            for a in (1.0, 0.9, 0.6, 0.3, 0.1, 0.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    # chosen coefficients lie inside the full-model confidence region
    for trial in range(5):
        p = int(rng.integers(3, 8))
        n = int(rng.integers(p + 8, p + 50))
        data = random_dataset(rng, n, p)
        A = np.column_stack([np.ones(n), data.X])
        beta_full = fit_subset(data, full_mask(p)).beta
        sigma2 = full_fit(data).sigma2
        q = p + 1
        for alpha in (0.9, 0.5, 0.1):
            report = cmc_select(data, alpha=alpha)
            diff = report.fit.beta - beta_full
            quad = float(diff @ (A.T @ A) @ diff) / (q * sigma2)
            bound = f_quantile(1.0 - alpha, FParams(q, n - q))
            assert quad <= bound + 1e-8

    # the lambda statistic equals its quadratic form in the coefficients
    for trial in range(5):
        p = int(rng.integers(3, 8))
        n = int(rng.integers(p + 8, p + 50))
        data = random_dataset(rng, n, p)
        A = np.column_stack([np.ones(n), data.X])
        full = fit_subset(data, full_mask(p))
        sigma2 = full_fit(data).sigma2
        size = int(rng.integers(0, p + 1))
        mask = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
        sub = fit_subset(data, mask)
        lam = cmc_from_table({size: (mask, sub.rss)}, full_fit(data), math.inf)[1][size]
        diff = sub.beta - full.beta
        quad = float(diff @ (A.T @ A) @ diff) / sigma2
        assert abs(lam - quad) <= 1e-7 * max(quad, 1.0)

    # rescaling the response must not change any chosen mask
    for scale in (137.0, 1e-3):
        data = random_dataset(rng, 40, 5)
        scaled = Dataset(X=data.X, y=data.y * scale, names=data.names)
        for alpha in (0.9, 0.5, 0.1):
            assert (
                cmc_select(data, alpha=alpha).chosen
                == cmc_select(scaled, alpha=alpha).chosen
            )

    # shifting the response must not change any criterion's chosen mask; the
    # near-noiseless design is one that a check against ||y||^2 calls degenerate
    x = rng.standard_normal((40, 4))
    for data in (
        random_dataset(rng, 40, 5),
        Dataset(X=x, y=x[:, 0] + x[:, 1] + 0.05 * rng.standard_normal(40)),
    ):
        chosen = [r.chosen for r in select_many(data, CRITERIA, (0.9, 0.5, 0.1))]
        for shift in (1e3, 1e5):
            shifted = Dataset(X=data.X, y=data.y + shift, names=data.names)
            reports = select_many(shifted, CRITERIA, (0.9, 0.5, 0.1))
            assert [r.chosen for r in reports] == chosen, shift

    # identical results regardless of worker count
    sc = Scenario(kind="weak", n=30, p=6, p_active=3)
    serial = run_monte_carlo(sc, reps=6, seed=SEED + 2, threads=1)
    parallel = run_monte_carlo(sc, reps=6, seed=SEED + 2, threads=2)
    assert serial.labels == parallel.labels
    assert serial.rates == parallel.rates
    assert serial.zero_fraction == parallel.zero_fraction
