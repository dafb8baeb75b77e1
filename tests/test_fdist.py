"""F-distribution checks against a quadrature oracle.

The oracle integrates the F density with scipy's adaptive quadrature;
the package itself never imports scipy.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from cmcselect import DomainError, FParams, f_cdf, f_quantile, kappa
from cmcselect.fdist import _ln_inv_beta, _reg_inc_beta


def oracle_pdf(t: float, d1: float, d2: float) -> float:
    if t <= 0.0:
        return 0.0
    log_norm = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
    )
    log_val = (d1 / 2.0 - 1.0) * math.log(t) - ((d1 + d2) / 2.0) * math.log(
        1.0 + d1 * t / d2
    )
    return math.exp(log_norm + log_val)


def oracle_cdf(f: float, d1: float, d2: float) -> float:
    val, _ = integrate.quad(oracle_pdf, 0.0, f, args=(d1, d2), limit=200)
    return val


def test_params_validation():
    with pytest.raises(DomainError):
        FParams(d1=0.0, d2=5.0)
    with pytest.raises(DomainError):
        FParams(d1=3.0, d2=-1.0)
    with pytest.raises(DomainError):
        FParams(d1=math.nan, d2=2.0)


def test_cdf_boundaries():
    params = FParams(d1=3.0, d2=7.0)
    assert f_cdf(0.0, params) == 0.0
    assert f_cdf(math.inf, params) == 1.0
    # d1 * f overflows on a large finite f
    assert f_cdf(1e308, FParams(d1=10.0, d2=5.0)) == 1.0
    with pytest.raises(DomainError):
        f_cdf(-0.5, params)


def test_cdf_where_the_sum_of_its_terms_overflows():
    # d1 * f is finite but d1 * f + d2 is not: F is then chi-square(1) to
    # double precision, and the cdf at 1e307 is 1
    assert f_cdf(1e307, FParams(d1=1.0, d2=1.7e308)) == 1.0
    # b = 1e306 past lgamma's range: I_x(3, b) is the chi-square(6) cdf at
    # 2 b x = 4, 1 - 5 exp(-2)
    assert abs(_reg_inc_beta(2e-306, 3.0, 1e306) - (1.0 - 5.0 * math.exp(-2.0))) < 1e-12


def test_ln_inv_beta_past_lgamma_range():
    from scipy.special import betaln

    for a, b in [(2.5, 3.5), (0.5, 8.5e307), (5.0, 1e306), (1e8, 1e306), (1.5e8, 1e306)]:
        want = -betaln(a, b)
        assert abs(_ln_inv_beta(a, b) - want) <= 1e-14 * abs(want), (a, b)
        assert _ln_inv_beta(b, a) == _ln_inv_beta(a, b)


def test_reg_inc_beta_trivial():
    assert _reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert _reg_inc_beta(1.0, 2.0, 3.0) == 1.0
    # a = b = 1 reduces to the identity on [0, 1]
    for x in (0.1, 0.25, 0.5, 0.9):
        assert abs(_reg_inc_beta(x, 1.0, 1.0) - x) < 1e-14


def test_cdf_against_quadrature():
    cases = [
        (0.5, 1.0, 1.0),
        (1.0, 2.0, 10.0),
        (4.1028, 2.0, 10.0),
        (2.5, 5.0, 5.0),
        (0.8, 10.0, 3.0),
        (12.0, 1.0, 4.0),
        (3.3, 21.0, 79.0),
    ]
    for f, d1, d2 in cases:
        ours = f_cdf(f, FParams(d1=d1, d2=d2))
        ref = oracle_cdf(f, d1, d2)
        assert abs(ours - ref) < 1e-10, (f, d1, d2, ours, ref)


def test_cdf_monotone_in_f():
    params = FParams(d1=4.0, d2=9.0)
    grid = np.linspace(0.01, 20.0, 300)
    vals = [f_cdf(float(f), params) for f in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_median_symmetric_case():
    # when d1 == d2 the density is symmetric around 1 in the ratio sense
    for k in (2.0, 5.0, 11.0):
        assert abs(f_cdf(1.0, FParams(d1=k, d2=k)) - 0.5) < 1e-12
        assert abs(f_quantile(0.5, FParams(d1=k, d2=k)) - 1.0) < 1e-9


def test_quantile_reference_value():
    # frozen from the quadrature oracle: P(F(2,10) <= 4.1028...) = 0.95
    q = f_quantile(0.95, FParams(d1=2.0, d2=10.0))
    assert abs(q - 4.1028) < 1e-3
    assert abs(oracle_cdf(q, 2.0, 10.0) - 0.95) < 1e-10


def test_quantile_boundaries():
    params = FParams(d1=3.0, d2=8.0)
    assert f_quantile(0.0, params) == 0.0
    assert f_quantile(1.0, params) == math.inf
    with pytest.raises(DomainError):
        f_quantile(-0.01, params)
    with pytest.raises(DomainError):
        f_quantile(1.01, params)


def test_quantile_round_trip_grid():
    probs = [i / 100.0 for i in range(1, 100)]
    dfs = [1.0, 2.0, 5.0, 21.0]
    dens = [2.0, 10.0, 79.0, 200.0]
    for d1 in dfs:
        for d2 in dens:
            params = FParams(d1=d1, d2=d2)
            for prob in probs:
                q = f_quantile(prob, params)
                back = f_cdf(q, params)
                assert abs(back - prob) < 1e-8, (prob, d1, d2, q, back)


def test_quantile_reciprocal_symmetry():
    for prob in (0.05, 0.3, 0.5, 0.9, 0.975):
        for d1, d2 in ((2.0, 10.0), (5.0, 5.0), (1.0, 7.0), (21.0, 79.0)):
            a = f_quantile(prob, FParams(d1=d1, d2=d2))
            b = f_quantile(1.0 - prob, FParams(d1=d2, d2=d1))
            assert abs(a - 1.0 / b) <= 1e-7 * max(a, 1.0), (prob, d1, d2)


def test_quantile_monotone_in_prob():
    params = FParams(d1=6.0, d2=14.0)
    qs = [f_quantile(p, params) for p in np.linspace(0.01, 0.99, 50)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_quantile_where_the_density_needs_ln_beta_past_lgamma_range():
    # at d2 = 1e306, lgamma(d1/2 + d2/2) overflows; F(2, d2) tends to chi2(2) / 2,
    # whose median is ln 2
    assert abs(f_quantile(0.5, FParams(2, 1e306)) - math.log(2.0)) < 1e-12


# exact bits of f_cdf, f_quantile and kappa: a change to the continued fraction
# or the Newton iteration that moves one bit can move a printed kappa or a
# lambda <= kappa decision, which the tolerance checks above would not see
PINNED_F = (0.05, 0.5, 1.0, 2.5, 10.0)
PINNED_CDF = {
    (1, 1): ("0x1.1ed1d9cc89dcfp-3", "0x1.913afacab41ecp-2", "0x1.0000000000004p-1",
             "0x1.482eeb4797989p-1", "0x1.9c2b4a0decf99p-1"),
    (3, 7): ("0x1.060a5fcf00f9dp-6", "0x1.394e8674a1c15p-2", "0x1.1b186182e39b2p-1",
             "0x1.b685edb53afd7p-1", "0x1.fcc21aa403ffdp-1"),
    (11, 39): ("0x1.012e0d7d1e86fp-18", "0x1.bc47596187f19p-4", "0x1.12839c296000ep-1",
               "0x1.f7165a16d05ddp-1", "0x1.ffffff184c973p-1"),
    (15, 65): ("0x1.071833455e95dp-24", "0x1.166722fc63d22p-4", "0x1.114daf7acd9e2p-1",
               "0x1.fd16d8ba999c8p-1", "0x1.ffffffffea318p-1"),
    (30, 5): ("0x1.4934e6f5e3079p-27", "0x1.b7a53d0f76fe3p-4", "0x1.bd1498547ddfcp-2",
              "0x1.b0952d7f59e22p-1", "0x1.fb944ae42e46ep-1"),
}
# (q, n) of the benchmark's two workloads, (15, 80) and (11, 50): alpha ->
# (f_quantile(1 - alpha, FParams(q, n - q)), kappa(alpha, q, n))
PINNED_KAPPA = {
    (15, 80): {0.9: ("0x1.1a8605ecd1c7ap-1", "0x1.08dda58e04ab2p+3"),
               0.5: ("0x1.ee824b03e619dp-1", "0x1.cf9a2653a7b83p+3"),
               0.1: ("0x1.98273d71a88ffp+0", "0x1.7ea4c99a8e06fp+4")},
    (11, 50): {0.9: ("0x1.f2a71a247e7c3p-2", "0x1.56d2e1f916f56p+2"),
               0.5: ("0x1.e9b2f82ec4418p-1", "0x1.50ab0aa026ed0p+3"),
               0.1: ("0x1.bdc3d97a96fc9p+0", "0x1.3276a58447cdap+4")},
}


def test_f_bits_are_pinned():
    lower = set()
    for (d1, d2), expected in PINNED_CDF.items():
        for f, bits in zip(PINNED_F, expected):
            # the side of _reg_inc_beta's symmetry switch this point takes
            x = d1 * f / (d1 * f + d2)
            lower.add(x < (0.5 * d1 + 1.0) / (0.5 * d1 + 0.5 * d2 + 2.0))
            assert f_cdf(f, FParams(d1, d2)).hex() == bits, (d1, d2, f)
    assert lower == {True, False}
    for (q, n), by_alpha in PINNED_KAPPA.items():
        for alpha, (quantile, threshold) in by_alpha.items():
            assert f_quantile(1.0 - alpha, FParams(q, n - q)).hex() == quantile, (q, n, alpha)
            assert kappa(alpha, q, n).hex() == threshold, (q, n, alpha)
