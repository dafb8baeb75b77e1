"""F-distribution checks against a quadrature oracle.

The oracle integrates the F density with scipy's adaptive quadrature;
the package itself never imports scipy.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from cmcselect import DomainError, FParams, f_cdf, f_quantile
from cmcselect.fdist import _reg_inc_beta


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
