"""F-distribution CDF and quantile, self-contained.

The CDF goes through the regularized incomplete beta function, evaluated
by the classic continued fraction; the quantile inverts the CDF with a
safeguarded Newton iteration inside a bisection bracket.  Probability 1
maps to the +infinity sentinel so that thresholds built from the 100th
percentile compare correctly against any finite statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_CF_EPS = 3e-16
_CF_MAX_ITER = 500
_CF_TINY = 1e-300


@dataclass(frozen=True)
class FParams:
    """Degrees of freedom (d1 numerator, d2 denominator), both positive and finite."""

    d1: float
    d2: float

    def __post_init__(self) -> None:
        for label, v in (("d1", self.d1), ("d2", self.d2)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{label} must be positive and finite, got {v!r}")


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz evaluation."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # one Lentz step for the even coefficient, then one for the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def _ln_inv_beta(a: float, b: float) -> float:
    """ln(Gamma(a + b) / (Gamma(a) Gamma(b))) for positive, finite a and b.

    Past lgamma's range (an argument above about 2.5e305) the larger of
    a and b, g, exceeds 1e305, and Stirling's series gives the value from
    the smaller, s.  Below s = 1e8 it is s ln g - lgamma(s), the next
    term s (s - 1) / (2g) being under 1e-289.  Above, it is
    a log1p(b/a) + b log1p(a/b) + (ln s - log1p(s/g) - ln 2pi) / 2, plus
    1/(12(a+b)) - 1/(12a) - 1/(12b), with an error under 1e-25.
    """
    try:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    except OverflowError:
        pass
    s, g = min(a, b), max(a, b)
    if s < 1e8:
        return s * math.log(g) - math.lgamma(s)
    return (a * math.log1p(b / a) + b * math.log1p(a / b)
            + 0.5 * (math.log(s) - math.log1p(s / g) - math.log(2.0 * math.pi))
            + 1.0 / (12.0 * (a + b)) - 1.0 / (12.0 * a) - 1.0 / (12.0 * b))


def _reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), absolute error below 1e-12.

    Unchecked: f_cdf, the one caller, passes x in [0, 1] and the
    positive, finite halves of an FParams.
    """
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(_ln_inv_beta(a, b) + a * math.log(x) + b * math.log1p(-x))
    # symmetry switch keeps the continued fraction in its fast-convergence region
    lower = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:
        # the fraction is not needed, and at a or b near 1e308 it need not converge
        return 0.0 if lower else 1.0
    if lower:
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_cdf(f: float, params: FParams) -> float:
    """P(F <= f) for F with params.d1 and params.d2 degrees of freedom.

    Raises DomainError when it cannot give a probability: a result
    outside [0, 1], which cancellation in ln B(d1/2, d2/2) gives at a
    huge d2, or a continued fraction that does not converge.
    """
    if math.isnan(f) or f < 0.0:
        raise DomainError(f"f must be >= 0, got {f!r}")
    if f == 0.0:
        return 0.0
    d1, d2 = params.d1, params.d2
    # a finite f can overflow here too, where the cdf is 1 to double precision
    if math.isinf(d1 * f):
        return 1.0
    # so can the sum, so only then divide by d1 * f instead
    x = d1 * f / (d1 * f + d2) if math.isfinite(d1 * f + d2) else 1.0 / (1.0 + d2 / (d1 * f))
    cdf = _reg_inc_beta(x, 0.5 * d1, 0.5 * d2)
    if not 0.0 <= cdf <= 1.0:
        raise DomainError(f"F cdf at f={f!r} with d1={d1!r}, d2={d2!r} lost its precision: got {cdf!r}")
    return cdf


def _f_pdf(f: float, d1: float, d2: float) -> float:
    """F density, evaluated in log space to dodge overflow."""
    if f <= 0.0:
        return 0.0
    a = 0.5 * d1
    b = 0.5 * d2
    ln_pdf = (
        _ln_inv_beta(a, b)
        + a * math.log(d1 / d2) + (a - 1.0) * math.log(f)
        - (a + b) * math.log1p(d1 * f / d2)
    )
    return math.exp(ln_pdf)


def f_quantile(prob: float, params: FParams) -> float:
    """Inverse CDF: the f with f_cdf(f) = prob.

    Parameters
    ----------
    prob : float in [0, 1]
    params : FParams

    Returns
    -------
    float; 0.0 at prob=0 and math.inf at prob=1.  Interior values satisfy
    |f_cdf(f) - prob| <= 1e-10.
    """
    if math.isnan(prob) or not (0.0 <= prob <= 1.0):
        raise DomainError(f"prob must lie in [0, 1], got {prob!r}")
    if prob == 0.0:
        return 0.0
    if prob == 1.0:
        return math.inf

    lo, hi = 0.0, 1.0
    c_hi = f_cdf(hi, params)
    while c_hi < prob:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise DomainError(f"quantile bracket overflow at prob={prob}")
        c_hi = f_cdf(hi, params)

    x = 0.5 * (lo + hi)
    for _ in range(200):
        c = f_cdf(x, params)
        if c > prob:
            hi = x
        else:
            lo = x
        err = c - prob
        if abs(err) <= 1e-14 * max(prob, 1.0 - prob):
            break
        g = _f_pdf(x, params.d1, params.d2)
        if g > 0.0:
            step = err / g
            x_new = x - step
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return x
