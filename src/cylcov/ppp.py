"""Conventional infinite-field Poisson baseline for comparison.

The finite-deployment model has no canonical Poisson counterpart, so this
repo pins one and documents it: for a NetworkScenario, a homogeneous
Poisson point process of the matched intensity lam = N / (pi R^2 H)
filling all of 3-D space, nearest-point association, every other point
interfering, with the same path-loss and Nakagami fading laws.  The
serving distance then has the standard density

    f(l) = 4 pi lam l^2 exp(-(4/3) pi lam l^3),

and conditioned on it the interferers form a Poisson process of intensity
lam outside the ball of radius l, giving the exponential transform

    L_I(t | l) = exp(-4 pi lam l^3 A(t / (m l^alpha))),
    A(s) = int_1^inf (1 - (1 + s v^-alpha)^-m) v^2 dv.

At t = m beta l^alpha the argument of A is beta whatever l is, and the
serving law makes 4 pi lam l^3 exponential with mean 3, so averaging the
derivative series of the finite model over l is a finite sum in closed
form.  With delta = 3 / alpha,

    1 + 3 A(s) = 2F1(m, -delta; 1 - delta; -s),

and the coverage probability is the sum of the first m Taylor
coefficients in x of 1 / D(x), D(x) = 1 + 3 A(beta (1 - x)).  Those of D
are unnormalised incomplete beta functions at w = beta / (1 + beta),
d_0 = 1 + delta beta^delta sum_{i<m} B_w(1 - delta, delta + i) and
d_j = -delta C(m + j - 1, j) beta^delta B_w(j - delta, m + delta), each a
continued fraction, and those of 1 / D follow by the power-series
reciprocal.  A value costs about a tenth of a millisecond.  The
intensity cancels, so the result does not depend on N, R or H:
``ppp_coverage`` reads only alpha, m and beta of its scenario; only the
truncated-field simulator that checks it, a test oracle in
``tests/conftest.py``, takes lam from N and the cylinder.  At m = 1 it is
the textbook 1 / (1 + 3 A(beta)), the 3-D form of Andrews, Baccelli &
Ganti (IEEE TCOM 2011).

Caveat, stated prominently: in an infinite 3-D field the aggregate
interference is almost surely infinite unless alpha > 3.  For
2 < alpha <= 3 the exponent above diverges for every t > 0, the transform
is identically zero, and the baseline's coverage probability collapses to
exactly 0.  ``ppp_coverage`` returns that honest 0 rather than truncating
the field ad hoc.  Truncated to a ball of radius M about the receiver,
the field's coverage at alpha <= 3 keeps falling as M grows, consistent
with the collapse.
"""

import math
import sys

from .coverage import CoverageResult, _within_contract
from .interference import require_analytic_m
from .network import NetworkScenario

# Rounding allowance, in units of m * eps * pc / (1 - delta), for the
# incomplete beta values and the recurrence.  Against a 30-digit mpmath
# quadrature at 910 random points (alpha 3.001 to 20, beta 1e-6 to 1e6,
# m 1 to 5) the error beyond the power-series gap reached 3.2 units.
_ROUNDING_ULPS = 4.0
_TERMS = 1000  # cap on the terms of either incomplete beta route


def _lentz_tail(p: float, q: float, x: float) -> float:
    """p B_x(p, q) / (x^p (1 - x)^q), by the modified Lentz method on DLMF 8.17.22."""
    f, c, d = 1.0, 1.0, 0.0
    for n in range(1, _TERMS):
        i = n // 2
        a = (-(p + i) * (p + q + i) if n % 2 else i * (q - i)) * x / ((p + n - 1) * (p + n))
        d = 1.0 / ((1.0 + a * d) or 1e-300)
        c = (1.0 + a / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return 1.0 / f
    raise RuntimeError(f"continued fraction of B_x(p, q) unsettled at p={p!r}, q={q!r}, x={x!r}")


def _series_tail(p: float, q: float, x: float) -> float:
    """The same ratio as sum_n (p + q)_n / (p + 1)_n x^n; on _beta_inc's side its terms fall."""
    term = total = 1.0
    for n in range(_TERMS):
        term *= (p + q + n) / (p + 1.0 + n) * x
        total += term
        if term <= sys.float_info.epsilon * total:
            return total
    raise RuntimeError(f"power series of B_x(p, q) unsettled at p={p!r}, q={q!r}, x={x!r}")


def _beta_inc(p: float, q: float, beta: float, tail) -> float:
    """B_w(p, q) at w = beta / (1 + beta), from the side of w on which tail converges."""
    w, w1 = beta / (1.0 + beta), 1.0 / (1.0 + beta)
    if w < (p + 1.0) / (p + q + 2.0):
        return w**p * w1**q / p * tail(p, q, w)
    whole = math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
    return whole - w1**q * w**p / q * tail(q, p, w1)


def _coverage_sum(m: int, delta: float, beta: float, tail) -> float:
    """Sum of the Taylor coefficients of order < m of 1 / D(x), with B_w taken through tail.

    d_0 >= 1 and d_j < 0 for j >= 1 (module docstring), so every coefficient of 1 / D is positive.
    """
    s = delta * beta**delta
    d = [1.0 + s * sum(_beta_inc(1.0 - delta, delta + i, beta, tail) for i in range(m))]
    d += [-s * math.comb(m + j - 1, j) * _beta_inc(j - delta, m + delta, beta, tail) for j in range(1, m)]
    if not all(map(math.isfinite, d)):
        raise RuntimeError(f"B_w is not finite at delta={delta!r}, beta={beta!r}")
    q = [1.0 / d[0]]
    for k in range(1, m):
        q.append(-sum(d[i] * q[k - i] for i in range(1, k + 1)) / d[0])
    return float(sum(q))


def ppp_coverage(scenario: NetworkScenario) -> CoverageResult:
    """Coverage probability of the typical receiver in the scenario's Poisson field.

    Reads alpha, m and beta; N, R and H do not enter.  Exact for
    alpha > 3, in closed form (see module docstring).  error_estimate is
    the gap to the same sum with every incomplete beta function taken by
    its power series, plus a rounding bound: every term is positive,
    so rounding is relative to pc, and the rounding of delta = 3 / alpha
    is amplified by the pole of A at delta = 1, a factor 1 / (1 - delta).
    It must stay within the coverage contract.  For alpha <= 3 the infinite
    field carries almost surely infinite interference and the result is
    exactly 0.
    """
    m = require_analytic_m(scenario.channel.m)
    if scenario.channel.alpha <= 3.0:
        return _within_contract(0.0, 0.0, "ppp-baseline", scenario)
    delta = 3.0 / scenario.channel.alpha
    value = _coverage_sum(m, delta, scenario.beta, _lentz_tail)
    err = abs(value - _coverage_sum(m, delta, scenario.beta, _series_tail))
    err += _ROUNDING_ULPS * m * sys.float_info.epsilon * value / (1.0 - delta)
    return _within_contract(value, err, "ppp-baseline", scenario)
