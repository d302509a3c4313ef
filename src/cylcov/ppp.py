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
coefficients in x of 1 / D(x), D(x) = 1 + 3 A(beta (1 - x)).  The
coefficients of D are derivatives of the hypergeometric function, one
scipy hyp2f1 call for all m of them, and those of 1 / D follow by the
power-series reciprocal.  A value costs a few hundredths of a
millisecond.  The intensity cancels, so the result does not depend on N,
R or H: ``ppp_coverage`` reads only alpha, m and beta of its scenario,
and only the truncated-field simulator (``simulate_ppp_coverage``) takes
lam from N and the cylinder.  At m = 1 it is the textbook
1 / (1 + 3 A(beta)), the 3-D form of Andrews, Baccelli & Ganti (IEEE
TCOM 2011).

Caveat, stated prominently: in an infinite 3-D field the aggregate
interference is almost surely infinite unless alpha > 3.  For
2 < alpha <= 3 the exponent above diverges for every t > 0, the transform
is identically zero, and the baseline's coverage probability collapses to
exactly 0.  ``ppp_coverage`` returns that honest 0 rather than truncating
the field ad hoc.  Truncated Monte Carlo runs at alpha <= 3 keep drifting
down as the truncation grows, consistent with the collapse.
"""

import sys

import numpy as np
from scipy.special import binom, hyp2f1

from .coverage import CoverageResult, _within_contract
from .interference import require_analytic_m
from .network import NetworkScenario

# Rounding allowance, in units of m * eps * pc / (1 - delta): a few ulps
# for each hyp2f1 value on top of the recurrence's own rounding.  Against a
# 25-digit mpmath quadrature over 310 random points (alpha 3.001 to 20,
# beta 1e-6 to 1e6, m 1 to 5) the error beyond the Pfaff gap reached 1.06
# units.
_ROUNDING_ULPS = 4.0


def _pfaff_hyp2f1(a, b, c, z):
    """2F1(a, b; c; z) through Pfaff's transformation, z / (z - 1) in place of z."""
    return (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1.0))


def _coverage_sum(m: int, delta: float, beta: float, hyp) -> float:
    """Sum of the Taylor coefficients of order < m of 1 / D(x), with 2F1 evaluated by hyp.

    d_j = beta^j (m)_j (-delta)_j / ((1 - delta)_j j!) 2F1(m + j, j - delta; j + 1 - delta; -beta)
    is the x^j coefficient of D(x) = 2F1(m, -delta; 1 - delta; -beta (1 - x)).
    d_0 >= 1 and d_j < 0 for j >= 1, so every coefficient of 1 / D is positive.
    """
    j = np.arange(m)
    d = -delta / (j - delta) * binom(m + j - 1, j) * beta**j * hyp(
        m + j, j - delta, j + 1.0 - delta, -beta
    )
    if not np.isfinite(d).all():
        raise RuntimeError(f"2F1 is not finite at delta={delta!r}, beta={beta!r}")
    q = [1.0 / d[0]]
    for k in range(1, m):
        q.append(-sum(d[i] * q[k - i] for i in range(1, k + 1)) / d[0])
    return float(sum(q))


def ppp_coverage(scenario: NetworkScenario) -> CoverageResult:
    """Coverage probability of the typical receiver in the scenario's Poisson field.

    Reads alpha, m and beta; N, R and H do not enter.  Exact for
    alpha > 3, in closed form (see module docstring).  error_estimate is
    the gap to the same sum with every 2F1 taken through Pfaff's
    transformation, plus a rounding bound: every term is positive,
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
    value = _coverage_sum(m, delta, scenario.beta, hyp2f1)
    err = abs(value - _coverage_sum(m, delta, scenario.beta, _pfaff_hyp2f1))
    err += _ROUNDING_ULPS * m * sys.float_info.epsilon * value / (1.0 - delta)
    return _within_contract(value, err, "ppp-baseline", scenario)
