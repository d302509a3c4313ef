"""Conditional Laplace transform of the aggregate interference.

Given serving distance l, the interference is the sum of N - 2 i.i.d.
terms G U^{-alpha}, so its transform is a single-interferer factor raised
to the power N - 2:

    L_I(t | l) = g(t | l)^(N-2),
    g(t | l)   = int_l^{d_max} (1 + t u^{-alpha} / m)^{-m} f(u | l) du,

where the kernel is the Gamma MGF of the fading gain and f(u | l) is the
conditional interferer density.  Extending the upper limit beyond d_max
changes nothing because the density vanishes there.

Derivatives in t up to order m - 1 feed the coverage series.  They are
computed analytically: differentiation under the integral gives the
derivatives of g, and the derivatives of g^(N-2) follow from the
Taylor-coefficient recurrence for powers.  Numeric differentiation is
used only as a test oracle.

The u-integrals for all needed orders share one pass of a fixed rule
(``TabulatedDistribution.integrate_pdf_product``).  Near l it is a 4-point Gauss rule
per knot cell: the tabulated density is quadratic on a cell, so only the
kernel's Gauss error is left, and at m = 5, beta = 10 a series term moves
up to 4e-8 for l in the first cells and under 1e-10 from three cells on.
It runs up to a stored knot, every 4th knot of a geometric panel
[e, 2^(1/k) e] of the table, k = ceil(alpha / 6) (edges on knots, so the
ratio is at most 2^(1/k)): the first one at least a full cell above l's
cell, or the lowest edge from below it.  On the rest of that panel and on
each panel above, the kernel is interpolated at 24 Chebyshev points and
the cell rule times the density is folded into the weights: the cell rule
applied to the kernel's interpolant.  With y = t u^-alpha / m the series
terms are (m)_j/j! y^j (1 + y)^(-m-j) averaged over u.  Their poles lie
at u^alpha = -t / m, on the rays arg u = +-pi / alpha whatever t, l or
the scale, and the Bernstein ellipse of a panel that touches those rays
has rho = 5.1, 4.2, 3.1 at alpha = 3, 4, 6 (k = 1) and 5.2, 4.6, 3.3,
3.9, 3.3 at alpha = 7, 8, 12, 20, 30, never below its alpha = 6 value,
3.15.  Inside a smaller ellipse |arg y| < pi, so a term is bounded there
by a constant of rho, alpha, m and j alone, and Chebyshev interpolation
errs by at most 4 M rho^-24 / (rho - 1) on the whole panel (Trefethen,
Approximation Theory and Approximation Practice, 2013, thm. 8.2): about
rho^-24, or 1e-17, 9e-16 and 1e-12 at alpha = 3, 4, 6.  So it does on
the part of a panel above a stored knot too, whose error is at most the
bound times its mass, the weights of the cell rule being nonnegative.
Against the cell rule the largest term error measured over receiver and
pair tables of the four regimes is 7e-14 at alpha <= 4 and 7e-11 at
alpha from 6 to 20, at beta = 0.1 with l inside a panel, where a pole,
at |u| = (t / m)^(1/alpha) < l, can lie next to l's panel; for l within
a cell of a stored knot, a product rule from l's own first knot rather
than a full cell above it gave 8e-14 where this rule gives 9e-15.

The transform takes arrays of (t, l) and evaluates them in that one pass;
a scalar pair is its one-element case.  It returns the derivatives as one
array of shape (m,) plus the broadcast shape of (t, l), row k the k-th
t-derivative, which the coverage series sums row by row.  Everything is
deterministic and pure; evaluations can run concurrently.
"""

import math

import numpy as np

from .distance import TabulatedDistribution
from .errors import DomainError, UnsupportedParameterError
from .network import NetworkScenario, _check_geometry, _conditioning_survival

MAX_ANALYTIC_M = 5


def require_analytic_m(m) -> int:
    """Validate the Nakagami shape for the analytic path; return it as int."""
    if isinstance(m, float) and not m.is_integer():
        raise UnsupportedParameterError(
            f"analytic path needs integer Nakagami m, got {m!r}; "
            "use the Monte Carlo simulator instead"
        )
    m = int(m)
    if not (1 <= m <= MAX_ANALYTIC_M):
        raise UnsupportedParameterError(
            f"analytic path supports m in [1, {MAX_ANALYTIC_M}], got {m}; "
            "use the Monte Carlo simulator instead"
        )
    return m


def _g_derivatives(t, l, scenario: NetworkScenario, dist: TabulatedDistribution) -> np.ndarray:
    """Signed derivatives g^(j)(t | l) for j = 0 .. m-1, m the scenario's Nakagami shape.

    With x = u^{-a},
    g^(j) = (-1)^j (m)_j m^{-j} int x^j (1 + t x / m)^{-m-j} f(u|l) du,
    and (m)_j the rising factorial from the Gamma-kernel derivative.  t and
    l broadcast together; the result has shape (m,) plus their
    broadcast shape.  dist is a table, or a view (``take``) with a table
    per serving distance.  The kernel rows come from inv = 1 / (1 + t x / m) by
    repeated multiplication; x = u^{-a} is taken once per node of the
    rule.  t must be nonnegative; laplace_with_derivatives, the one
    caller, checks it.
    """
    t_arr, l_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(l, dtype=float))
    survival = np.ravel(_conditioning_survival(l_arr, dist))
    m = int(scenario.channel.m)
    alpha = scenario.channel.alpha
    t_scaled = t_arr.ravel() / m

    def rows_fn(x, sel):
        inv = t_scaled[sel, None] * x
        inv += 1.0
        out = np.empty((m,) + inv.shape)
        np.reciprocal(inv, out=inv)
        out[0] = inv
        for _ in range(m - 1):
            out[0] *= inv
        inv *= x
        for j in range(1, m):
            np.multiply(out[j - 1], inv, out=out[j])
        return out

    raw = dist.integrate_pdf_product(l_arr.ravel(), rows_fn, m, alpha) / survival
    # the conditional density integrates to 1 by construction; pin the
    # normalization identity g(0 | l) = 1 instead of its float residue
    raw[0, t_scaled == 0.0] = 1.0
    j = np.arange(m)
    rising = np.cumprod(np.concatenate(([1.0], m + j[:-1])))
    coef = (-1.0) ** j * rising / float(m) ** j
    return (coef[:, None] * raw).reshape((m,) + t_arr.shape)


def _power_derivatives(g: np.ndarray, n: int) -> np.ndarray:
    """Derivatives of g(t)^n from the derivatives g[0], g[1], ... of g, along the first axis.

    In Taylor coefficients a_q = g^(q) / q! and b_q of g^n,

        b_0 = a_0^n,    b_q = sum_{j=1..q} ((n + 1) j - q) a_j b_{q-j} / (q a_0),

    which needs a_0 = g > 0; in the coverage series g >= (1 + beta)^-m.
    For n below the order the recurrence yields the vanishing terms by
    itself, so small N needs no special case.
    """
    orders = len(g)
    fact = np.array([math.factorial(q) for q in range(orders)], dtype=float)
    fact = fact.reshape((orders,) + (1,) * (np.ndim(g) - 1))
    a = g / fact
    b = np.empty_like(a)
    b[0] = a[0] ** n
    for q in range(1, orders):
        b[q] = sum(((n + 1) * j - q) * a[j] * b[q - j] for j in range(1, q + 1)) / (q * a[0])
    return b * fact


def laplace_with_derivatives(
    t, l, scenario: NetworkScenario, dist: TabulatedDistribution
) -> np.ndarray:
    """L_I(t | l) = g(t | l)^(N-2) and its t-derivatives of order 0 .. m-1, as one array.

    t and l are scalars or arrays that broadcast together; every pair is
    evaluated in one pass, and every t must be finite and nonnegative.
    The result has shape (m,) plus their broadcast shape, row k the k-th
    derivative: m values for a scalar pair.  N = 2 means no interferers:
    the transform is identically 1 and all derivatives vanish.
    """
    m = require_analytic_m(scenario.channel.m)
    t_arr = np.asarray(t, dtype=float)
    bad = np.flatnonzero(~((t_arr >= 0.0) & (t_arr < np.inf)))
    if bad.size:
        first = float(t_arr.flat[bad[0]])
        raise DomainError(f"transform argument t={first!r} must be finite and nonnegative")
    _check_geometry(scenario.geom, dist)
    if scenario.N == 2:
        ds = np.zeros((m,) + np.broadcast(t_arr, np.asarray(l)).shape)
        ds[0] = 1.0
        return ds
    return _power_derivatives(_g_derivatives(t_arr, l, scenario, dist), scenario.N - 2)
