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

The u-integrals for all needed orders share one pass of a 4-point Gauss
rule per knot cell.  The tabulated density is quadratic on a cell, so only
the kernel's Gauss error is left: at m = 5, beta = 10 a series term moves
up to 4e-8 for l in the first cells and under 1e-10 from three cells on.
The transform takes arrays of (t, l) and evaluates them in that one pass;
a scalar pair is its one-element case.  Everything is deterministic and
pure; evaluations can run concurrently.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .distance import TabulatedDistribution
from .errors import DomainError, UnsupportedParameterError
from .network import NetworkScenario, _check_geometry, _conditioning_survival

MAX_ANALYTIC_M = 5


@dataclass(frozen=True)
class LaplaceEvaluation:
    """L_I(t | l) together with its t-derivatives of order 0 .. m-1.

    Floats for a scalar (t, l), arrays of their broadcast shape otherwise.
    """

    value: Union[float, np.ndarray]
    derivatives: Tuple[Union[float, np.ndarray], ...]


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


def _g_derivatives(
    t, l, scenario: NetworkScenario, dist: TabulatedDistribution, orders: int
) -> np.ndarray:
    """Signed derivatives g^(j)(t | l) for j = 0 .. orders-1.

    With x = u^{-a},
    g^(j) = (-1)^j (m)_j m^{-j} int x^j (1 + t x / m)^{-m-j} f(u|l) du,
    and (m)_j the rising factorial from the Gamma-kernel derivative.  t and
    l broadcast together; the result has shape (orders,) plus their
    broadcast shape.  The kernel rows come from inv = 1 / (1 + t x / m) by
    repeated multiplication, with no power per element beyond x itself.
    t must be nonnegative; laplace_with_derivatives, the one caller,
    checks it.
    """
    t_arr, l_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(l, dtype=float))
    survival = np.ravel(_conditioning_survival(l_arr, dist))
    m = int(scenario.channel.m)
    alpha = scenario.channel.alpha
    t_scaled = t_arr.ravel() / m

    def rows_fn(u, sel):
        x = u**-alpha
        inv = t_scaled[sel, None] * x
        inv += 1.0
        out = np.empty((orders,) + inv.shape)
        np.reciprocal(inv, out=inv)
        out[0] = inv
        for _ in range(m - 1):
            out[0] *= inv
        inv *= x
        for j in range(1, orders):
            np.multiply(out[j - 1], inv, out=out[j])
        return out

    raw = dist.integrate_pdf_product(l_arr.ravel(), rows_fn, orders) / survival
    # the conditional density integrates to 1 by construction; pin the
    # normalization identity g(0 | l) = 1 instead of its float residue
    raw[0, t_scaled == 0.0] = 1.0
    j = np.arange(orders)
    rising = np.cumprod(np.concatenate(([1.0], m + j[:-1])))
    coef = (-1.0) ** j * rising / float(m) ** j
    return (coef[:, None] * raw).reshape((orders,) + t_arr.shape)


def _power_derivatives(g: np.ndarray, n: int, orders: int) -> np.ndarray:
    """Derivatives of g(t)^n from the derivatives of g, along the first axis.

    In Taylor coefficients a_q = g^(q) / q! and b_q of g^n,

        b_0 = a_0^n,    b_q = sum_{j=1..q} ((n + 1) j - q) a_j b_{q-j} / (q a_0),

    which needs a_0 = g > 0; in the coverage series g >= (1 + beta)^-m.
    For n below the order the recurrence yields the vanishing terms by
    itself, so small N needs no special case.
    """
    fact = np.array([math.factorial(q) for q in range(orders)], dtype=float)
    fact = fact.reshape((orders,) + (1,) * (np.ndim(g) - 1))
    a = np.asarray(g)[:orders] / fact
    b = np.empty_like(a)
    b[0] = a[0] ** n
    for q in range(1, orders):
        b[q] = sum(((n + 1) * j - q) * a[j] * b[q - j] for j in range(1, q + 1)) / (q * a[0])
    return b * fact


def laplace_with_derivatives(
    t, l, scenario: NetworkScenario, dist: TabulatedDistribution
) -> LaplaceEvaluation:
    """L_I(t | l) = g(t | l)^(N-2) with derivatives of order 0 .. m-1.

    t and l are scalars or arrays that broadcast together; every pair is
    evaluated in one pass.  N = 2 means no interferers: the transform is
    identically 1 and all derivatives vanish.
    """
    m = require_analytic_m(scenario.channel.m)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError(
            f"transform argument t={float(np.min(t_arr))!r} must be nonnegative"
        )
    if scenario.N == 2:
        ds = np.zeros((m,) + np.broadcast(t_arr, np.asarray(l)).shape)
        ds[0] = 1.0
    else:
        _check_geometry(scenario.geom, dist)
        g = _g_derivatives(t_arr, l, scenario, dist, m)
        ds = _power_derivatives(g, scenario.N - 2, m)
    if ds.ndim == 1:
        return LaplaceEvaluation(value=float(ds[0]), derivatives=tuple(float(d) for d in ds))
    return LaplaceEvaluation(value=ds[0], derivatives=tuple(ds))
