"""Coverage probability of the typical receiver.

For integer Nakagami shape m, the tail of the serving gain expands into a
finite series, which turns the conditional coverage at serving distance l
into a derivative sum of the interference transform evaluated at
t = m beta l^alpha:

    P(covered | l) = sum_{k=0}^{m-1} (-t)^k / k! * d^k/dt^k L_I(t | l).

Averaging over the serving-distance density gives the coverage
probability as a single outer integral over [0, d_max], evaluated by
deterministic adaptive quadrature.  The integrand is forced to zero where
1 - F(l) underflows; the discarded serving-distance mass there is
(1 - F)^(N-1) <= 1e-12, far below the 1e-4 error contract.

A network of N = 2 nodes has no interferer, the SIR is infinite under
the noise-free model, and the coverage probability is defined as 1.

``coverage_probability`` is the paper's model: it treats the N - 1
receiver-to-node distances as i.i.d. draws from the pair law.  In a
deployment they share the receiver's position, which biases that model
high at small N.  ``exact_coverage_probability`` conditions on the
receiver instead: given x the distances are i.i.d. with law F_x, so the
same conditional series applies per receiver, and the result is its
average over a rule of receiver positions (``build_receiver_cdfs``).
"""

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.integrate import quad

from .distance import (
    ReceiverMixture,
    TabulatedDistribution,
    receiver_breakpoints,
    receiver_distance_law,
)
from .errors import DomainError
from .interference import laplace_with_derivatives, require_analytic_m
from .network import _SURVIVAL_FLOOR, NetworkScenario, _check_geometry

# Gauss order per panel of the per-receiver serving-distance integral, for
# the reported rule and for the coarser one that checks it.
EXACT_ORDER = 8
EXACT_CHECK_ORDER = 6
_GAUSS_RULES = {
    order: np.polynomial.legendre.leggauss(order) for order in (EXACT_ORDER, EXACT_CHECK_ORDER)
}
# Panels are also split where the serving survival (1 - F_x)^(N-1) passes
# these levels, so that at large N no panel is mostly empty tail.
_SERVING_SURVIVAL_SPLITS = np.array([0.5, 1e-2, 1e-4])


@dataclass(frozen=True)
class CoverageResult:
    """Coverage probability with its method tag and error bound.

    error_estimate is the quadrature error bound for analytic methods and
    a 95% confidence half-width for Monte Carlo ones.  scenario echoes
    whatever parameter object produced the number.
    """

    pc: float
    method: str
    error_estimate: float
    scenario: Any

    def __post_init__(self):
        if not (0.0 <= self.pc <= 1.0):
            raise DomainError(f"coverage probability {self.pc!r} outside [0, 1]")
        if self.error_estimate < 0.0:
            raise DomainError("error_estimate must be nonnegative")


def conditional_coverage(l, scenario: NetworkScenario, dist: TabulatedDistribution):
    """P(SIR > beta | serving distance l), clipped into [0, 1].

    Accepts scalar or array l (a float or an array of l's shape out); all
    serving distances share one evaluation of the transform and its
    derivatives.
    """
    m = require_analytic_m(scenario.channel.m)
    l_arr = np.asarray(l, dtype=float)
    t = m * scenario.beta * l_arr**scenario.channel.alpha
    lap = laplace_with_derivatives(t, l_arr, scenario, dist)
    total = sum((-t) ** k / math.factorial(k) * d for k, d in enumerate(lap.derivatives))
    out = np.clip(total, 0.0, 1.0)
    return float(out) if np.ndim(l) == 0 else out


def coverage_probability(
    scenario: NetworkScenario,
    dist: TabulatedDistribution,
    epsabs: float = 1e-6,
) -> CoverageResult:
    """Coverage probability via the outer serving-distance integral.

    Deterministic given the scenario and CDF grid.  The requested
    quadrature tolerance is 1e-6; the contract guarantees 1e-4 absolute,
    absorbing tabulation error.
    """
    require_analytic_m(scenario.channel.m)
    if scenario.N == 2:
        return CoverageResult(pc=1.0, method="analytic", error_estimate=0.0, scenario=scenario)
    _check_geometry(scenario.geom, dist)
    n = scenario.N
    cutoff = dist.survival_cutoff(_SURVIVAL_FLOOR)

    def integrand(l: float) -> float:
        survival = dist.sf(l)
        if survival < _SURVIVAL_FLOOR:
            return 0.0
        density = dist.pdf(l)
        if density <= 0.0:
            return 0.0
        return (
            conditional_coverage(l, scenario, dist)
            * (n - 1)
            * survival ** (n - 2)
            * density
        )

    interior = sorted(
        {p for p in (2.0 * scenario.geom.R, scenario.geom.H) if 0.0 < p < cutoff}
    )
    # The integrand inherits C^1 knots from the tabulated CDF, so QUADPACK
    # may stop at its roundoff plateau before certifying the requested 1e-6;
    # full_output swallows that advisory (thread-safely, unlike a warnings
    # filter) and the returned estimate is checked against the contract.
    result = quad(
        integrand,
        0.0,
        cutoff,
        points=interior or None,
        epsabs=epsabs,
        epsrel=epsabs,
        limit=200,
        full_output=1,
    )
    value, err = result[0], result[1]
    if err > 1e-4:
        raise RuntimeError(
            f"coverage quadrature error estimate {err!r} exceeds the 1e-4 contract"
        )
    return CoverageResult(
        pc=min(max(value, 0.0), 1.0),
        method="analytic",
        error_estimate=float(err),
        scenario=scenario,
    )


def _receiver_coverage(
    scenario: NetworkScenario, table: TabulatedDistribution, r: float, z: float, order: int
) -> float:
    """P(SIR > beta | receiver at (r, z)) by a fixed Gauss rule over serving distance.

    The serving density (N-1) (1 - F_x)^(N-2) f_x comes from the exact
    receiver law, whose kinks are panel edges; the conditional series
    reads the tabulated F_x and takes all of the rule's serving distances
    in one array call.  Nodes where the table's survival is below the
    floor are dropped, as in ``coverage_probability``.
    """
    n = scenario.N
    breaks = receiver_breakpoints(scenario.geom, r, z)
    levels = 1.0 - _SERVING_SURVIVAL_SPLITS ** (1.0 / (n - 1))
    splits = np.interp(levels, table.cdf_values, table.grid)
    edges = np.union1d(breaks, splits[(splits > 0.0) & (splits < breaks[-1])])
    x, w = _GAUSS_RULES[order]
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * x).ravel()
    weights = (halves[:, None] * w).ravel()
    cdf, pdf = receiver_distance_law(scenario.geom, r, z, nodes)
    density = (n - 1) * np.maximum(1.0 - cdf, 0.0) ** (n - 2) * pdf
    live = (density > 0.0) & (table.sf(nodes) >= _SURVIVAL_FLOOR)
    covered = conditional_coverage(nodes[live], scenario, table)
    return float(np.sum(weights[live] * density[live] * covered))


def exact_coverage_probability(
    scenario: NetworkScenario, mixture: ReceiverMixture
) -> CoverageResult:
    """Coverage probability of a deployment, conditioned on the receiver's position.

    Averages the per-receiver coverage over mixture's receiver rule (at
    Gauss order EXACT_ORDER per serving-distance panel).  error_estimate
    is the gap to the same average over mixture.check at order
    EXACT_CHECK_ORDER, a rule coarser in both integrals; it must stay
    within the 1e-4 contract.
    """
    require_analytic_m(scenario.channel.m)
    if scenario.N == 2:
        return CoverageResult(
            pc=1.0, method="analytic-exact", error_estimate=0.0, scenario=scenario
        )
    if mixture.geometry != scenario.geom:
        raise DomainError(
            f"receiver tables built for (R={mixture.geometry.R}, H={mixture.geometry.H}), "
            f"scenario has (R={scenario.geom.R}, H={scenario.geom.H})"
        )
    if mixture.check is None:
        raise DomainError("mixture has no check rule; build it with build_receiver_cdfs")

    def average(mix: ReceiverMixture, order: int) -> float:
        return sum(
            weight * _receiver_coverage(scenario, table, r, z, order)
            for (r, z), weight, table in zip(mix.nodes, mix.weights, mix.tables)
        )

    value = average(mixture, EXACT_ORDER)
    err = abs(value - average(mixture.check, EXACT_CHECK_ORDER))
    if err > 1e-4:
        raise RuntimeError(
            f"exact coverage error estimate {err!r} exceeds the 1e-4 contract"
        )
    return CoverageResult(
        pc=min(max(value, 0.0), 1.0),
        method="analytic-exact",
        error_estimate=float(err),
        scenario=scenario,
    )
