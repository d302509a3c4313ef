"""Coverage probability of the typical receiver.

For integer Nakagami shape m, the tail of the serving gain expands into a
finite series, which turns the conditional coverage at serving distance l
into a derivative sum of the interference transform evaluated at
t = m beta l^alpha:

    P(covered | l) = sum_{k=0}^{m-1} (-t)^k / k! * d^k/dt^k L_I(t | l).

Averaging over the serving-distance density gives the coverage
probability as a single outer integral over [0, d_max], evaluated by a
fixed product rule: the smooth conditional coverage is interpolated per
panel from one array call of the series, and the interpolant is
integrated against the serving density cell by cell of the CDF table.
The integral stops at the last knot where 1 - F(l) is above the survival
floor; the discarded serving-distance mass there, (1 - F)^(N-1), is far
below the 1e-4 error contract and is counted in the error estimate.

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

from .distance import (
    _SURVIVAL_FLOOR,
    ReceiverMixture,
    TabulatedDistribution,
    _gauss_on_panels,
    receiver_breakpoints,
    receiver_distance_law,
)
from .errors import DomainError
from .interference import laplace_with_derivatives, require_analytic_m
from .network import NetworkScenario, _check_geometry, serving_distance_pdf

# Every analytic coverage value carries an error estimate within this bound.
COVERAGE_CONTRACT = 1e-4
# Gauss order per panel of the per-receiver serving-distance integral, for
# the reported rule and for the coarser one that checks it.
EXACT_ORDER = 8
EXACT_CHECK_ORDER = 6
# Interpolation order per panel of the paper model's conditional coverage,
# for the reported rule and for the coarser one that checks it, and the
# Gauss points per knot cell of the rule that integrates its serving density.
PAPER_ORDER = 12
PAPER_CHECK_ORDER = 8
_DENSITY_ORDER = 4
_GAUSS_RULES = {
    order: np.polynomial.legendre.leggauss(order)
    for order in (EXACT_ORDER, EXACT_CHECK_ORDER, PAPER_ORDER, PAPER_CHECK_ORDER, _DENSITY_ORDER)
}
# Values at the Gauss nodes of one order -> Legendre coefficients of their
# interpolating polynomial, a_k = (k + 1/2) sum_j w_j P_k(x_j) c_j (the
# Gauss rule integrates P_k times the interpolant exactly).
_TO_LEGENDRE = {
    order: (np.arange(order) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(x, order - 1).T
    * w
    for order, (x, w) in _GAUSS_RULES.items()
    if order in (PAPER_ORDER, PAPER_CHECK_ORDER)
}
# Panels are also split where the serving survival (1 - F)^(N-1) passes
# these levels, so that at large N no panel is mostly empty tail.  The exact
# rule adds 0.9, which splits the rise of each receiver's serving density:
# at large N in the tall cylinder its order-8 rule misses that rise by more
# than the contract without the split.  The paper rule keeps its three
# levels, which its pinned CSV digits depend on.
_PAPER_SPLITS = np.array([0.5, 1e-2, 1e-4])
_EXACT_SPLITS = np.array([0.9, 0.5, 1e-2, 1e-4])


@dataclass(frozen=True)
class CoverageResult:
    """Coverage probability with its method tag and error bound.

    error_estimate bounds the numerical error of the analytic methods
    (the gap to a coarser rule, or for the Poisson baseline to a
    transformed evaluation plus rounding).  scenario echoes whatever
    parameter object produced the number.
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


def _within_contract(value: float, err: float, method: str, scenario: Any) -> CoverageResult:
    """The result of an analytic method, with value clipped into [0, 1].

    Raises RuntimeError when err is past COVERAGE_CONTRACT.
    """
    if err > COVERAGE_CONTRACT:
        raise RuntimeError(
            f"{method} error estimate {float(err)!r} exceeds the "
            f"{COVERAGE_CONTRACT!r} coverage contract"
        )
    return CoverageResult(
        pc=min(max(float(value), 0.0), 1.0),
        method=method,
        error_estimate=float(err),
        scenario=scenario,
    )


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


def _panel_edges(
    breaks: np.ndarray, table: TabulatedDistribution, n: int, survivals: np.ndarray
) -> np.ndarray:
    """Sorted breaks from 0 to the range's end, plus the serving-survival splits inside it.

    The splits are where (1 - F)^(N-1) of table passes the levels in
    survivals, read off the knot table by linear interpolation.
    """
    levels = 1.0 - survivals ** (1.0 / (n - 1))
    splits = np.interp(levels, table.cdf_values, table.grid)
    return np.union1d(breaks, splits[(splits > 0.0) & (splits < breaks[-1])])


def coverage_probability(scenario: NetworkScenario, dist: TabulatedDistribution) -> CoverageResult:
    """Coverage probability via the outer serving-distance integral, by a fixed product rule.

    The integrand is the conditional coverage, smooth in l, times the
    serving density (N-1) (1 - F)^(N-2) f, which is piecewise polynomial
    but only continuous at the table's knots.  The range is cut into
    panels at 2R, H and the serving-survival splits, each halved; the
    conditional coverage is evaluated at PAPER_ORDER Gauss nodes per
    panel, in one engine call, and its interpolating polynomial on each
    panel is integrated against the serving density by a rule of
    _DENSITY_ORDER Gauss points per knot cell.  error_estimate is the gap
    to the same rule at interpolation order PAPER_CHECK_ORDER, plus the
    serving-distance mass beyond the last knot whose survival is above
    the floor, where the integral stops; it must stay within
    COVERAGE_CONTRACT.  Deterministic given the scenario and CDF grid.
    """
    require_analytic_m(scenario.channel.m)
    if scenario.N == 2:
        return _within_contract(1.0, 0.0, "analytic", scenario)
    _check_geometry(scenario.geom, dist)
    n = scenario.N
    cutoff = dist.survival_cutoff()
    end = float(dist.grid[np.searchsorted(dist.grid, cutoff) - 1])
    kinks = [p for p in (2.0 * scenario.geom.R, scenario.geom.H) if 0.0 < p < end]
    edges = _panel_edges(np.array([0.0, *kinks, end]), dist, n, _PAPER_SPLITS)
    edges = np.union1d(edges, 0.5 * (edges[1:] + edges[:-1]))
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)

    # the serving density on the knot cells, cut at the panel edges
    cells = np.union1d(dist.grid[dist.grid < end], edges)
    points, weights = _gauss_on_panels(cells, *_GAUSS_RULES[_DENSITY_ORDER])
    weights *= serving_distance_pdf(points, scenario, dist)
    panel = np.searchsorted(edges, points) - 1
    offsets = (points - mids[panel]) / halves[panel]

    def integral(order: int) -> float:
        nodes = _gauss_on_panels(edges, *_GAUSS_RULES[order])[0]
        covered = conditional_coverage(nodes, scenario, dist).reshape(-1, 1, order)
        coef = (_TO_LEGENDRE[order] * covered).sum(axis=-1)
        basis = np.polynomial.legendre.legvander(offsets, order - 1)
        return float(np.sum(weights * (basis * coef[panel]).sum(axis=-1)))

    value = integral(PAPER_ORDER)
    err = abs(value - integral(PAPER_CHECK_ORDER)) + dist.sf(end) ** (n - 1)
    return _within_contract(value, err, "analytic", scenario)


def _receiver_coverage(
    scenario: NetworkScenario, table: TabulatedDistribution, r: float, z: float, order: int
) -> float:
    """P(SIR > beta | receiver at (r, z)) by a fixed Gauss rule over serving distance.

    The serving density (N-1) (1 - F_x)^(N-2) f_x comes from the exact
    receiver law, whose kinks are panel edges; the conditional series
    reads the tabulated F_x and takes all of the rule's serving distances
    in one array call.  Nodes where the table's survival is below the
    floor are dropped.
    """
    n = scenario.N
    edges = _panel_edges(receiver_breakpoints(scenario.geom, r, z), table, n, _EXACT_SPLITS)
    nodes, weights = _gauss_on_panels(edges, *_GAUSS_RULES[order])
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
    within COVERAGE_CONTRACT.
    """
    require_analytic_m(scenario.channel.m)
    if scenario.N == 2:
        return _within_contract(1.0, 0.0, "analytic-exact", scenario)
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
    return _within_contract(value, err, "analytic-exact", scenario)
