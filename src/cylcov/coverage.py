"""Coverage probability of the typical receiver.

For integer Nakagami shape m, the tail of the serving gain expands into a
finite series, which turns the conditional coverage at serving distance l
into a derivative sum of the interference transform evaluated at
t = m beta l^alpha:

    P(covered | l) = sum_{k=0}^{m-1} (-t)^k / k! * d^k/dt^k L_I(t | l).

Averaging over the serving-distance density gives the coverage
probability as one outer integral per distance law, which
``_serving_integral`` evaluates for both models by a fixed Gauss rule
against the exact law's serving density.  It stops at the last knot of
the CDF table where 1 - F is above the survival floor; the discarded
serving-distance mass, (1 - F)^(N-1), is far below the 1e-4 error
contract and is counted in the error estimate.

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
from functools import partial
from typing import Any

import numpy as np

from .distance import (
    ReceiverMixture,
    TabulatedDistribution,
    _gauss_on_panels,
    pair_distance_law,
    receiver_breakpoints,
    receiver_distance_law,
)
from .errors import DomainError
from .interference import laplace_with_derivatives, require_analytic_m
from .network import NetworkScenario, _check_geometry

# Every analytic coverage value carries an error estimate within this bound.
COVERAGE_CONTRACT = 1e-4
# Gauss order per serving-distance panel of each model, for the reported
# rule and for the coarser one that checks it.
PAPER_ORDER = 12
PAPER_CHECK_ORDER = 8
EXACT_ORDER = 8
EXACT_CHECK_ORDER = 6
_GAUSS_RULES = {
    order: np.polynomial.legendre.leggauss(order)
    for order in (PAPER_ORDER, PAPER_CHECK_ORDER, EXACT_ORDER, EXACT_CHECK_ORDER)
}
# Panels are also split where the serving survival (1 - F)^(N-1) passes
# these levels, so that at large N no panel is mostly empty tail; 0.9 splits
# the rise of the serving density, which an order-8 rule can miss at large N.
_SPLITS = np.array([0.9, 0.5, 1e-2, 1e-4])


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


def _serving_integral(scenario: NetworkScenario, table: TabulatedDistribution, law, breaks, order):
    """P(SIR > beta) under one distance law, and the serving-distance mass it drops.

    law(l) returns the CDF and density of a receiver-to-node distance at
    the distances l, breaks holds its kinks, and table is its tabulated
    CDF, which the conditional series reads.  The range runs from 0 to
    the last knot of table whose survival is above the floor, in panels
    cut at the breaks and where (1 - F)^(N-1) of table passes _SPLITS.
    Each panel gets a Gauss rule of the given order, weighted by the
    serving density (N-1) (1 - F)^(N-2) f of law; the series runs at the
    nodes where that density is positive, in one array call.
    """
    n = scenario.N
    last = int(np.searchsorted(table.grid, table.survival_cutoff())) - 1
    end = table.grid[last]
    splits = np.interp(1.0 - _SPLITS ** (1.0 / (n - 1)), table.cdf_values, table.grid)
    edges = np.union1d([0.0, end], np.clip(np.concatenate((breaks, splits)), 0.0, end))
    nodes, weights = _gauss_on_panels(edges, *_GAUSS_RULES[order])
    cdf, pdf = law(nodes)
    density = (n - 1) * np.maximum(1.0 - cdf, 0.0) ** (n - 2) * pdf
    live = density > 0.0
    covered = conditional_coverage(nodes[live], scenario, table)
    value = float(np.sum(weights[live] * density[live] * covered))
    return value, (1.0 - table.cdf_values[last]) ** (n - 1)


def coverage_probability(scenario: NetworkScenario, dist: TabulatedDistribution) -> CoverageResult:
    """Coverage probability of the paper's model, with i.i.d. distances of the pair law.

    ``_serving_integral`` at Gauss order PAPER_ORDER, under the exact
    pair law (``pair_distance_law``, kinks at 2R and H) and reading dist.
    error_estimate is the gap to order PAPER_CHECK_ORDER plus the dropped
    serving-distance mass; it must stay within COVERAGE_CONTRACT.
    Deterministic given the scenario and CDF grid.
    """
    require_analytic_m(scenario.channel.m)
    if scenario.N == 2:
        return _within_contract(1.0, 0.0, "analytic", scenario)
    _check_geometry(scenario.geom, dist)
    law = partial(pair_distance_law, scenario.geom)
    breaks = np.array([0.0, 2.0 * scenario.geom.R, scenario.geom.H])
    value, tail = _serving_integral(scenario, dist, law, breaks, PAPER_ORDER)
    check, _ = _serving_integral(scenario, dist, law, breaks, PAPER_CHECK_ORDER)
    return _within_contract(value, abs(value - check) + tail, "analytic", scenario)


def exact_coverage_probability(
    scenario: NetworkScenario, mixture: ReceiverMixture
) -> CoverageResult:
    """Coverage probability of a deployment, conditioned on the receiver's position.

    Averages ``_serving_integral`` at Gauss order EXACT_ORDER over
    mixture's receiver rule, under each receiver's exact law
    (``receiver_distance_law``) and reading its table.  error_estimate is
    the gap to the same average over mixture.check at order
    EXACT_CHECK_ORDER, plus the average dropped serving-distance mass; it
    must stay within COVERAGE_CONTRACT.
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

    def average(mix: ReceiverMixture, order: int):
        value = tail = 0.0
        for (r, z), weight, table in zip(mix.nodes, mix.weights, mix.tables):
            law = partial(receiver_distance_law, scenario.geom, r, z)
            breaks = receiver_breakpoints(scenario.geom, r, z)
            part, lost = _serving_integral(scenario, table, law, breaks, order)
            value, tail = value + weight * part, tail + weight * lost
        return value, tail

    value, tail = average(mixture, EXACT_ORDER)
    check, _ = average(mixture.check, EXACT_CHECK_ORDER)
    return _within_contract(value, abs(value - check) + tail, "analytic-exact", scenario)
