"""Coverage probability of the typical receiver.

For integer Nakagami shape m, the tail of the serving gain expands into a
finite series, which turns the conditional coverage at serving distance l
into a derivative sum of the interference transform evaluated at
t = m beta l^alpha:

    P(covered | l) = sum_{k=0}^{m-1} (-t)^k / k! * d^k/dt^k L_I(t | l).

Averaging over the serving-distance density gives the coverage under a
distance law as one outer integral.  ``_serving_integral`` evaluates it
by a fixed Gauss rule for every law of a stack in one array pass, and
returns per law the value and the serving-distance mass it drops, which
counts in the error estimate: it stops at the first panel edge where the
serving survival (1 - F)^(N-1), from the table's tail, is below the
survival floor, or at the table's last knot above the floor.  These
per-law values are the primitive; both models run one body
(``_analytic``), which alone reads the weights and applies them once.
The laws come as one ``TabulatedDistribution``, which carries their
weights, kinks and ``serving_law``, so this module reads no geometry
past d_max and equality: the paper model reads the pair table, a stack
of one, and the exact model a ``ReceiverMixture``, one table per
receiver of its rule.  Every table holds its law's density at its knots,
in the monotone box, and serves as the law.

A network of N = 2 nodes has no interferer, the SIR is infinite under
the noise-free model, and the coverage probability is defined as 1.

``coverage_probability`` is the paper's model: it treats the N - 1
receiver-to-node distances as i.i.d. draws from the pair law.  In a
deployment they share the receiver's position, which biases that model
high at small N.  ``exact_coverage_probability`` conditions on the
receiver instead: given x the distances are i.i.d. with law F_x, so the
same conditional series applies per receiver, and the result is its
weighted average over a rule of receiver positions (``build_receiver_cdfs``).
"""

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .distance import ReceiverMixture, TabulatedDistribution, _gauss_on_panels
from .errors import DomainError
from .interference import laplace_with_derivatives, require_analytic_m
from .network import _SURVIVAL_FLOOR, NetworkScenario, _check_geometry

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
# How far the conditional coverage series may leave [0, 1] by rounding.
_SERIES_SLACK = 1e-9


@dataclass(frozen=True)
class CoverageResult:
    """Coverage probability with its method tag and error bound.

    error_estimate bounds the numerical error of the analytic methods
    (the gap to a coarser rule, or for the Poisson baseline to a
    transformed evaluation plus rounding).  scenario echoes the
    NetworkScenario that produced the number, for the Poisson baseline
    as for the finite-network models.
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
    derivatives.  Every series term is nonnegative, so the clip trims
    rounding only: a sum outside [-_SERIES_SLACK, 1 + _SERIES_SLACK]
    is a numerical failure and raises RuntimeError.  Where the
    transform argument m beta l^alpha overflows, it raises DomainError.
    """
    m = require_analytic_m(scenario.channel.m)
    l_arr = np.asarray(l, dtype=float)
    alpha = scenario.channel.alpha
    with np.errstate(over="ignore"):
        t = m * scenario.beta * l_arr**alpha
    over = np.flatnonzero(np.isinf(t))
    if over.size:
        first = float(np.ravel(l_arr)[over[0]])
        raise DomainError(f"m beta l^alpha overflows at alpha={alpha!r}, l={first!r}")
    ds = laplace_with_derivatives(t, l_arr, scenario, dist)
    total = sum((-t) ** k / math.factorial(k) * d for k, d in enumerate(ds))
    # written so that NaN fails it too
    bad = np.flatnonzero(~((total >= -_SERIES_SLACK) & (total <= 1.0 + _SERIES_SLACK)))
    if bad.size:
        raise RuntimeError(
            f"coverage series at l={float(np.ravel(l_arr)[bad[0]])!r} sums to "
            f"{float(np.ravel(total)[bad[0]])!r}, outside [0, 1] beyond rounding"
        )
    out = np.clip(total, 0.0, 1.0)
    return float(out) if np.ndim(l) == 0 else out


def _serving_integral(scenario: NetworkScenario, dist: TabulatedDistribution, order: int):
    """P(SIR > beta) under each law of dist's tables, and the mass each drops.

    dist carries a row of each law's kinks and ``serving_law(which, l)``,
    the CDF and density at l of the laws which; no weight is read here.
    Per law the range runs from 0 to its table's last knot above the
    survival floor, in panels cut at the kinks and where (1 - F)^(N-1)
    passes _SPLITS, each with a Gauss rule of the given order weighted by
    the serving density (N-1) (1 - F)^(N-2) f.  The rule stops at the
    first edge where the serving survival (1 - F)^(N-1), from the table's
    ``sf``, is below _SURVIVAL_FLOOR, or at the range's end, and drops
    that survival.  The series runs at the kept nodes of all laws where
    that density is positive, in one array call.  Returns two arrays of
    one entry per table: each law's value and its dropped mass.
    """
    n, count = scenario.N, dist.ends.size
    end = dist.ends[:, None]
    splits = dist.quantiles(1.0 - _SPLITS ** (1.0 / (n - 1)))
    edges = np.sort(np.clip(np.concatenate((end, dist.kinks, splits), axis=1), 0.0, end), axis=1)
    # the serving survival at the edges, from the tables' tails: the rule stops at edge cut
    survival = dist.take(np.arange(count)[:, None]).sf(edges) ** (n - 1)
    cut = np.minimum(np.count_nonzero(survival >= _SURVIVAL_FLOOR, axis=1), edges.shape[1] - 1)
    nodes, rule = _gauss_on_panels(edges, *_GAUSS_RULES[order])
    kept = (np.diff(edges) > 0.0) & (np.arange(edges.shape[1] - 1) < cut[:, None])
    panels = np.repeat(kept, order, axis=1)
    which, nodes, rule = np.nonzero(panels)[0], nodes[panels], rule[panels]
    cdf, pdf = dist.serving_law(which, nodes)
    density = (n - 1) * np.maximum(1.0 - cdf, 0.0) ** (n - 2) * pdf
    live = np.flatnonzero(density > 0.0)
    which = which[live]
    covered = conditional_coverage(nodes[live], scenario, dist.take(which))
    # a left-aligned row of terms per law: its sum is the pairwise sum of its own terms
    terms = np.zeros((count, np.bincount(which).max(initial=1)))
    column = np.arange(which.size) - np.searchsorted(which, which)
    terms[which, column] = rule[live] * density[live] * covered
    return terms.sum(axis=1), survival[np.arange(count), cut]


def _analytic(scenario: NetworkScenario, dist, check, orders, method: str) -> CoverageResult:
    """A model's result: ``_serving_integral`` of dist, a whole stack, at orders[0].

    Only here do the weights apply, once: value and tail sum the laws'
    values and dropped masses with dist's weights.  error_estimate is the
    value's gap to the same sum over the stack check at orders[1] plus the
    tail, and must stay within COVERAGE_CONTRACT.
    """
    require_analytic_m(scenario.channel.m)
    _check_geometry(scenario.geom, dist)
    if dist.ends.size > 1 and dist._which is not None:
        raise DomainError(f"a model reads all {dist.ends.size} tables, not a take(which) view")
    if scenario.N == 2:
        return _within_contract(1.0, 0.0, method, scenario)
    values, dropped = _serving_integral(scenario, dist, orders[0])
    value, tail = float(np.sum(dist.weights * values)), float(np.sum(dist.weights * dropped))
    coarse = float(np.sum(check.weights * _serving_integral(scenario, check, orders[1])[0]))
    return _within_contract(value, abs(value - coarse) + tail, method, scenario)


def coverage_probability(scenario: NetworkScenario, dist: TabulatedDistribution) -> CoverageResult:
    """Coverage probability of the paper's model, with i.i.d. distances of the pair law.

    ``_analytic`` at Gauss orders PAPER_ORDER and PAPER_CHECK_ORDER on
    dist, the pair table (``build_cdf``) or any other table of one, which
    serves as its own law.  A stack of several tables or its view raises
    DomainError.
    Deterministic given the scenario and CDF grid.
    """
    if dist.ends.size != 1:
        raise DomainError(f"the paper model reads one pair table, not a stack of {dist.ends.size}")
    return _analytic(scenario, dist, dist, (PAPER_ORDER, PAPER_CHECK_ORDER), "analytic")


def exact_coverage_probability(scenario: NetworkScenario, mixture: ReceiverMixture) -> CoverageResult:
    """Coverage probability of a deployment, conditioned on the receiver's position.

    ``_analytic`` at Gauss order EXACT_ORDER over all receivers of
    mixture's rule at once, under each receiver's table: its cubic carries
    the exact law (``receiver_distance_law``) at its knots, its density
    held in the monotone box, and between them serves as the law.  The
    check is the same average over mixture.check at order
    EXACT_CHECK_ORDER.  A ``take`` view of a mixture raises DomainError.
    """
    if getattr(mixture, "check", None) is None:
        raise DomainError("mixture has no check rule; build it with build_receiver_cdfs")
    return _analytic(scenario, mixture, mixture.check, (EXACT_ORDER, EXACT_CHECK_ORDER),
                     "analytic-exact")
