"""Network scenario types and link-distance distributions.

The typical receiver associates with the nearest of the other N - 1 nodes.
Its serving distance is the minimum of N - 1 i.i.d. pair distances, and
each remaining interferer distance, conditioned on the serving distance,
is the pair distance truncated below at it.  Both densities are expressed
through the tabulated CDF, and conditioning divides by the table's
``sf``, read from its tail; nothing here re-runs quadrature per query.
"""

from dataclasses import dataclass

import numpy as np

from .distance import _SURVIVAL_FLOOR, TabulatedDistribution
from .errors import DegenerateConditionError, DomainError
from .geometry import CylinderGeometry


@dataclass(frozen=True)
class ChannelModel:
    """Path-loss exponent and Nakagami fading shape.

    alpha must be finite and exceed 2.  m >= 0.5 is accepted here (any
    valid Nakagami shape, usable by the simulator); the analytic pipeline
    additionally requires an integer m between 1 and 5 and rejects the
    rest at its own entry points.
    """

    alpha: float
    m: float

    def __post_init__(self):
        if not (2.0 < self.alpha < np.inf):
            raise DomainError(f"path-loss exponent alpha={self.alpha!r} must be finite, above 2")
        if not (self.m >= 0.5):
            raise DomainError(f"Nakagami shape m={self.m!r} must be at least 0.5")


@dataclass(frozen=True)
class NetworkScenario:
    """Full parameter tuple (N, R, H, alpha, m, beta) of one deployment."""

    N: int
    geom: CylinderGeometry
    channel: ChannelModel
    beta: float  # SIR threshold, linear scale

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise DomainError(f"node count N={self.N!r} must be an integer >= 2")
        if not (0.0 < self.beta < np.inf):
            raise DomainError(f"SIR threshold beta={self.beta!r} must be finite and positive")


def _check_geometry(scenario_geom: CylinderGeometry, dist: TabulatedDistribution) -> None:
    if dist.geometry != scenario_geom:
        raise DomainError(
            "tabulated distribution built for "
            f"(R={dist.geometry.R}, H={dist.geometry.H}), scenario has "
            f"(R={scenario_geom.R}, H={scenario_geom.H})"
        )


def serving_distance_pdf(l, scenario: NetworkScenario, dist: TabulatedDistribution):
    """Density of the serving distance, (N-1) (1 - F(l))^(N-2) f(l).

    Accepts scalar or array l.  For N = 2 this reduces to the pair
    density itself.
    """
    _check_geometry(scenario.geom, dist)
    n = scenario.N
    return (n - 1) * np.power(dist.sf(l), n - 2) * dist.pdf(l)


def serving_distance_cdf(l, scenario: NetworkScenario, dist: TabulatedDistribution):
    """CDF of the serving distance, 1 - (1 - F(l))^(N-1)."""
    _check_geometry(scenario.geom, dist)
    return 1.0 - np.power(dist.sf(l), scenario.N - 1)


def _conditioning_survival(l, dist: TabulatedDistribution):
    """dist.sf(l) at serving distances l, checked for conditioning; dist may be a stack view.

    Accepts scalar or array l.  Raises DomainError for l outside
    [0, d_max) and DegenerateConditionError where 1 - F(l) is below the
    survival floor.
    """
    l_arr = np.ravel(np.asarray(l, dtype=float))
    outside = np.flatnonzero(~((l_arr >= 0.0) & (l_arr < dist.geometry.d_max)))
    if outside.size:
        raise DomainError(f"serving distance l={float(l_arr[outside[0]])!r} outside [0, d_max)")
    survival = dist.sf(l)
    degenerate = np.flatnonzero(np.ravel(survival) < _SURVIVAL_FLOOR)
    if degenerate.size:
        first = degenerate[0]
        raise DegenerateConditionError(
            f"1 - F(l) = {float(np.ravel(survival)[first])!r} at l={float(l_arr[first])!r}; "
            "conditioning is degenerate"
        )
    return survival


def conditional_interferer_pdf(u, l: float, dist: TabulatedDistribution):
    """Density of one interferer distance given serving distance l.

    f(u) / (1 - F(l)) for u >= l, zero below.  Conditioning too close to
    the support end, where 1 - F(l) < 1e-12, is rejected rather than
    amplifying tabulation noise.
    """
    l = float(l)
    survival = _conditioning_survival(l, dist)
    u_arr = np.asarray(u, dtype=float)
    out = np.where(u_arr < l, 0.0, dist.pdf(u_arr) / survival)
    return float(out) if np.ndim(u) == 0 else out
