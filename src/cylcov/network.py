"""Network scenario types, and the checks that a scenario's tables pass.

The typical receiver associates with the nearest of the other N - 1 nodes,
and each remaining interferer distance, conditioned on the serving
distance l, is the pair distance truncated below at l.  Conditioning
divides by the table's ``sf`` at l, read from its tail; the interferer
integral checks it here before it divides.
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
        object.__setattr__(self, "N", int(self.N))  # N = 5.0 is the scenario N = 5
        if not (0.0 < self.beta < np.inf):
            raise DomainError(f"SIR threshold beta={self.beta!r} must be finite and positive")


def _check_geometry(scenario_geom: CylinderGeometry, dist: TabulatedDistribution) -> None:
    if dist.geometry != scenario_geom:
        raise DomainError(
            f"tabulated distribution built for {dist.geometry!r}, scenario has {scenario_geom!r}"
        )


def _conditioning_survival(l, dist: TabulatedDistribution):
    """dist.sf(l) at serving distances l, checked for conditioning; dist may be a view (``take``).

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
