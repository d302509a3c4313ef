"""Coverage probability of finite 3-D networks uniformly deployed in a cylinder.

Exact analytic pipeline (pair-distance distribution -> serving-link order
statistics -> interference Laplace transform -> coverage integral), a
seedable Monte Carlo oracle, and an infinite-field Poisson baseline.
"""

__version__ = "0.1.0"

from .coverage import (
    CoverageResult,
    conditional_coverage,
    coverage_probability,
    exact_coverage_probability,
)
from .distance import (
    DEFAULT_GRID_SIZE,
    ReceiverMixture,
    TabulatedDistribution,
    build_cdf,
    build_receiver_cdfs,
    cylinder_pair_pdf_closed,
    cylinder_pair_pdf_numeric,
    disk_pair_pdf,
    segment_pair_pdf,
)
from .errors import (
    DegenerateConditionError,
    DomainError,
    ScenarioFormatError,
    StaleCacheError,
    UnsupportedParameterError,
)
from .geometry import CylinderGeometry
from .interference import laplace_with_derivatives
from .network import ChannelModel, NetworkScenario
from .ppp import ppp_coverage
from .simulation import (
    SimulationEstimate,
    empirical_distance_histogram,
    simulate_coverage,
)
from .special import complete_E, complete_K, incomplete_E, incomplete_F

__all__ = [
    "CoverageResult",
    "CylinderGeometry",
    "ChannelModel",
    "DEFAULT_GRID_SIZE",
    "DegenerateConditionError",
    "DomainError",
    "NetworkScenario",
    "ReceiverMixture",
    "ScenarioFormatError",
    "SimulationEstimate",
    "StaleCacheError",
    "TabulatedDistribution",
    "UnsupportedParameterError",
    "build_cdf",
    "build_receiver_cdfs",
    "complete_E",
    "complete_K",
    "conditional_coverage",
    "coverage_probability",
    "cylinder_pair_pdf_closed",
    "cylinder_pair_pdf_numeric",
    "disk_pair_pdf",
    "empirical_distance_histogram",
    "exact_coverage_probability",
    "incomplete_E",
    "incomplete_F",
    "laplace_with_derivatives",
    "ppp_coverage",
    "segment_pair_pdf",
    "simulate_coverage",
]
