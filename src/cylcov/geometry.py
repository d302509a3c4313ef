"""Deployment region: a finite cylinder of base radius R and height H."""

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class CylinderGeometry:
    """Cylindrical deployment volume.

    Attributes:
        R: base radius (> 0).
        H: height (> 0), with d_max and the volume finite and nonzero.
    """

    R: float
    H: float

    def __post_init__(self):
        # written so that NaN fails it too; given R > 0, a volume > 0 needs H > 0
        if not (self.R > 0.0 and self.d_max < math.inf and 0.0 < self.volume < math.inf):
            raise DomainError(f"radius R={self.R!r} and height H={self.H!r} must be positive, "
                              "with a finite, nonzero d_max and volume")

    @property
    def d_max(self) -> float:
        """Largest possible distance between two points, sqrt(4 R^2 + H^2)."""
        return math.sqrt(4.0 * self.R * self.R + self.H * self.H)

    @property
    def volume(self) -> float:
        return math.pi * self.R * self.R * self.H
