"""Elliptic integrals in modulus convention.

All elliptic routines here take the *modulus* k, i.e. the integrand carries
k^2 sin^2(theta):

    K(k)      = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t)
    E(k)      = int_0^{pi/2} sqrt(1 - k^2 sin^2 t) dt
    F(phi, k) = int_0^{phi}  dt / sqrt(1 - k^2 sin^2 t)
    E(phi, k) = int_0^{phi}  sqrt(1 - k^2 sin^2 t) dt

SciPy's Cephes-backed routines use the *parameter* m = k^2 instead; the
wrappers below apply that mapping once so callers never deal with the
convention split.  Accuracy is that of Cephes, well inside the 1e-12
relative-error budget on the supported domain.

Arguments that float noise pushes microscopically outside their domain
(excess at most 1e-12) are clamped; anything further out is rejected.

All functions are pure and safe for unrestricted concurrent use.
"""

import math

from scipy import special as _sp

from .errors import DomainError

_CLAMP_SLACK = 1e-12
_HALF_PI = math.pi / 2.0


def _clamp(value: float, lo: float, hi: float, name: str) -> float:
    """Clamp float noise of at most 1e-12 back into [lo, hi]."""
    if lo <= value <= hi:
        return value
    if lo - _CLAMP_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _CLAMP_SLACK:
        return hi
    raise DomainError(f"{name}={value!r} outside [{lo}, {hi}]")


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Requires 0 <= k < 1; K diverges logarithmically as k -> 1.
    """
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    if k == 1.0:
        raise DomainError("complete_K diverges at k=1")
    return float(_sp.ellipk(k * k))


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    Defined on 0 <= k <= 1 with E(1) = 1.
    """
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    return float(_sp.ellipe(k * k))


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k).

    phi in [0, pi/2] and k in [0, 1]; the single divergent corner
    (phi = pi/2, k = 1) is rejected.  F(pi/2, k) equals complete_K(k).
    """
    phi = _clamp(float(phi), 0.0, _HALF_PI, "amplitude phi")
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    if k == 1.0 and phi == _HALF_PI:
        raise DomainError("incomplete_F diverges at (phi=pi/2, k=1)")
    return float(_sp.ellipkinc(phi, k * k))


def incomplete_E(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, k).

    Finite on the whole rectangle [0, pi/2] x [0, 1];
    E(pi/2, k) equals complete_E(k).
    """
    phi = _clamp(float(phi), 0.0, _HALF_PI, "amplitude phi")
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    return float(_sp.ellipeinc(phi, k * k))

