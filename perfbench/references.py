"""Reference values computed apart from cylcov, with numpy and scipy only.

Nothing here imports the program.  The samplers draw their own points
(rejection from the bounding box, not the program's polar transform) from
numpy's PCG64 generator, so they share no code and no random stream with
``cylcov.simulation``.

* ``deployment_mc``: a deployment of N uniform nodes; the receiver is one
  of them and is served by the nearest of the other N - 1.
* ``paper_model_mc``: the paper's model, whose N - 1 receiver distances
  are i.i.d. pair distances, each from its own independent pair of points.
* ``pair_cdf``: F(l) = int F_disk(sqrt(l^2 - z^2)) 2 (H - z) / H^2 dz with
  the closed-form disk-distance CDF, by a fixed Gauss rule.
* ``ppp_coverage_m1``: the Poisson baseline at m = 1 in closed form,
  1 / (1 + 3 int_1^inf v^2 / (1 + v^alpha / beta) dv).
"""

import math

import numpy as np
from scipy.integrate import quad

CHUNK = 20_000  # trials per batch; keeps a 50-node batch near 25 MB


def _uniform_points(rng, R, H, count):
    """count volume-uniform points in the cylinder, by rejection from its box."""
    out = np.empty((0, 3))
    while out.shape[0] < count:
        need = count - out.shape[0]
        box = rng.random((int(need * 1.35) + 16, 3))
        xy = (2.0 * box[:, :2] - 1.0) * R
        keep = (xy * xy).sum(axis=1) <= R * R
        pts = np.column_stack((xy[keep], H * box[keep, 2]))
        out = np.concatenate((out, pts[:need]))
    return out


def _covered(rng, d, alpha, m, beta):
    """Count trials (rows of d) whose nearest-node SIR exceeds beta."""
    gains = rng.gamma(m, 1.0 / m, d.shape)
    power = gains * d ** (-alpha)
    nearest = np.argmin(d, axis=1)
    signal = power[np.arange(d.shape[0]), nearest]
    return int(np.count_nonzero(signal > beta * (power.sum(axis=1) - signal)))


def _estimate(sample_distances, trials, seed, alpha, m, beta):
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < trials:
        size = min(CHUNK, trials - done)
        hits += _covered(rng, sample_distances(rng, size), alpha, m, beta)
        done += size
    p = hits / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def deployment_mc(R, H, N, alpha, m, beta, trials, seed):
    """(coverage, standard error) of the receiver in an N-node deployment."""

    def distances(rng, size):
        pts = _uniform_points(rng, R, H, size * N).reshape(size, N, 3)
        return np.linalg.norm(pts[:, 1:, :] - pts[:, :1, :], axis=2)

    return _estimate(distances, trials, seed, alpha, m, beta)


def paper_model_mc(R, H, N, alpha, m, beta, trials, seed):
    """(coverage, standard error) under N - 1 i.i.d. pair distances."""

    def distances(rng, size):
        a = _uniform_points(rng, R, H, size * (N - 1))
        b = _uniform_points(rng, R, H, size * (N - 1))
        return np.linalg.norm(a - b, axis=1).reshape(size, N - 1)

    return _estimate(distances, trials, seed, alpha, m, beta)


def _disk_cdf(v, R):
    """CDF of the distance between two uniform points in a disk of radius R."""
    x = np.clip(v / (2.0 * R), 0.0, 1.0)
    return 1.0 + (2.0 / math.pi) * (
        (4.0 * x * x - 1.0) * np.arccos(x) - x * (1.0 + 2.0 * x * x) * np.sqrt(1.0 - x * x)
    )


def pair_cdf(R, H, l, order):
    """Pair-distance CDF at the points l, by an order-point Gauss rule.

    For z below z0 = sqrt(l^2 - 4 R^2) the planar part is certain to fit
    and F_disk = 1, so that piece is the segment CDF in closed form.  On
    [z0, min(l, H)] the substitution z = a + (b - a) s^2 (3 - 2 s) flattens
    the algebraic endpoint singularities before the Gauss rule.
    """
    l = np.atleast_1d(np.asarray(l, dtype=float))
    x, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (x + 1.0)
    phi = s * s * (3.0 - 2.0 * s)
    dphi = 3.0 * s * (1.0 - s) * w
    top = np.minimum(l, H)
    lo = np.minimum(np.sqrt(np.maximum(l * l - 4.0 * R * R, 0.0)), top)
    z = lo[:, None] + (top - lo)[:, None] * phi
    v = np.sqrt(np.maximum(l[:, None] ** 2 - z * z, 0.0))
    body = ((top - lo)[:, None] * dphi * _disk_cdf(v, R) * 2.0 * (H - z) / (H * H)).sum(axis=1)
    return (2.0 * H * lo - lo * lo) / (H * H) + body


def ppp_coverage_m1(alpha, beta):
    """(coverage, quadrature error) of the Poisson baseline under Rayleigh fading."""
    tail, err = quad(
        lambda v: v * v / (1.0 + v**alpha / beta), 1.0, math.inf, epsabs=1e-14, epsrel=1e-13
    )
    pc = 1.0 / (1.0 + 3.0 * tail)
    return pc, 3.0 * err * pc * pc
