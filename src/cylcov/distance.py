"""Distance distribution of two uniform random points in a cylinder.

The distance L decomposes into independent planar and vertical separations,
L^2 = Dxy^2 + Dz^2, whose individual densities are classical (disk line
picking and segment line picking).

``pair_distance_law`` evaluates the pair law, F and f, by one rule.
Writing the separations as (l cos t, l sin t) turns the convolution into
an integral over the split angle t with a bounded integrand, so the
1/sqrt endpoint singularity of the raw squared-vertical density never
reaches the rule; a fixed 32-node Gauss rule through a smoothstep map
absorbs the (t - t_lo)^(3/2) end of the disk density, and F and f are
sums over the same nodes.  Distances go in blocks of bounded size, and
the component laws take arrays, so a scalar is the one-element case of
the same code.  ``cylinder_pair_pdf_numeric`` is its density.

``cylinder_pair_pdf_closed`` is a four-branch closed form of the density
in complete and incomplete elliptic integrals, dispatched on the signs
of (l - 2R) and (l - H).  Exact regime boundaries are assigned to the
"<=" branch.  The branches were cross-checked against the numeric
convolution at machine precision; the first branch's elliptic prefactor
multiplies both the K and E terms (the only algebraically and
dimensionally consistent grouping).

``build_cdf`` tabulates the law, F and f, once per geometry on an
equally spaced grid.  Every table, this one and the receiver tables
below, is a cubic Hermite interpolant by one slope rule
(``_checked_tables``): a knot's slope is the law's density there, held
to at most 3 times the secant of each cell it bounds, so every cubic is
monotone (Fritsch & Carlson, 1980).  The tabulated density is the exact
derivative of the interpolant, so downstream integrals of expressions
like (1 - F)^(N-2) f are internally consistent; survival is read from
the table's tail (``sf``), never formed as 1 - F.  Pair tables serialize
to a versioned three-column text file (knot, CDF value, knot slope) for
reuse across runs.

The pair law above is the law of the distance from a *random* receiver.
In a deployment all N - 1 distances share one receiver position x, and
given x they are i.i.d. with the receiver-conditioned law

    F_x(d) = |B(x, d) ∩ cylinder| / (pi R^2 H).

``receiver_distance_law`` evaluates F_x and its density exactly (a
Gauss rule over horizontal slices of the ball, each slice meeting the
cylinder's cross-section in a circle-disk lens, run on live lens ranges
only, the slab above the receiver sharing the sums of the one below),
and ``build_receiver_cdfs`` tabulates it at the nodes of a fixed rule
over receiver positions, all of a rule's knots in one pass of bounded
blocks, so the pair law is the rule's weighted mixture, a
``ReceiverMixture``: the stack of the rule's tables, where the pair table
is a stack of one (``PairTable``).  Wherever the limit does not bind, a
table equals its law, F and f, at its knots; both coverage models read
their tables as the law and call ``pair_distance_law`` and
``receiver_distance_law`` only while building them.

The module needs numpy only; ``special`` is pure Python.
"""

import copy
import math
import threading
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .errors import DomainError, StaleCacheError
from .geometry import CylinderGeometry
from .special import complete_E, complete_K, incomplete_E, incomplete_F

_CACHE_MAGIC = "# cylcov-cdf v2"

DEFAULT_GRID_SIZE = 2048
# Gauss points per knot cell: the density is quadratic on a cell and 4 points
# integrate degree 7, leaving the kernel's remainder past degree 5 per cell.
_CELL_QUAD_ORDER = 4
_CELL_X, _CELL_W = np.polynomial.legendre.leggauss(_CELL_QUAD_ORDER)
# Product-rule panels of the interferer integral (``_partial_panels``): knot
# edges stepping down by the factor 2^(-1/k) from the support's last knot,
# kept while a panel holds more than _PANEL_MIN_CELLS cells, and _PANEL_NODES
# Chebyshev points of the first kind per panel, _PANEL_X on [-1, 1], with
# _PANEL_T[j, q] = T_j(x_q).  A kernel in u^-alpha takes
# k = ceil(alpha / _PANEL_ALPHA), which keeps the bound in interference.py at
# its alpha = 6 value or better.  Every _RUN_CELLS-th knot of a panel holds
# the weights of the part of the panel above it.
_PANEL_NODES = 24
_PANEL_MIN_CELLS = 6
_PANEL_ALPHA = 6.0
_RUN_CELLS = 4
_PANEL_X = np.cos(np.arange(0.5, _PANEL_NODES) * math.pi / _PANEL_NODES)
_PANEL_T = chebvander(_PANEL_X, _PANEL_NODES - 1).T
# Most integrand elements (rows x lower limits x nodes) that
# integrate_pdf_product evaluates at once; bounds its temporaries.
_BLOCK_ELEMENTS = 1 << 15
# Conditioning on a serving distance l divides by 1 - F(l); below this floor
# the quotient amplifies tabulation noise, and the serving-distance mass
# beyond it, (1 - F)^(N-1), is far below the 1e-4 coverage contract.
_SURVIVAL_FLOOR = 1e-12

RECEIVER_GRID_SIZE = 256
# Gauss nodes of the receiver rule and of the coarser rule that checks it,
# as (longer axis, shorter axis): the axes are r in [0, R] and z in
# [0, H/2].  Coverage varies fastest in a layer about one node spacing
# thick next to the wall and the floor, a smaller share of the longer axis.
RECEIVER_RULE = (12, 6)
RECEIVER_CHECK_RULE = (9, 5)


def _smoothstep_rule(order: int):
    """Gauss-Legendre rule on [0, 1] mapped through the smoothstep s^2 (3 - 2 s).

    Returns the mapped nodes and their weights times the map's derivative.
    The map's derivative vanishes to first order at both ends, so an
    integrand with (3/2)- or (1/2)-power endpoint behaviour becomes smooth
    in s.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (x + 1.0)
    return s * s * (3.0 - 2.0 * s), 3.0 * s * (1.0 - s) * w


# Smoothstep rule over one slab of ball slices, in the slice angle: the lens
# area and arc angle have (3/2)- and (1/2)-power endpoint behaviour.
_SLICE_PHI, _SLICE_DPHI_W = _smoothstep_rule(24)
# Smoothstep rule over the split angle in pair_distance_law: at l > 2R the
# disk density leaves the lower limit like (t - t_lo)^(3/2).
_PAIR_PHI, _PAIR_DPHI_W = _smoothstep_rule(32)


def _gauss_on_panels(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Nodes and weights of the Gauss rule (x, w) on [-1, 1] on each panel of edges' last axis."""
    mids, halves = 0.5 * (edges[..., 1:] + edges[..., :-1]), 0.5 * np.diff(edges)
    nodes, weights = mids[..., None] + halves[..., None] * x, halves[..., None] * w
    return nodes.reshape(mids.shape[:-1] + (-1,)), weights.reshape(mids.shape[:-1] + (-1,))


def disk_pair_pdf(v, R: float):
    """Density of the distance between two uniform points in a disk of radius R.

    f(v) = (8 x / (pi R)) (arccos(x) - x sqrt(1 - x^2)) with x = v / 2R
    on [0, 2R], zero above.  v is a distance (a float out) or an array of
    them (an array out); a negative or NaN one raises DomainError, as does
    an R that is not finite and positive.
    """
    if not 0.0 < R < math.inf:  # written so that NaN fails it too
        raise DomainError(f"disk radius R={R!r} must be finite and positive")
    v_arr = np.asarray(v, dtype=float)
    if not np.all(v_arr >= 0.0):  # written so that NaN fails it too
        raise DomainError(f"distance v={float(np.min(v_arr))!r} must be nonnegative")
    x = np.minimum(v_arr / (2.0 * R), 1.0)
    out = (8.0 * x / (math.pi * R)) * (np.arccos(x) - x * np.sqrt(1.0 - x * x))
    return float(out) if np.ndim(v) == 0 else out


def segment_pair_pdf(z, H: float):
    """Density of the distance between two uniform points on a segment of length H.

    The triangular density 2 (H - z) / H^2 on [0, H], zero above.  z is a
    distance (a float out) or an array of them (an array out); a negative
    or NaN one raises DomainError, as does an H that is not finite and
    positive.
    """
    if not 0.0 < H < math.inf:  # written so that NaN fails it too
        raise DomainError(f"segment length H={H!r} must be finite and positive")
    z_arr = np.asarray(z, dtype=float)
    if not np.all(z_arr >= 0.0):  # written so that NaN fails it too
        raise DomainError(f"distance z={float(np.min(z_arr))!r} must be nonnegative")
    out = 2.0 * np.maximum(H - z_arr, 0.0) / (H * H)
    return float(out) if np.ndim(z) == 0 else out


def _disk_pair_cdf(v: np.ndarray, R: float) -> np.ndarray:
    """CDF of the distance between two uniform points in a disk of radius R.

    With x = v / 2R clipped to [0, 1],
    F(v) = 1 + (2 / pi) ((4 x^2 - 1) acos(x) - x (1 + 2 x^2) sqrt(1 - x^2)).
    """
    x = np.clip(v / (2.0 * R), 0.0, 1.0)
    x2 = x * x
    return 1.0 + (2.0 / math.pi) * (
        (4.0 * x2 - 1.0) * np.arccos(x) - x * (1.0 + 2.0 * x2) * np.sqrt(1.0 - x2)
    )


def pair_distance_law(geom: CylinderGeometry, l):
    """CDF and density of the pair distance at the distances l, like ``receiver_distance_law``.

    Parameterizing the planar/vertical split as (l cos t, l sin t) gives

        f(l) = l int_{t_lo}^{t_hi} f_disk(l cos t) f_seg(l sin t) dt,
        F(l) = S(z0) + int_{t_lo}^{t_hi} F_disk(l cos t) f_seg(l sin t) l cos t dt,

    where the limits trim the arc to l cos t <= 2R and l sin t <= H, and S
    is the segment CDF (2 z H - z^2) / H^2 below z0 = sqrt(l^2 - 4 R^2),
    where the disk CDF is 1.  Both integrals are sums over the nodes of
    one fixed 32-node Gauss rule through the smoothstep map, which absorbs
    the (t - t_lo)^(3/2) end of the disk density at l > 2R.  Distances go
    in blocks of at most _BLOCK_ELEMENTS integrand elements, and a
    distance's values do not depend on the others.  l is a distance or an
    array of any shape; both arrays have its shape, at least 1-D.  Outside
    (0, d_max) F is 0 or 1 and f is 0; a NaN distance raises DomainError.
    """
    R, H = geom.R, geom.H
    l = np.atleast_1d(np.asarray(l, dtype=float))
    if np.any(np.isnan(l)):
        raise DomainError("a distance is NaN")
    x = l.ravel()
    F, f = (x >= geom.d_max).astype(float), np.zeros(x.size)
    inside = np.flatnonzero((x > 0.0) & (x < geom.d_max))
    rows = _BLOCK_ELEMENTS // _PAIR_PHI.size
    for start in range(0, inside.size, rows):
        at = inside[start : start + rows]
        d = x[at, None]
        theta_lo = np.arccos(np.minimum(1.0, 2.0 * R / d))  # 0 for l <= 2R
        theta_hi = np.arcsin(np.minimum(1.0, H / d))  # pi / 2 for l <= H
        span = np.maximum(theta_hi - theta_lo, 0.0)
        theta = theta_lo + span * _PAIR_PHI
        v = d * np.cos(theta)
        segment = segment_pair_pdf(d * np.sin(theta), H)
        val = span[:, 0] * np.sum(disk_pair_pdf(v, R) * segment * _PAIR_DPHI_W, axis=-1)
        f[at] = d[:, 0] * np.maximum(val, 0.0)
        z0 = np.sqrt(np.maximum(d[:, 0] ** 2 - 4.0 * R * R, 0.0))
        F[at] = (2.0 * z0 * H - z0 * z0) / (H * H) + span[:, 0] * np.sum(
            _disk_pair_cdf(v, R) * segment * v * _PAIR_DPHI_W, axis=-1)
    return F.reshape(l.shape), f.reshape(l.shape)


def cylinder_pair_pdf_numeric(l, geom: CylinderGeometry):
    """Pair-distance density by numeric convolution of the component densities.

    The density of ``pair_distance_law``: l is a distance (a float out) or
    an array of them (an array of its shape out).  Returns 0 outside (0,
    d_max) and raises DomainError on NaN.  It agrees with the closed form
    within about 1e-12 absolute on the four geometry regimes.
    """
    f = pair_distance_law(geom, l)[1]
    return float(f[0]) if np.ndim(l) == 0 else f


def _kp2_times_K_minus_F(kp2: float, k: float, phi: float) -> float:
    """(1 - k^2) * (K(k) - F(phi, k)) with the k -> 1 limit handled.

    K(k) diverges only logarithmically, so (1 - k^2) K(k) -> 0; at k = 1
    exactly the product is taken as its limit instead of 0 * inf.
    """
    if kp2 <= 0.0:
        return 0.0
    return kp2 * (complete_K(k) - incomplete_F(phi, k))


def _branch_small_small(l: float, R: float, h: float) -> float:
    # l <= 2R and l <= h
    k = l / (2.0 * R)
    kp2 = 1.0 - k * k
    t1 = 2.0 * l * l * (2.0 * h - l) / (R * R * h * h)
    t2 = (
        l * l * (l * l + 2.0 * R * R) * math.sqrt(max(4.0 * R * R - l * l, 0.0))
        / (2.0 * math.pi * R**4 * h * h)
    )
    t3 = 4.0 * l * (l * l - R * R) / (math.pi * R * R * h * h) * math.asin(k)
    ell = _kp2_times_K_minus_F(kp2, k, 0.0) - (1.0 + k * k) * complete_E(k)
    t4 = 32.0 * l / (3.0 * math.pi * R * h) * ell
    return t1 + t2 + t3 + t4


def _branch_wide_small(l: float, R: float, h: float) -> float:
    # 2R < l <= h
    k = 2.0 * R / l
    pref = 4.0 * l * l / (3.0 * math.pi * R**4 * h)
    return (
        4.0 * l * l / (R * R * h)
        - 2.0 * l / (h * h)
        + pref * (l * l - 4.0 * R * R) * complete_K(k)
        - pref * (l * l + 4.0 * R * R) * complete_E(k)
    )


def _branch_small_tall(l: float, R: float, h: float) -> float:
    # h < l <= 2R
    k = l / (2.0 * R)
    kp2 = 1.0 - k * k
    s2 = max(l * l - h * h, 0.0)
    s = math.sqrt(s2)
    phi = math.acos(min(1.0, h / l))  # amplitude shared by all four differences
    rad = math.sqrt(max(s2 * (4.0 * R * R - l * l + h * h), 0.0))
    ellE = complete_E(k) - incomplete_E(phi, k)

    # (l^2 / 2R - 2R) = -2R (1 - k^2), so the K - F difference always enters
    # multiplied by (1 - k^2); route it through the guarded product.
    g1 = (8.0 * l / (math.pi * R * R * h)) * (
        h * math.acos(min(1.0, s / (2.0 * R)))
        + 2.0 * R * _kp2_times_K_minus_F(kp2, k, phi)
        - 2.0 * R * ellE
    )
    g2 = -(4.0 * l / (math.pi * R * R * h * h)) * (
        (l * l - 2.0 * R * R) * math.acos(min(1.0, k))
        - (l * l - h * h - 2.0 * R * R) * math.acos(min(1.0, s / (2.0 * R)))
        - l * math.sqrt(max(4.0 * R * R - l * l, 0.0)) / 2.0
        + rad / 2.0
    )
    g3 = -(16.0 * l / (3.0 * math.pi * R * h)) * (
        (l * l / (2.0 * R * R) - 1.0) * ellE
        + _kp2_times_K_minus_F(kp2, k, phi)
        + h * rad / (8.0 * R**3)
    )
    g4 = (2.0 * l / (math.pi * h * h)) * (
        math.asin(max(-1.0, min(1.0, l * l / (2.0 * R * R) - 1.0)))
        - math.asin(max(-1.0, min(1.0, (l * l - h * h - 2.0 * R * R) / (2.0 * R * R))))
    )
    g5 = (l / (math.pi * R**4 * h * h)) * (
        l * (l * l - 2.0 * R * R) / 2.0 * math.sqrt(max(4.0 * R * R - l * l, 0.0))
        - (l * l - h * h - 2.0 * R * R) / 2.0 * rad
    )
    return g1 + g2 + g3 + g4 + g5


def _branch_wide_tall(l: float, R: float, h: float) -> float:
    # l > 2R and l > h
    k = 2.0 * R / l
    s2 = max(l * l - h * h, 0.0)
    arg = min(1.0, math.sqrt(s2) / (2.0 * R))
    phi = math.asin(arg)
    rad = math.sqrt(max(s2 * (4.0 * R * R - l * l + h * h), 0.0))
    A = complete_K(k) - incomplete_F(phi, k)
    B = complete_E(k) - incomplete_E(phi, k)
    return (
        -l * (3.0 * l * l + 6.0 * R * R + h * h) / (6.0 * math.pi * R**4 * h * h) * rad
        + 4.0 * l * (l * l + h * h) / (math.pi * R * R * h * h) * math.acos(arg)
        - 2.0 * l / (h * h)
        + 4.0 * l / (math.pi * h * h) * phi
        - 4.0 * l * l * (4.0 * R * R - l * l) / (3.0 * math.pi * h * R**4) * A
        - 4.0 * l * l * (l * l + 4.0 * R * R) / (3.0 * math.pi * h * R**4) * B
    )


def cylinder_pair_pdf_closed(l: float, geom: CylinderGeometry) -> float:
    """Pair-distance density via the four-branch elliptic closed form.

    Agrees with ``cylinder_pair_pdf_numeric`` to well below 1e-6 absolute
    (machine precision in practice).  Returns 0 outside the support.
    Cancellation at the extreme support end can leave residuals of order
    1e-13 with either sign; results are clamped at zero.  A NaN distance
    raises DomainError.
    """
    l = float(l)
    if math.isnan(l):
        raise DomainError("a distance is NaN")
    R, H = geom.R, geom.H
    if l <= 0.0 or l >= geom.d_max:
        return 0.0
    if l <= 2.0 * R:
        value = _branch_small_small(l, R, H) if l <= H else _branch_small_tall(l, R, H)
    else:
        value = _branch_wide_small(l, R, H) if l <= H else _branch_wide_tall(l, R, H)
    return max(value, 0.0)


def _hermite_cubic(grid: np.ndarray, values: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows of left knots and c0..c3 of the cells' cubics c3 + c2 s + c1 s^2 + c0 s^3.

    The cubic of a cell is the Hermite cubic through its knot values with
    knot slopes d.
    """
    h = np.diff(grid)
    secant = np.diff(values) / h
    t = (d[:-1] + d[1:] - 2.0 * secant) / h
    c0, c1 = t / h, (secant - d[:-1]) / h - t
    return np.stack((grid[:-1], c0, c1, d[:-1], values[:-1]))


def _checked_tables(geometry: CylinderGeometry, tables):
    """Knots, CDF values and knot slopes of tables (grid, cdf_values, densities), end to end, and sizes.

    A table's knots run from 0 to where its law reaches 1, at most d_max
    (1 + 1e-9), F from 0 to 1, and its densities are finite and
    nonnegative.  A knot's slope is its density, held to at most 3 times
    the secant of each cell it bounds (an end knot bounds one): a Hermite
    cubic whose knot slopes lie in [0, 3 m] for its secant m is monotone
    (Fritsch & Carlson, 1980), so every cell's density is nonnegative up to
    rounding.  Where the law's density is read exactly and the limit does
    not bind, the table's density is the law's at its knots.  Else DomainError.
    """
    tables = [[np.asarray(v, dtype=float) for v in table] for table in tables]
    for grid, values, densities in tables:
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("grid and cdf_values must be equal-length 1-D arrays")
        if densities.shape != grid.shape:
            raise DomainError("densities must have the grid's shape")
    grid, values, densities = (np.concatenate(v) for v in zip(*tables))
    sizes = np.array([t[0].size for t in tables])
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    inner = np.ones(grid.size - 1, dtype=bool)
    inner[last[:-1]] = False  # the cells within a table
    # the comparisons below let NaN values through
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise DomainError("grid and cdf values must be finite")
    if not np.all(np.diff(grid)[inner] > 0.0):
        raise DomainError("grid must be strictly increasing")
    if np.any(grid[first] != 0.0) or np.any(grid[last] > geometry.d_max * (1.0 + 1e-9)):
        raise DomainError("grid must run from 0 to at most d_max")
    if np.any(np.diff(values)[inner] < 0.0):
        raise DomainError("cdf values must be non-decreasing")
    if np.any(np.abs(values[first]) > 1e-9) or np.any(np.abs(values[last] - 1.0) > 1e-9):
        raise DomainError("cdf must run from 0 to 1")
    if not np.all(np.isfinite(densities) & (densities >= 0.0)):
        raise DomainError("densities must be finite and nonnegative")
    secant = np.where(inner, np.diff(values) / np.diff(grid), np.inf)
    limit = 3.0 * np.minimum(np.append(secant, np.inf), np.insert(secant, 0, np.inf))
    return grid, values, np.minimum(densities, limit), sizes


def _panel_edges(table: "TabulatedDistribution", k: int) -> np.ndarray:
    """Knot indices of the edges of a table's product panels of ratio 2^(1/k), ascending.

    The last is the knot where the CDF reaches its final value, so the
    density vanishes past it; each one below is the first knot at or above
    2^(-1/k) times the one above, while the panel between them holds more
    than _PANEL_MIN_CELLS cells, so a panel's ends differ by a factor of at
    most 2^(1/k).
    """
    grid, ratio = table.grid, 0.5 ** (1.0 / k)
    edges = [int(np.searchsorted(table.cdf_values, table.cdf_values[-1]))]
    while True:
        low = int(np.searchsorted(grid, ratio * grid[edges[-1]]))
        if edges[-1] - low <= _PANEL_MIN_CELLS:
            return np.array(edges[::-1])
        edges.append(low)


def _partial_panels(grid: np.ndarray, nodes: np.ndarray, weights: np.ndarray, lo, hi):
    """Chebyshev nodes of the panels [grid[lo], grid[hi]], their stored knots and their weights.

    nodes and weights are the cell rule on grid, times the density.  Of
    (x, stored, partial), x[p] holds panel p's nodes, stored every
    _RUN_CELLS-th knot of each panel from its lower edge up, and partial[r]
    the weights of the part of its panel above stored[r]: its cell-rule
    weights times the Lagrange basis L_q(s) = (1 + 2 sum_{j>=1} T_j(x_q)
    T_j(s)) / n, summed over its nodes, so sum_q W_q k(x_q) is the cell rule
    on the kernel's interpolant.  They follow from Chebyshev moments of the
    runs of cells between stored knots, summed from the panel's top down.
    """
    a, b, cells = grid[lo], grid[hi], hi - lo
    runs = -(-cells // _RUN_CELLS)
    panel = np.repeat(np.arange(lo.size), runs)
    rank = np.arange(panel.size) - np.repeat(np.cumsum(runs) - runs, runs)  # from the panel's edge
    # the cell-rule nodes of the panels, one after another
    count = _CELL_QUAD_ORDER * cells
    start = np.cumsum(count) - count
    at = np.arange(count.sum()) + np.repeat(_CELL_QUAD_ORDER * lo - start, count)
    s = (2.0 * nodes[at] - np.repeat(a + b, count)) / np.repeat(b - a, count)
    w, s2 = weights[at], 2.0 * s
    # T_j(s) by numpy's chebvander recurrence a degree at a time, and sums
    # rather than BLAS products, so that the digits do not depend on the BLAS
    # build; each panel's runs lie top down in a row of tails
    tails = np.zeros((lo.size, runs.max(initial=0)))
    flipped = panel * tails.shape[1] + runs[panel] - 1 - rank
    partial, term = np.zeros((2, _PANEL_NODES, panel.size))  # node q down the rows
    runs_at = start[panel] + _CELL_QUAD_ORDER * _RUN_CELLS * rank
    older, t_j, spare = s, np.ones_like(s), np.empty_like(s)  # T_-1 = T_1 starts the recurrence
    for j in range(_PANEL_NODES):  # buffers in turn: no allocation per degree
        np.put(tails, flipped, np.add.reduceat(np.multiply(w, t_j, out=spare), runs_at))
        moments = np.cumsum(tails, axis=1).take(flipped)
        partial += np.multiply(_PANEL_T[j][:, None], moments if j == 0 else 2.0 * moments, out=term)
        np.multiply(t_j, s2, out=spare)
        older, t_j, spare = t_j, np.subtract(spare, older, out=spare), older
    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _PANEL_X
    return x, lo[panel] + _RUN_CELLS * rank, partial.T / _PANEL_NODES


def _blocks(key: np.ndarray, elements):
    """(value, indices): blocks of one value of key, of at most _BLOCK_ELEMENTS elements(value)."""
    order = np.argsort(key, kind="stable")
    begin = np.flatnonzero(np.diff(key[order], prepend=key[order[:1]] - 1))
    for value, start, end in zip(key[order[begin]].tolist(), begin, [*begin[1:], key.size]):
        step = max(1, _BLOCK_ELEMENTS // elements(value))
        for pos in range(start, end, step):
            yield value, order[pos : min(pos + step, end)]


class TabulatedDistribution:
    """Tabulated CDFs of distance laws on one geometry, each with a monotone cubic interpolant.

    A table holds (l, F(l)) knots from 0 to where F reaches 1 and knot
    slopes, its law's densities held in the monotone box
    (``_checked_tables``); on each cell the interpolant is the cubic
    Hermite interpolant through its two knots, and ``pdf`` is the exact
    derivative of ``cdf``.  Each cell holds its cubic in powers of the
    offset s from its left knot, summed as c3 + c2 s + c1 s^2 + c0 s^3.

    An instance holds its tables side by side for one array pass over all:
    the constructor's one table, or a ``ReceiverMixture``'s.  Knots and CDF
    values are complex keys table + 1j x, which numpy orders
    lexicographically, so one search finds the cells of every query.  A
    stack of one answers queries itself; in the view ``take(which)`` query
    i reads table which[i], and a stack of several is read through views
    only: a query of its own raises DomainError, while ``quantiles``, ends
    and end_sf cover all its tables.  ``grid``, ``cdf_values`` and
    ``slopes`` are the one table's of a stack of one or a view with a
    scalar which.  The panel rule of ratio
    2^(1/k) (``_layout``) is built on first use and kept in _layouts, which
    views share, with its lock.  ends holds each table's last knot whose
    survival is above _SURVIVAL_FLOOR, where the serving rule stops, and
    end_sf the survival there.  Instances are immutable and thread-safe.
    The coverage models read a stack's laws from its weights, kinks and
    ``serving_law``: here one law of weight 1 with no kink past 0, which
    the table serves itself, as every table does.  ``PairTable`` and
    ``ReceiverMixture`` give their own kinks.
    """

    weights = np.broadcast_to(1.0, 1)  # read-only
    kinks = np.broadcast_to(0.0, (1, 1))

    def __init__(self, geometry: CylinderGeometry, grid: np.ndarray, cdf_values: np.ndarray,
                 densities: np.ndarray):
        self._hold(geometry, *_checked_tables(geometry, [(grid, cdf_values, densities)]))

    def _hold(self, geometry: CylinderGeometry, grid, values, slopes, sizes) -> None:
        """Hold tables side by side: knots, CDF values, slopes and sizes from ``_checked_tables``."""
        self.geometry = geometry
        tables, last = np.arange(sizes.size), np.cumsum(sizes) - 1
        # the cubics of the cells within a table, in C order: a fancy index gives F order
        self._cubic = _hermite_cubic(grid, values, slopes).take(
            np.delete(np.arange(grid.size - 1), last[:-1]), axis=1)
        # each knot's tail 1 - F as the sum of the rises above it, where no
        # digits cancel, summed from the top in a row per table
        index = np.repeat(tables, sizes)
        above = np.repeat(last, sizes) - np.arange(grid.size)  # knots above it in its table
        rises = np.zeros((sizes.size, sizes.max()))
        rises[index[:-1], above[:-1]] = np.diff(values)
        rises[:, 0] = 0.0  # a last knot's step to the next table is no rise of its own
        self._tails = np.cumsum(rises, axis=1)[index, above]
        self._knots, self._values = index + 1j * grid, index + 1j * values
        self._last_knot, self._last_slope = grid[last], slopes[last]  # the cubics hold the other slopes
        self._first_cell = last - sizes + 1 - tables  # table k's first cell in _cubic
        self._last_cell = self._first_cell + sizes - 2
        # the knot before the first whose survival is below the floor (or before the last knot)
        floor = np.searchsorted(self._values, tables + 1j * (1.0 - _SURVIVAL_FLOOR))
        cut = np.minimum(floor, last) - 1
        self.ends, self.end_sf = self._knots.imag[cut], self._tails[cut]
        self._layouts, self._layouts_lock = {}, threading.Lock()
        self._which = np.asarray(0) if sizes.size == 1 else None  # set by take

    def _routing(self) -> np.ndarray:
        """The table of each query: which of ``take(which)``, or 0 in a stack of one."""
        if self._which is None:
            raise DomainError(f"a stack of {self.ends.size} tables is read through take(which)")
        return self._which

    def _table(self):
        """Copies of the grid, CDF values and slopes of the one table that this instance reads."""
        t = int(self._routing())
        cells = slice(self._first_cell[t], self._last_cell[t] + 1)
        knots = slice(cells.start + t, cells.stop + t + 1)
        return (self._knots.imag[knots].copy(), self._values.imag[knots].copy(),
                np.append(self._cubic[3, cells], self._last_slope[t]))

    grid = property(lambda self: self._table()[0], doc="The knots of the one table read.")
    cdf_values = property(lambda self: self._table()[1], doc="Its CDF values at the knots.")
    slopes = property(lambda self: self._table()[2], doc="Its knot slopes.")

    def serving_law(self, which, l):
        """CDF and density of the laws which at l: each table serves as its own law."""
        return self.take(which).cdf_and_pdf(l)

    def take(self, which) -> "TabulatedDistribution":
        """The same tables, with query i reading table which[i] (each query, for a scalar which).

        which must hold integers in [0, number of tables); else DomainError.
        """
        which = np.asarray(which)
        if which.dtype.kind not in "iu" or which.size and not (
                0 <= which.min() and which.max() < self.ends.size):
            raise DomainError(f"take(which) needs integer table indices in [0, {self.ends.size})")
        view = copy.copy(self)
        view._which = which
        return view

    def _cells(self, which: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Index in _cubic of the cell of table which holding x, for x in [0, its last knot]."""
        knot = np.searchsorted(self._knots, which + 1j * x, side="right") - 1
        return np.minimum(knot - which, self._last_cell[which])

    def _pdf_at(self, x: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The density at x, the derivative of the cubic of each x's cell."""
        knot, c0, c1, c2 = np.take(self._cubic[:4], cells, axis=1)
        s = x - knot
        return c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s)

    def _locate(self, l):
        """l as an array, its table, its table's last knot, and l's cell, offset and c0..c3."""
        x, which = np.asarray(l, dtype=float), self._routing()
        last = self._last_knot[which]
        inside = np.clip(x, 0.0, last)
        cells = self._cells(which, inside)
        knot, *cubic = np.take(self._cubic, cells, axis=1)
        return x, which, last, cells, inside - knot, cubic

    def cdf_and_pdf(self, l):
        """Arrays of F (0 below the support, 1 above) and f = F' (0 outside), by one cell search."""
        x, _, last, _, s, (c0, c1, c2, c3) = self._locate(l)
        cdf = c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
        pdf = np.maximum(c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s), 0.0)
        return (np.where(x <= 0.0, 0.0, np.where(x >= last, 1.0, cdf)),
                np.where((x < 0.0) | (x > last), 0.0, pdf))

    def cdf(self, l):
        """F at l (``cdf_and_pdf``); a float for one query."""
        out = self.cdf_and_pdf(l)[0]
        return out if np.ndim(out) else float(out)

    def pdf(self, l):
        """f = F' at l (``cdf_and_pdf``); a float for one query."""
        out = self.cdf_and_pdf(l)[1]
        return out if np.ndim(out) else float(out)

    def sf(self, l):
        """1 - F at l, its cell's left-knot tail less the cubic's rise; a float for one query."""
        x, which, last, cells, s, (c0, c1, c2, _) = self._locate(l)
        sf = self._tails[cells + which] - (c2 * s + c1 * (s * s) + c0 * (s * s * s))
        out = np.where(x <= 0.0, 1.0, np.where(x >= last, 0.0, sf))
        return out if np.ndim(out) else float(out)

    def quantiles(self, levels: np.ndarray) -> np.ndarray:
        """np.interp(levels, cdf_values, grid) for levels in (0, 1), one row per table."""
        which = np.arange(self.ends.size)[:, None]
        j = np.searchsorted(self._values, which + 1j * levels, side="right") - 1
        (x0, x1), (y0, y1) = self._values.imag[[j, j + 1]], self._knots.imag[[j, j + 1]]
        return (y1 - y0) / (x1 - x0) * (levels - x0) + y0

    def _layout(self, k: int):
        """The panel rule of ratio 2^(1/k) (``_build_layout``), built once under the lock, on first use."""
        with self._layouts_lock:
            if k not in self._layouts:
                edges = [_panel_edges(self.take(t), k) for t in range(self.ends.size)]
                self._layouts[k] = self._build_layout(edges)
            return self._layouts[k]

    def _build_layout(self, edges):
        """(nodes, weights, partial, count, column, anchor): the panel rule on each table's edges.

        edges holds each table's ``_panel_edges``.  Row t of nodes and
        weights holds table t's panels, the top one last, right-aligned and
        padded on the left with weight-0 nodes at d_max; partial holds the
        weights of every stored knot, table by table (``_partial_panels``).
        A lower limit in cell i of table t takes the cell rule on the rest
        of its cell and the count[t, i] cells above, up to a stored knot,
        then the columns of row t from column[t, i] on, whose first
        _PANEL_NODES, that knot's panel, weigh partial[anchor[t, i]].
        """
        tables = np.arange(self.ends.size)
        lowest, panels = np.array([(e[0], e.size - 1) for e in edges]).T
        width = _PANEL_NODES * np.max(panels)
        nodes = np.full((tables.size, width), self.geometry.d_max)
        weights = np.zeros(nodes.shape)
        # the cell rule on the knots of all tables; no cell between two tables is read
        offsets = self._first_cell + tables  # each table's first knot
        table = np.repeat(tables, self._last_cell - self._first_cell + 2)[:-1]  # a cell's
        x, w = _gauss_on_panels(self._knots.imag, _CELL_X, _CELL_W)
        pdf = self._pdf_at(x.reshape(-1, _CELL_QUAD_ORDER).T, np.arange(table.size) - table)
        w *= np.maximum(pdf, 0.0).T.ravel()
        panel_table = np.repeat(tables, panels)
        lo = np.concatenate([e[:-1] for e in edges]) + offsets[panel_table]
        hi = np.concatenate([e[1:] for e in edges]) + offsets[panel_table]
        # chunks of panels of about _BLOCK_ELEMENTS cell-rule nodes bound the temporaries
        chunks = -(-_CELL_QUAD_ORDER * np.sum(hi - lo) // _BLOCK_ELEMENTS) or 1
        parts = [_partial_panels(self._knots.imag, x, w, lo[c], hi[c])
                 for c in np.array_split(np.arange(lo.size), chunks)]
        x, stored, partial = (np.concatenate(p) for p in zip(*parts))
        left = np.arange(lo.size) - np.cumsum(panels)[panel_table]  # panels from the top, negated
        cols = (width + _PANEL_NODES * left)[:, None] + np.arange(_PANEL_NODES)
        nodes[panel_table[:, None], cols] = x
        weights[panel_table[:, None], cols] = partial[np.searchsorted(stored, lo)]
        # the stored knots with each table's top edge after them, and the
        # first column of each one's panel: a limit in cell i stops the cell
        # rule at the first above it, from the lowest edge on a full cell above
        tops = np.array([e[-1] for e in edges]) + offsets
        at, panel = np.searchsorted(stored, tops), np.searchsorted(lo, stored, side="right") - 1
        keys, top = np.insert(stored, at, tops), (at + tables)[:, None]
        starts = np.insert(width + _PANEL_NODES * left[panel], at, width)
        i = np.arange(np.max(self._last_cell - self._first_cell) + 1)  # the most cells of a table
        up = np.searchsorted(keys, offsets[:, None] + i + 1 + (i >= lowest[:, None]))
        up = np.minimum(up, top)
        count = np.maximum(keys[up] - offsets[:, None] - i - 1, 0)
        anchor = np.where(up == top, -1, up - tables[:, None])  # each top comes after its table's
        return nodes, weights, partial, *(v.astype(np.int32) for v in (count, starts[up], anchor))

    def integrate_pdf_product(self, lo, rows_fn, rows: int, alpha: float) -> np.ndarray:
        """Integrals of rows_fn(u^-alpha) * f(u) du over [lo, d_max], one set of rows per lower limit.

        The i-th of the n lower limits lo is against the density f of table
        which[i]; the result has shape (rows, n).  rows_fn(x, sel) returns
        the rows of the limits lo[sel] at x = u^-alpha, shape (rows,
        len(sel), x.shape[-1]), with a row of x per limit.  A limit takes
        the cell rule on the rest of its cell and its full cells up to a
        stored knot of the panels of ratio 2^(1/k), k = ceil(alpha / 6):
        the lowest edge from below it, and else the first stored knot at
        least one full cell above its cell.  The rest of that knot's panel
        and every panel above take their Chebyshev nodes and product
        weights (``_build_layout``); with no panel left the cell rule runs
        to the end.  The rows must be analytic in u off the rays arg u =
        +-pi / alpha, as the Gamma kernel's rows are, for the panels' bound
        in interference.py to hold.  Limits go in blocks of at most
        _BLOCK_ELEMENTS integrand elements, and a limit's row holds its own
        terms only, summed pairwise: its value does not depend on the others.
        """
        lo_arr = np.maximum(np.asarray(lo, dtype=float), 0.0)
        out = np.zeros((rows, lo_arr.size))
        which = self._routing()
        live = np.flatnonzero(lo_arr < self._last_knot[which])
        a, table = lo_arr[live], np.broadcast_to(which, lo_arr.shape)[live]
        cell = self._cells(table, a)
        nodes, wf, partial, count, column, anchor = self._layout(math.ceil(alpha / _PANEL_ALPHA))
        i = cell - self._first_cell[table]  # the limit's cell in its table
        count, column, anchor = count[table, i], column[table, i], anchor[table, i]
        # the rest of the limit's cell and its full cells before its stored
        # knot, by their count; Gauss node, cell and limit down the axes
        for c, block in _blocks(count, lambda c: rows * _CELL_QUAD_ORDER * (c + 1)):
            cells = cell[block] + np.arange(c + 1)[:, None]
            edges = np.vstack((a[block], self._knots.imag[cells + table[block] + 1]))
            mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges, axis=0)
            near = mids + halves * _CELL_X[:, None, None]
            w = halves * _CELL_W[:, None, None] * np.maximum(self._pdf_at(near, cells), 0.0)
            x, w = (np.ascontiguousarray(v.reshape(-1, block.size).T) for v in (near**-alpha, w))
            out[:, live[block]] += (rows_fn(x, live[block]) * w).sum(axis=-1)
        # then the columns from its stored knot's panel on, by first column
        width, x = nodes.shape[1], nodes**-alpha
        far = np.flatnonzero(column < width)
        for first, block in _blocks(column[far], lambda first: rows * (width - first)):
            block = far[block]
            sel, k = live[block], table[block]
            # one table: a view of its row, no gather
            k = slice(k[0], k[0] + 1) if np.all(k == k[0]) else k
            full = rows_fn(x[k, first:], sel)
            full *= np.hstack((partial[anchor[block]], wf[table[block], first + _PANEL_NODES :]))
            out[:, sel] += full.sum(axis=-1)
        return out

    def save(self, path) -> None:
        """Write the versioned columnar text cache (header: R, H, grid_size).

        Each row holds a knot, its CDF value and its slope; the slopes are
        already in the monotone box, so ``load`` rebuilds the table bit for
        bit.  A cache holds a pair table: ``load`` returns a ``PairTable``,
        with the pair law's kinks, so any other table raises DomainError.
        """
        if not isinstance(self, PairTable):
            raise DomainError("only a pair table (build_cdf) can be cached")
        grid, values, slopes = self._table()
        header = (_CACHE_MAGIC, f"# R={self.geometry.R!r}", f"# H={self.geometry.H!r}",
                  f"# grid_size={grid.size}")
        columns = (v.tolist() for v in (grid, values, slopes))
        rows = (f"{l!r}\t{F!r}\t{f!r}" for l, F, f in zip(*columns))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join((*header, *rows, "")))

    @classmethod
    def load(cls, path) -> "PairTable":
        """Reload a cache written by ``save`` as a ``PairTable``.

        Raises StaleCacheError on an unreadable or corrupt file, including
        one of another format version (the two-column v1 held no slopes)
        and one whose table the constructor rejects.
        """
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise StaleCacheError(f"cannot read CDF cache {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise StaleCacheError(f"corrupt CDF cache {path}: {exc}") from exc
        try:
            if not lines or lines[0] != _CACHE_MAGIC:
                raise ValueError(f"missing magic line {_CACHE_MAGIC!r}")
            header = dict(line.lstrip("# ").partition("=")[::2] for line in lines[1:4])
            R, H, grid_size = float(header["R"]), float(header["H"]), int(header["grid_size"])
            # rows of unequal length make the array ragged and raise ValueError
            rows = np.array([line.split("\t") for line in lines[4:] if line], dtype=float)
            if rows.shape != (grid_size, 3):
                raise ValueError(f"expected {grid_size} rows of 3 columns, found {rows.shape}")
            return PairTable(CylinderGeometry(R=R, H=H), *rows.T.copy())  # contiguous columns
        except (KeyError, ValueError, IndexError, DomainError) as exc:
            raise StaleCacheError(f"corrupt CDF cache {path}: {exc}") from exc


class PairTable(TabulatedDistribution):
    """The pair table of ``build_cdf`` or a cache: the pair law's table, with its kinks 0, 2R and H.

    It serves as its own law, as every table does.
    """

    kinks = property(lambda self: np.array([[0.0, 2.0 * self.geometry.R, self.geometry.H]]))


def build_cdf(geom: CylinderGeometry, grid_size: int = DEFAULT_GRID_SIZE) -> PairTable:
    """Tabulate ``pair_distance_law``, F and f, on grid_size equally spaced knots over [0, d_max].

    The law is 0 at the first knot and 1 at the last; rounding of F above 1
    or downward is clipped away.  grid_size must be an integer of at least
    64 (an integral float too) that numpy can size an array by; else
    DomainError.
    """
    if not (64 <= grid_size < math.inf and grid_size % 1 == 0):
        raise DomainError(f"grid_size={grid_size!r} must be an integer of at least 64")
    try:
        grid = np.linspace(0.0, geom.d_max, int(grid_size))
    except (ValueError, IndexError):  # numpy's refusals of a size past its index range
        raise DomainError(f"grid_size={grid_size!r} is past numpy's largest array") from None
    F, f = pair_distance_law(geom, grid)
    return PairTable(geom, grid, np.maximum.accumulate(np.clip(F, 0.0, 1.0)), f)


def _lens(rho: np.ndarray, c: np.ndarray, R: float) -> np.ndarray:
    """The disk of radius R at the origin against the circle of radius rho at distance c <= R.

    Returns the area of the disk met by the circle's disk (the lens) and the
    angle of the circle inside the disk, stacked; positive c broadcasts with rho.
    """
    minus, plus = rho - R, rho + R
    x, cc, c2 = minus * plus, c * c, 2.0 * c
    out = np.empty((2,) + rho.shape)
    area, angle = out  # angle holds the half angle until the end
    np.arccos(np.clip((x + cc) / (c2 * rho), -1.0, 1.0), out=angle)
    np.multiply(R * R, np.arccos(np.clip((cc - x) / (c2 * R), -1.0, 1.0)), out=area)
    area += rho * rho * angle
    area -= 0.5 * np.sqrt(np.maximum((plus - c) * (c - minus) * (minus + c) * (c + R + rho), 0.0))
    angle *= 2.0
    inside, outside = rho <= R - c, rho >= R + c  # the circle misses the rim
    area[inside], angle[inside] = math.pi * rho[inside] * rho[inside], 2.0 * math.pi
    area[outside], angle[outside] = math.pi * R * R, 0.0
    return out


def _slab(d: np.ndarray, a: np.ndarray, r: np.ndarray, R: float):
    """Integrals over slice offsets w in [0, a] of the ball of radius d about a receiver at r.

    Returns (int lens area dw, int arc angle dw) for the slices of radius
    rho = sqrt(d^2 - w^2), a row per row of a, the reaches of the slabs below
    and above the receiver; d and r are 1-D.  Below w_full the slice covers
    the cross section (rho >= R + r), above w_in it lies inside (rho <= R -
    r), and a live lens range [lo, hi] in between (hi > lo) takes a rule
    over the slice angle t, w = d sin t and rho = d cos t, so dw = rho dt
    has no endpoint singularity even where R - r is small next to d.  The
    upper slab reuses the lower's sums where their ranges are equal, and
    the nodes are summed in order: a distance's sums do not depend on the
    others.  Above w_in the area comes from the range's middle and width.
    """
    w_full = np.sqrt(np.maximum(d * d - np.square(R + r), 0.0))
    w_in = np.sqrt(np.maximum(d * d - np.square(R - r), 0.0))
    lo, hi = np.minimum(a, w_full), np.minimum(a, w_in)
    same = (lo[1] == lo[0]) & (hi[1] == hi[0])
    live = hi > lo  # so d > 0 and r > 0
    live[1] &= ~same
    at = np.nonzero(live)[1]
    t_lo = np.arcsin(np.minimum(lo[live] / d[at], 1.0))
    t_hi = np.arcsin(np.minimum(hi[live] / d[at], 1.0))
    rho = d[at] * np.cos(t_lo + (t_hi - t_lo) * _SLICE_PHI[:, None])
    terms = _lens(rho, r[at], R)
    terms *= (t_hi - t_lo) * rho * _SLICE_DPHI_W[:, None]
    sums = sum(terms.swapaxes(0, 1)[1:], terms[:, 0])  # in node order; np.sum pairs a lone distance's
    lens, angle = np.zeros((2,) + a.shape)
    lens[live], angle[live] = sums
    lens[1, same], angle[1, same] = lens[0, same], angle[0, same]
    mid, width = 0.5 * (a + hi), a - hi  # inside = int (d^2 - w^2) dw over [hi, a]
    inside = width * ((d - mid) * (d + mid) - width * width / 12.0)
    return math.pi * R * R * lo + lens + math.pi * inside, angle + 2.0 * math.pi * (a - hi)


def receiver_distance_law(geom: CylinderGeometry, r, z, d):
    """CDF and density of the distance from the receiver at (r, z) to a uniform node.

    r is the receiver's distance from the axis and z its height.  The
    ball B(x, d) is cut into horizontal slices at offsets w from the
    receiver; the slice of radius sqrt(d^2 - w^2) meets the cylinder's
    cross-section in a circle-disk lens, so

        F_x(d) = int lens(w) dw / (pi R^2 H),
        f_x(d) = d int angle(w) dw / (pi R^2 H),

    the latter because the sphere's zone between two slices has area
    2 pi d dw (Archimedes) and a share angle / 2 pi of it lies inside.
    Both integrals run over w in [-min(z, d), min(H - z, d)], a slab below
    and one above the receiver (``_slab``).  From the receiver's d_max(x)
    (``receiver_breakpoints``) on, the sphere meets the cylinder in at
    most a point, so f_x is 0 there.  d is a distance or a 1-D array, and
    r and z are scalars or one receiver per distance; a distance's values
    do not depend on the others.  A receiver outside the cylinder, or a
    negative or NaN distance, raises DomainError.
    """
    R, H = geom.R, geom.H
    r, z, d = np.asarray(r, dtype=float), np.asarray(z, dtype=float), np.asarray(d, dtype=float)
    outside = ~((0.0 <= r) & (r <= R) & (0.0 <= z) & (z <= H))
    if np.any(outside):
        r, z = (float(np.broadcast_to(v, outside.shape).flat[np.argmax(outside)]) for v in (r, z))
        raise DomainError(f"receiver (r={r!r}, z={z!r}) outside the cylinder")
    r, z, d = np.broadcast_arrays(r, z, np.atleast_1d(d))
    if not np.all(d >= 0.0):  # written so that NaN fails it too
        raise DomainError("distances must be nonnegative, not NaN")
    lens, angle = _slab(d, np.stack((np.minimum(z, d), np.minimum(H - z, d))), r, R)
    beyond = d >= receiver_breakpoints(geom, r, z)[..., -1]  # d_max(x)
    density = np.where(beyond, 0.0, d * (angle[0] + angle[1]) / geom.volume)
    return (lens[0] + lens[1]) / geom.volume, density


def receiver_breakpoints(geom: CylinderGeometry, r, z) -> np.ndarray:
    """0, the distances where F_x changes form, and the largest distance d_max(x), sorted.

    The ball first touches the wall (R - r), the floor and ceiling (z,
    H - z) and the rims (their hypotenuses), and swallows a whole cross
    section at R + r; d_max(x) = hypot(R + r, max(z, H - z)).  r and z
    broadcast, the distances run along a last axis and can repeat.
    """
    r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
    across, up = (geom.R - r, geom.R + r), (z, geom.H - z)
    kinks = [*across, *up, *(np.hypot(a, b) for a in across for b in up)]
    return np.sort(np.stack([np.zeros_like(kinks[0]), *kinks], axis=-1), axis=-1)


def _build_receiver_tables(geom: CylinderGeometry, r, z):
    """Tabulate F_x and its density f_x for the receivers at (r[q], z[q]): [(knots, F_x, f_x)].

    A receiver's RECEIVER_GRID_SIZE knots span [0, d_max(x)], where F_x
    reaches 1, and its breakpoints are added as knots (uniform knots closer
    than a quarter spacing to one are dropped, a repeat is held once).  The
    law is read once, at the knots of all receivers, in blocks of 341
    distances, _BLOCK_ELEMENTS / 2 slice nodes over their two slabs.
    ``_checked_tables`` holds its densities in the monotone box as the
    slopes, which keeps the cubic monotone in cells between nearly
    coincident breakpoints too.
    """
    r, z = np.atleast_1d(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
    breaks = receiver_breakpoints(geom, r, z)
    uniform = np.linspace(0.0, breaks[:, -1], RECEIVER_GRID_SIZE, axis=-1)
    spacing = breaks[:, -1:] / (RECEIVER_GRID_SIZE - 1)
    keep = np.ones(uniform.shape, dtype=bool)
    for b in breaks[:, 1:-1].T:  # the interior breakpoints, a column of receivers at a time
        keep &= np.abs(uniform - b[:, None]) > 0.25 * spacing
    keep[:, [0, -1]] = True
    # a sorted row of knots per receiver; the dropped (inf) and repeated ones are not held
    knots = np.sort(np.hstack((np.where(keep, uniform, np.inf), breaks)), axis=1)
    held = np.isfinite(knots)
    held[:, 1:] &= knots[:, 1:] != knots[:, :-1]
    d, which = knots[held], np.nonzero(held)[0]
    F, f = np.empty(d.size), np.empty(d.size)
    step = _BLOCK_ELEMENTS // (4 * _SLICE_PHI.size)  # a dozen temporaries of 130 kB each
    for at in (slice(start, start + step) for start in range(0, d.size, step)):
        F[at], f[at] = receiver_distance_law(geom, r[which[at]], z[which[at]], d[at])
    rows = np.full(knots.shape, -np.inf)  # each row's running maximum of F
    rows[held] = np.clip(F, 0.0, 1.0)
    F = np.maximum.accumulate(rows, axis=1)[held]
    # the ball contains the cylinder at d_max(x), so F is 1 there up to rounding
    splits = np.cumsum(np.sum(held, axis=1))[:-1]
    F[np.append(0, splits)], F[np.append(splits, d.size) - 1] = 0.0, 1.0
    return list(zip(*(np.split(v, splits) for v in (d, F, f))))


class ReceiverMixture(TabulatedDistribution):
    """The stack of receiver-conditioned distance tables at the nodes of a receiver rule.

    nodes[q] = (r, z) is a receiver position, tables[q] = (grid,
    cdf_values, densities) the knots, CDF values and knot densities of its
    F_q up to the receiver's d_max(x), where F_q reaches 1, checked and
    held in the monotone box as the one table of ``TabulatedDistribution``
    is (``_checked_tables``), so a table's slopes give it back bit for bit,
    and weights[q] its weight in the average over receiver positions
    (density 2 r / R^2 in r and uniform in z, folded onto z <= H / 2 by
    symmetry; the weights sum to 1).  sum_q weights[q] F_q approximates the
    pair law, and the exact model evaluates all receivers of the rule in
    one array pass over the stack, with kinks[q] receiver q's
    ``receiver_breakpoints`` and each table serving as its receiver's law,
    as every table does.  check holds a coarser rule over the same
    geometry, against which results of this one are compared for an error
    estimate.  Nodes of shape (q, 2) for q tables, q finite positive
    weights summing to 1 within 1e-12, and a check that is None or a
    mixture on the same geometry are required; else DomainError.
    """

    def __init__(self, geometry: CylinderGeometry, nodes, weights, tables, check=None):
        self._hold(geometry, *_checked_tables(geometry, tables))
        nodes, weights = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        if nodes.shape != (weights.size, 2) or weights.shape != self.ends.shape:
            raise DomainError(f"{self.ends.size} tables need as many nodes (r, z) and weights")
        # written so that NaN fails it too
        if not (np.all((weights > 0.0) & (weights < np.inf)) and abs(weights.sum() - 1.0) <= 1e-12):
            raise DomainError("weights must be finite, positive and sum to 1; they sum to "
                              f"{float(weights.sum())!r}")
        if not (check is None or isinstance(check, ReceiverMixture) and check.geometry == geometry):
            raise DomainError("check must be None or a ReceiverMixture on the same geometry")
        self.nodes, self.weights, self.check = nodes, weights, check

    kinks = property(lambda self: receiver_breakpoints(self.geometry, *self.nodes.T))


def _receiver_mixture(
    geom: CylinderGeometry, rule: Tuple[int, int], check: Optional[ReceiverMixture] = None
) -> ReceiverMixture:
    n_u, n_z = rule if geom.R >= 0.5 * geom.H else rule[::-1]
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    xz, wz = np.polynomial.legendre.leggauss(n_z)
    r = geom.R * np.sqrt(0.5 * (xu + 1.0))
    z = 0.25 * geom.H * (xz + 1.0)
    nodes = np.array([(ri, zj) for ri in r for zj in z])
    weights = np.outer(0.5 * wu, 0.5 * wz).ravel()
    return ReceiverMixture(geom, nodes, weights, _build_receiver_tables(geom, *nodes.T), check)


def build_receiver_cdfs(geom: CylinderGeometry) -> ReceiverMixture:
    """Receiver tables on the RECEIVER_RULE product Gauss rule.

    The rule is Gauss-Legendre in u = r^2 / R^2 on [0, 1] (uniform for a
    volume-uniform receiver) times Gauss-Legendre in z on [0, H / 2],
    with the larger node count on the longer of R and H / 2; each rule's
    tables come from one blocked pass (``_build_receiver_tables``).  The
    returned mixture's check is the same construction on RECEIVER_CHECK_RULE.
    """
    check = _receiver_mixture(geom, RECEIVER_CHECK_RULE)
    return _receiver_mixture(geom, RECEIVER_RULE, check)
