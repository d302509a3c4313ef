"""Distance distribution of two uniform random points in a cylinder.

The distance L decomposes into independent planar and vertical separations,
L^2 = Dxy^2 + Dz^2, whose individual densities are classical (disk line
picking and segment line picking).  Two evaluation routes are provided:

* ``cylinder_pair_pdf_numeric``: the convolution of the squared-component
  densities, evaluated by a fixed 32-node Gauss rule.  Writing the
  separations as (l cos t, l sin t) turns the convolution into an integral
  over the angle t with a bounded integrand, so the 1/sqrt endpoint
  singularity of the raw squared-vertical density never reaches the
  rule; a smoothstep map of the rule absorbs the (t - t_lo)^(3/2) end of
  the disk density.
* ``cylinder_pair_pdf_closed``: a four-branch closed form in complete and
  incomplete elliptic integrals, dispatched on the signs of (l - 2R) and
  (l - H).  Exact regime boundaries are assigned to the "<=" branch.
  The branches were cross-checked against the numeric convolution at
  machine precision; the first branch's elliptic prefactor multiplies
  both the K and E terms (the only algebraically and dimensionally
  consistent grouping).

``build_cdf`` tabulates the CDF once per geometry on an equally spaced
grid and wraps it in a monotone piecewise-cubic (PCHIP) interpolant: the
Fritsch-Carlson slopes with Moler's shape-preserving end slopes, in
numpy, bit for bit equal to scipy's ``PchipInterpolator``.  It
integrates the closed-form disk CDF against the segment density by one
fixed Gauss rule per knot and calls neither density route;
``pair_distance_law`` pairs that rule with the numeric density at any
distances.  The tabulated density is the exact derivative of the
interpolant, so downstream integrals of expressions like (1 - F)^(N-2) f
are internally consistent.  Tables serialize to a versioned columnar
text file for reuse across runs.

The pair law above is the law of the distance from a *random* receiver.
In a deployment all N - 1 distances share one receiver position x, and
given x they are i.i.d. with the receiver-conditioned law

    F_x(d) = |B(x, d) ∩ cylinder| / (pi R^2 H).

``receiver_distance_law`` evaluates F_x and its density exactly (a
Gauss rule over horizontal slices of the ball, each slice meeting the
cylinder's cross-section in a circle-disk lens), and
``build_receiver_cdfs`` tabulates it at the nodes of a fixed rule over
receiver positions, so the pair law is the rule's weighted mixture.

The module needs numpy and, through ``special``, ``scipy.special`` only.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, StaleCacheError
from .geometry import CylinderGeometry
from .special import complete_E, complete_K, incomplete_E, incomplete_F

_CACHE_MAGIC = "# cylcov-cdf v1"

DEFAULT_GRID_SIZE = 2048
# Gauss points per knot cell: the density is quadratic on a cell and 4 points
# integrate degree 7, leaving the kernel's remainder past degree 5 per cell.
_CELL_QUAD_ORDER = 4
_CELL_X, _CELL_W = np.polynomial.legendre.leggauss(_CELL_QUAD_ORDER)
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
# Smoothstep rule over the vertical separation in build_cdf, where the disk
# CDF approaches 1 like (2R - v)^(3/2) and 0 like a term in v^3.
_PAIR_CDF_PHI, _PAIR_CDF_DPHI_W = _smoothstep_rule(48)
# Smoothstep rule over the angle in cylinder_pair_pdf_numeric: at l > 2R the
# disk density leaves the lower limit like (t - t_lo)^(3/2).
_PAIR_PDF_PHI, _PAIR_PDF_DPHI_W = _smoothstep_rule(32)


def _gauss_on_panels(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Nodes and weights of the Gauss rule (x, w) on [-1, 1] mapped onto each panel of edges."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    return (mids[:, None] + halves[:, None] * x).ravel(), (halves[:, None] * w).ravel()


def disk_pair_pdf(v: float, R: float) -> float:
    """Density of the distance between two uniform points in a disk of radius R.

    f(v) = (4 v / (pi R^2)) (arccos(v / 2R) - (v / 2R) sqrt(1 - (v / 2R)^2))
    on [0, 2R], zero above.
    """
    if R <= 0.0:
        raise DomainError(f"disk radius R={R!r} must be positive")
    if v < 0.0:
        raise DomainError(f"distance v={v!r} must be nonnegative")
    if v == 0.0 or v >= 2.0 * R:
        return 0.0
    x = v / (2.0 * R)
    return 4.0 * v / (math.pi * R * R) * (math.acos(x) - x * math.sqrt(1.0 - x * x))


def segment_pair_pdf(z: float, H: float) -> float:
    """Density of the distance between two uniform points on a segment of length H.

    The triangular density 2 (H - z) / H^2 on [0, H], zero above.
    """
    if H <= 0.0:
        raise DomainError(f"segment length H={H!r} must be positive")
    if z < 0.0:
        raise DomainError(f"distance z={z!r} must be nonnegative")
    if z > H:
        return 0.0
    return 2.0 * (H - z) / (H * H)


def cylinder_pair_pdf_numeric(l: float, geom: CylinderGeometry) -> float:
    """Pair-distance density by numeric convolution of the component densities.

    Parameterizing the planar/vertical split as (l cos t, l sin t) gives

        f_L(l) = l * int_{t_lo}^{t_hi} f_disk(l cos t) f_seg(l sin t) dt,

    where the limits trim the arc to l cos t <= 2R and l sin t <= H.  The
    integral is a fixed 32-node Gauss rule through the smoothstep map,
    which absorbs the (t - t_lo)^(3/2) end of the disk density at l > 2R.
    Returns 0 outside [0, d_max].  It agrees with the closed form within
    about 1e-12 absolute on the four geometry regimes.
    """
    return float(_pair_pdf(geom, np.array([float(l)]))[0])


def _pair_pdf(geom: CylinderGeometry, l: np.ndarray) -> np.ndarray:
    """The density of ``cylinder_pair_pdf_numeric`` at every distance of the 1-D array l."""
    R, H = geom.R, geom.H
    inside = (l > 0.0) & (l < geom.d_max)
    l = np.where(inside, l, 1.0)  # any positive distance; zeroed below
    theta_lo = np.arccos(np.minimum(1.0, 2.0 * R / l))  # 0 for l <= 2R
    theta_hi = np.arcsin(np.minimum(1.0, H / l))  # pi / 2 for l <= H
    span = np.maximum(theta_hi - theta_lo, 0.0)
    theta = theta_lo[:, None] + span[:, None] * _PAIR_PDF_PHI
    # disk_pair_pdf at v = 2 R x and segment_pair_pdf, on all nodes at once
    x = np.minimum(l[:, None] * np.cos(theta) / (2.0 * R), 1.0)
    disk = (8.0 * x / (math.pi * R)) * (np.arccos(x) - x * np.sqrt(1.0 - x * x))
    segment = 2.0 * np.maximum(H - l[:, None] * np.sin(theta), 0.0) / (H * H)
    val = span * np.sum(disk * segment * _PAIR_PDF_DPHI_W, axis=1)
    return np.where(inside, l * np.maximum(val, 0.0), 0.0)


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
    1e-13 with either sign; results are clamped at zero.
    """
    l = float(l)
    R, H = geom.R, geom.H
    if l <= 0.0 or l >= geom.d_max:
        return 0.0
    if l <= 2.0 * R:
        value = _branch_small_small(l, R, H) if l <= H else _branch_small_tall(l, R, H)
    else:
        value = _branch_wide_small(l, R, H) if l <= H else _branch_wide_tall(l, R, H)
    return max(value, 0.0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point end slope, 0 where its sign breaks the shape.

    Moler also clamps it to 3 m0 when m0 and m1 differ in sign; for
    non-decreasing data that clamp can never apply (the slope is at most
    2 m0 when m1 = 0, and negative, so set to 0, when m0 = 0).
    """
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if np.sign(d) == np.sign(m0) else 0.0


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone cubic through non-decreasing data (Fritsch & Carlson, 1980).

    An interior slope is 0 where a neighbouring secant is flat (for such
    data the only way the two can differ in sign), and their weighted
    harmonic mean otherwise; the end slopes are Moler's.  Every operation
    follows scipy's ``PchipInterpolator``, so the slopes agree with it bit
    for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.array([m[0], m[0]])
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class TabulatedDistribution:
    """Tabulated CDF of the pair distance with a monotone cubic interpolant.

    The table holds (l, F(l)) knots on an equally spaced grid spanning
    [0, d_max].  Queries go through a PCHIP interpolant (``_pchip_slopes``),
    whose piecewise monotonicity guarantees a nonnegative implied density;
    ``pdf`` is the exact derivative of ``cdf``.  Each cell holds its cubic
    in powers of the offset s from its left knot, evaluated as
    c3 + c2 s + c1 s^2 + c0 s^3 in that order of additions, so values match
    scipy's ``PchipInterpolator`` bit for bit.  Instances are immutable
    after construction and safe for concurrent queries.
    """

    def __init__(self, geometry: CylinderGeometry, grid: np.ndarray, cdf_values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(cdf_values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("grid and cdf_values must be equal-length 1-D arrays")
        # the comparisons below let NaN values through
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise DomainError("grid and cdf values must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("grid must be strictly increasing")
        if grid[0] != 0.0 or abs(grid[-1] - geometry.d_max) > 1e-9 * geometry.d_max:
            raise DomainError("grid must span [0, d_max]")
        if np.any(np.diff(values) < 0.0):
            raise DomainError("cdf values must be non-decreasing")
        if abs(values[0]) > 1e-9 or abs(values[-1] - 1.0) > 1e-9:
            raise DomainError("cdf must run from 0 to 1")
        self.geometry = geometry
        self.grid = grid
        self.cdf_values = values
        # Hermite cubic per cell from the knot slopes d
        h = np.diff(grid)
        secant = np.diff(values) / h
        d = _pchip_slopes(grid, values)
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        c0, c1 = t / h, (secant - d[:-1]) / h - t
        self._inner = grid[1:-1]  # searchsorted on it gives the cell index
        # rows: left knot, then the power coefficients of F and of f = F'
        self._cubic = np.stack((grid[:-1], c0, c1, d[:-1], values[:-1]))
        self._quadratic = np.stack((grid[:-1], 3.0 * c0, 2.0 * c1, d[:-1]))
        self._prodquad = None  # lazy cell-quadrature cache

    def _cells(self, x: np.ndarray) -> np.ndarray:
        """Cell index of each x: the knot interval [l_i, l_i+1) holding it, closed at d_max."""
        return np.searchsorted(self._inner, x, side="right")

    def _interp_cdf(self, x: np.ndarray, cells: np.ndarray) -> np.ndarray:
        knot, c0, c1, c2, c3 = np.take(self._cubic, cells, axis=1)
        s = x - knot
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)

    def _interp_pdf(self, x: np.ndarray, cells: np.ndarray) -> np.ndarray:
        knot, c0, c1, c2 = np.take(self._quadratic, cells, axis=1)
        s = x - knot
        return c2 + c1 * s + c0 * (s * s)

    @property
    def d_max(self) -> float:
        return self.geometry.d_max

    @property
    def grid_size(self) -> int:
        return int(self.grid.size)

    def cdf(self, l):
        """F_L(l); 0 below the support, 1 above."""
        x = np.asarray(l, dtype=float)
        inside = np.clip(x, 0.0, self.grid[-1])
        out = self._interp_cdf(inside, self._cells(inside))
        out = np.where(x <= 0.0, 0.0, np.where(x >= self.grid[-1], 1.0, out))
        return float(out) if np.ndim(l) == 0 else out

    def sf(self, l):
        """Survival function 1 - F_L(l)."""
        return 1.0 - self.cdf(l)

    def pdf(self, l):
        """f_L(l) as the derivative of the interpolated CDF; 0 outside."""
        x = np.asarray(l, dtype=float)
        inside = np.clip(x, 0.0, self.grid[-1])
        out = np.maximum(self._interp_pdf(inside, self._cells(inside)), 0.0)
        out = np.where((x < 0.0) | (x > self.grid[-1]), 0.0, out)
        return float(out) if np.ndim(l) == 0 else out

    def _product_quadrature(self):
        """Per-cell Gauss-Legendre nodes with density-scaled weights.

        The tabulated density is the derivative of a PCHIP cubic, so it is
        piecewise quadratic, and 4 Gauss points per knot cell integrate it
        times a kernel of degree 5 exactly, leaving the kernel's remainder.
        Built lazily, then reused by every interference integral against it.
        """
        if self._prodquad is None:
            nodes, weights = _gauss_on_panels(self.grid, _CELL_X, _CELL_W)
            self._prodquad = (nodes, weights * self.pdf(nodes))
        return self._prodquad

    def integrate_pdf_product(self, lo, rows_fn, rows: int) -> np.ndarray:
        """Integrals of rows_fn(u) * f(u) du over [lo, d_max], one set of rows per lower limit.

        lo is a scalar or a 1-D array of n lower limits; the result has
        shape (rows,) or (rows, n).  rows_fn(u, sel) returns the integrand
        rows of the lower limits lo[sel] at the nodes u, shape
        (rows, len(sel), u.shape[-1]), where u is either one 1-D node array
        shared by all of sel or a (len(sel), q) array with a row per limit.
        The rows must be smooth; the piecewise structure of f is handled by
        cell-aligned quadrature.  Per lower limit, the cell containing it
        is integrated on its remaining part and the full cells after it by
        the table's rule, masked per row.  Lower limits are taken in blocks
        of at most _BLOCK_ELEMENTS integrand elements, and every row is
        summed over its nodes in a fixed order.
        """
        lo_arr = np.maximum(np.atleast_1d(np.asarray(lo, dtype=float)), 0.0)
        out = np.zeros((rows, lo_arr.size))
        nodes, wf = self._product_quadrature()
        live = np.flatnonzero(lo_arr < self.grid[-1])
        a = lo_arr[live]
        cell = np.minimum(np.searchsorted(self.grid, a, side="right") - 1, self.grid.size - 2)
        b = self.grid[cell + 1]
        half = 0.5 * (b - a)
        part_nodes = (0.5 * (a + b))[:, None] + half[:, None] * _CELL_X
        # the nodes lie inside the cell of their lower limit, so no search
        part_f = np.maximum(self._interp_pdf(part_nodes, cell[:, None]), 0.0)
        part_w = half[:, None] * _CELL_W * part_f
        start = (cell + 1) * _CELL_QUAD_ORDER
        order = np.argsort(start, kind="stable")
        pos = 0
        while pos < order.size:
            first = start[order[pos]]
            width = nodes.size - first + _CELL_QUAD_ORDER
            block = order[pos : pos + max(1, _BLOCK_ELEMENTS // (rows * width))]
            sel = live[block]
            # pairwise summation over the last axis: a fixed order, with
            # rounding error growing like log(nodes)
            total = (rows_fn(part_nodes[block], sel) * part_w[block]).sum(axis=-1)
            if first < nodes.size:
                w = wf[first:]
                if start[block[-1]] > first:  # rows starting at later cells
                    w = np.where(np.arange(first, nodes.size) >= start[block][:, None], w, 0.0)
                full = rows_fn(nodes[first:], sel)
                full *= w
                total += full.sum(axis=-1)
            out[:, sel] = total
            pos += block.size
        return out[:, 0] if np.ndim(lo) == 0 else out

    def survival_cutoff(self) -> float:
        """Smallest knot beyond which 1 - F drops below _SURVIVAL_FLOOR (d_max if none)."""
        idx = int(np.searchsorted(self.cdf_values, 1.0 - _SURVIVAL_FLOOR, side="left"))
        return float(self.grid[min(idx, self.grid.size - 1)])

    def save(self, path) -> None:
        """Write the versioned columnar text cache (header: R, H, grid_size)."""
        lines = [
            _CACHE_MAGIC,
            f"# R={self.geometry.R!r}",
            f"# H={self.geometry.H!r}",
            f"# grid_size={self.grid.size}",
        ]
        lines.extend(
            f"{l!r}\t{F!r}" for l, F in zip(self.grid.tolist(), self.cdf_values.tolist())
        )
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(
        cls,
        path,
        expected_geometry: Optional[CylinderGeometry] = None,
        expected_grid_size: Optional[int] = None,
    ) -> "TabulatedDistribution":
        """Reload a cache written by ``save``.

        Raises StaleCacheError on a corrupt file, including one whose
        table the constructor rejects, or when the cached parameters do
        not exactly match the requested ones.
        """
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise StaleCacheError(f"cannot read CDF cache {path}: {exc}") from exc
        try:
            if not lines or lines[0] != _CACHE_MAGIC:
                raise ValueError(f"missing magic line {_CACHE_MAGIC!r}")
            header = {}
            for line in lines[1:4]:
                key, _, value = line.lstrip("# ").partition("=")
                header[key] = value
            R = float(header["R"])
            H = float(header["H"])
            grid_size = int(header["grid_size"])
            rows = [line.split("\t") for line in lines[4:] if line]
            if len(rows) != grid_size:
                raise ValueError(f"expected {grid_size} rows, found {len(rows)}")
            grid = np.array([float(r[0]) for r in rows])
            values = np.array([float(r[1]) for r in rows])
            table = cls(CylinderGeometry(R=R, H=H), grid, values)
        except (KeyError, ValueError, IndexError, DomainError) as exc:
            raise StaleCacheError(f"corrupt CDF cache {path}: {exc}") from exc
        if expected_geometry is not None and table.geometry != expected_geometry:
            raise StaleCacheError(
                f"stale CDF cache {path}: built for R={R}, H={H}, "
                f"requested R={expected_geometry.R}, H={expected_geometry.H}"
            )
        if expected_grid_size is not None and grid_size != expected_grid_size:
            raise StaleCacheError(
                f"stale CDF cache {path}: grid_size={grid_size}, "
                f"requested {expected_grid_size}"
            )
        return table


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


def _pair_cdf(geom: CylinderGeometry, l: np.ndarray) -> np.ndarray:
    """F_L at every distance of the 1-D array l by one fixed rule per distance.

    Conditioning on the vertical separation z gives

        F(l) = int_0^{min(l, H)} F_disk(sqrt(l^2 - z^2)) 2 (H - z) / H^2 dz.

    Below z0 = sqrt(l^2 - 4 R^2) the disk CDF is 1, so that piece is the
    segment CDF (2 z H - z^2) / H^2 in closed form; the rest is a 48-node
    Gauss rule through the smoothstep map, applied to every distance at once.
    """
    R, H = geom.R, geom.H
    top = np.minimum(l, H)
    low = np.minimum(np.sqrt(np.maximum(l * l - 4.0 * R * R, 0.0)), top)
    z = low[:, None] + (top - low)[:, None] * _PAIR_CDF_PHI
    disk = _disk_pair_cdf(np.sqrt(np.maximum(l[:, None] ** 2 - z * z, 0.0)), R)
    weights = (top - low)[:, None] * _PAIR_CDF_DPHI_W
    return (2.0 * low * H - low * low) / (H * H) + np.sum(
        disk * (2.0 * (H - z) / (H * H)) * weights, axis=1
    )


def pair_distance_law(geom: CylinderGeometry, l):
    """CDF and density of the pair distance at the distances l, like ``receiver_distance_law``.

    The CDF is ``build_cdf``'s rule before normalization and the density
    ``cylinder_pair_pdf_numeric``'s, both on all of l at once.
    """
    l = np.atleast_1d(np.asarray(l, dtype=float))
    return _pair_cdf(geom, l), _pair_pdf(geom, l)


def build_cdf(geom: CylinderGeometry, grid_size: int = DEFAULT_GRID_SIZE) -> TabulatedDistribution:
    """Tabulate F_L on an equally spaced grid by ``pair_distance_law``'s CDF rule.

    The total mass must come out within 1e-6 of 1 and is normalized away
    so F(d_max) is exactly 1.
    """
    if grid_size < 64:
        raise DomainError(f"grid_size={grid_size} must be at least 64")
    grid = np.linspace(0.0, geom.d_max, int(grid_size))
    F = _pair_cdf(geom, grid)
    total = F[-1]
    if abs(total - 1.0) > 1e-6:
        raise RuntimeError(
            f"pair-distance density mass {total!r} deviates from 1 beyond tolerance"
        )
    F /= total
    F = np.maximum.accumulate(np.clip(F, 0.0, 1.0))
    F[0], F[-1] = 0.0, 1.0
    return TabulatedDistribution(geom, grid, F)


def _lens(rho: np.ndarray, c: float, R: float):
    """The disk of radius R at the origin against the circle of radius rho at distance c <= R.

    Returns the area of the disk met by the circle's disk (the lens), and
    the angle of the circle that lies inside the disk.
    """
    inside = rho <= R - c
    area = np.where(inside, math.pi * rho * rho, math.pi * R * R)
    angle = np.where(inside, 2.0 * math.pi, 0.0)
    mid = (rho > R - c) & (rho < R + c)  # empty when c = 0
    p = rho[mid]
    half_angle = np.arccos(np.clip((c * c + p * p - R * R) / (2.0 * c * p), -1.0, 1.0))
    area[mid] = (
        R * R * np.arccos(np.clip((c * c + R * R - p * p) / (2.0 * c * R), -1.0, 1.0))
        + p * p * half_angle
        - 0.5 * np.sqrt(np.maximum((R + p - c) * (R - p + c) * (p - R + c) * (c + R + p), 0.0))
    )
    angle[mid] = 2.0 * half_angle
    return area, angle


def _slab(d: np.ndarray, a: np.ndarray, r: float, R: float):
    """Integrals over slice offsets w in [0, a] of the ball of radius d.

    Returns (int lens area dw, int arc angle dw) for the slices of radius
    rho = sqrt(d^2 - w^2).  Below w_full the slice covers the whole cross
    section (rho >= R + r); above w_in it lies inside it (rho <= R - r);
    only the lens range in between needs quadrature.  It runs over the
    slice angle t, w = d sin t and rho = d cos t, so dw = rho dt has no
    endpoint singularity even where R - r is small next to d.
    """
    w_full = np.sqrt(np.maximum(d * d - (R + r) ** 2, 0.0))
    w_in = np.sqrt(np.maximum(d * d - (R - r) ** 2, 0.0))
    lo = np.minimum(a, w_full)
    hi = np.minimum(a, w_in)
    radius = np.where(d > 0.0, d, 1.0)  # lo = hi = 0 at d = 0
    t_lo = np.arcsin(np.minimum(lo / radius, 1.0))
    t_hi = np.arcsin(np.minimum(hi / radius, 1.0))
    t = t_lo[:, None] + (t_hi - t_lo)[:, None] * _SLICE_PHI[None, :]
    rho = d[:, None] * np.cos(t)
    weights = (t_hi - t_lo)[:, None] * rho * _SLICE_DPHI_W[None, :]
    area, angle = _lens(rho, r, R)
    lens = np.sum(area * weights, axis=1)
    angle = np.sum(angle * weights, axis=1)
    inside = d * d * (a - hi) - (a**3 - hi**3) / 3.0  # int (d^2 - w^2) dw over [hi, a]
    return (
        math.pi * R * R * lo + lens + math.pi * inside,
        angle + 2.0 * math.pi * (a - hi),
    )


def receiver_distance_law(geom: CylinderGeometry, r: float, z: float, d):
    """CDF and density of the distance from the receiver at (r, z) to a uniform node.

    r is the receiver's distance from the axis and z its height.  The
    ball B(x, d) is cut into horizontal slices at offsets w from the
    receiver; the slice of radius sqrt(d^2 - w^2) meets the cylinder's
    cross-section in a circle-disk lens, so

        F_x(d) = int lens(w) dw / (pi R^2 H),
        f_x(d) = d int angle(w) dw / (pi R^2 H),

    the latter because the sphere's zone between two slices has area
    2 pi d dw (Archimedes) and a share angle / 2 pi of it lies inside.
    Both integrals run over w in [-min(z, d), min(H - z, d)].
    """
    R, H = geom.R, geom.H
    if not (0.0 <= r <= R and 0.0 <= z <= H):
        raise DomainError(f"receiver (r={r!r}, z={z!r}) outside the cylinder")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d < 0.0):
        raise DomainError("distances must be nonnegative")
    below = _slab(d, np.minimum(z, d), r, R)
    above = _slab(d, np.minimum(H - z, d), r, R)
    cdf = (below[0] + above[0]) / geom.volume
    pdf = d * (below[1] + above[1]) / geom.volume
    return cdf, pdf


def receiver_breakpoints(geom: CylinderGeometry, r: float, z: float) -> np.ndarray:
    """0, the distances where F_x changes form, and the largest distance d_max(x).

    The ball first touches the wall (R - r), the floor and ceiling (z,
    H - z) and the rims (their hypotenuses), and swallows a whole cross
    section at R + r; d_max(x) = hypot(R + r, max(z, H - z)).
    """
    R, H = geom.R, geom.H
    d_end = math.hypot(R + r, max(z, H - z))
    kinks = {R - r, R + r, z, H - z}
    kinks.update(math.hypot(a, b) for a in (R - r, R + r) for b in (z, H - z))
    return np.array([0.0] + sorted(k for k in kinks if 0.0 < k < d_end) + [d_end])


def _build_receiver_cdf(geom: CylinderGeometry, r: float, z: float) -> TabulatedDistribution:
    """Tabulate F_x for the receiver at (r, z).

    RECEIVER_GRID_SIZE knots span [0, d_max(x)], the breakpoints are
    added as knots (uniform knots closer than a quarter spacing to one
    are dropped), and one last cell, where F_x = 1, reaches the
    geometry's d_max so the table plugs into every pair-law consumer.
    """
    breaks = receiver_breakpoints(geom, r, z)
    uniform = np.linspace(0.0, breaks[-1], RECEIVER_GRID_SIZE)
    spacing = breaks[-1] / (RECEIVER_GRID_SIZE - 1)
    keep = np.ones(uniform.size, dtype=bool)
    for k in breaks[1:-1]:
        keep &= np.abs(uniform - k) > 0.25 * spacing
    keep[0] = keep[-1] = True
    grid = np.union1d(uniform[keep], breaks)
    F = np.maximum.accumulate(np.clip(receiver_distance_law(geom, r, z, grid)[0], 0.0, 1.0))
    # the ball contains the cylinder at d_max(x), so F is 1 there up to rounding
    F[0], F[-1] = 0.0, 1.0
    if grid[-1] < geom.d_max:
        grid = np.append(grid, geom.d_max)
        F = np.append(F, 1.0)
    return TabulatedDistribution(geom, grid, F)


@dataclass(frozen=True)
class ReceiverMixture:
    """Receiver-conditioned distance tables at the nodes of a receiver rule.

    nodes[q] = (r, z) is a receiver position, tables[q] its F_q and
    weights[q] its weight in the average over receiver positions (density
    2 r / R^2 in r and uniform in z, folded onto z <= H / 2 by symmetry;
    the weights sum to 1).  sum_q weights[q] F_q approximates the pair
    law.  check holds a coarser rule over the same geometry, against
    which results of this one are compared for an error estimate.
    """

    geometry: CylinderGeometry
    nodes: np.ndarray
    weights: np.ndarray
    tables: Tuple[TabulatedDistribution, ...]
    check: Optional["ReceiverMixture"] = None


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
    tables = tuple(_build_receiver_cdf(geom, ri, zj) for ri, zj in nodes)
    return ReceiverMixture(geom, nodes, weights, tables, check)


def build_receiver_cdfs(geom: CylinderGeometry) -> ReceiverMixture:
    """Receiver tables on the RECEIVER_RULE product Gauss rule.

    The rule is Gauss-Legendre in u = r^2 / R^2 on [0, 1] (uniform for a
    volume-uniform receiver) times Gauss-Legendre in z on [0, H / 2],
    with the larger node count on the longer of R and H / 2.  The
    returned mixture's check is the same construction on
    RECEIVER_CHECK_RULE.
    """
    check = _receiver_mixture(geom, RECEIVER_CHECK_RULE)
    return _receiver_mixture(geom, RECEIVER_RULE, check)
