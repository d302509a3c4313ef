"""Shared fixtures and oracles: each geometry's tables are built once per session.

A pair-distance CDF table takes milliseconds and a receiver mixture,
one blocked pass over the knots of each rule, about 0.1 s, but many
tests share them; ``receiver_table`` runs the same pass for one
receiver.  The Monte Carlo oracles of the pair law and of the Poisson
baseline live here, not in the library.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cylcov import (
    CylinderGeometry,
    NetworkScenario,
    SimulationEstimate,
    TabulatedDistribution,
    build_cdf,
    build_receiver_cdfs,
)
from cylcov.distance import _PANEL_MIN_CELLS, ReceiverMixture, _build_receiver_tables
from cylcov.network import _check_geometry, _conditioning_survival
from cylcov.simulation import (
    BLOCK_TRIALS,
    _binomial_estimate,
    _blocks,
    _check_count,
    _link_distances_squared,
    _pair_distance_blocks,
    substream,
)

SQUAT = CylinderGeometry(R=120.0, H=20.0)
TALL = CylinderGeometry(R=20.0, H=120.0)
CUBIC = CylinderGeometry(R=50.0, H=50.0)
NEEDLE = CylinderGeometry(R=10.0, H=200.0)

REGIME_GEOMETRIES = (SQUAT, TALL, CUBIC, NEEDLE)

_cache = {}
_mixtures = {}


def get_dist(geom, grid_size=2048):
    key = (geom, grid_size)
    if key not in _cache:
        _cache[key] = build_cdf(geom, grid_size)
    return _cache[key]


def get_mixture(geom):
    if geom not in _mixtures:
        _mixtures[geom] = build_receiver_cdfs(geom)
    return _mixtures[geom]


def receiver_table(geom, r, z):
    """The receiver table of (r, z) as a stack of one."""
    return TabulatedDistribution(geom, *_build_receiver_tables(geom, r, z)[0])


def tables_of(stack):
    """A view (``take``) of each table of a stack, in order."""
    return [stack.take(k) for k in range(stack.ends.size)]


def panel_edges(table, k):
    """Knot indices of the edges of one table's product panels of ratio 2^(1/k), ascending.

    The reference for the stack-wide ``_panel_edges``, one table at a time:
    the last is the knot where the CDF reaches its final value, and each one
    below is the first knot at or above 2^(-1/k) times the one above, while
    the panel between them holds more than _PANEL_MIN_CELLS cells.
    """
    grid, values, ratio = table.grid, table.cdf_values, 0.5 ** (1.0 / k)
    edges = [int(np.searchsorted(values, values[-1]))]
    while True:
        low = int(np.searchsorted(grid, ratio * grid[edges[-1]]))
        if edges[-1] - low <= _PANEL_MIN_CELLS:
            return np.array(edges[::-1])
        edges.append(low)


def sample_points(rng, geom, n):
    """n i.i.d. volume-uniform points, shape (n, 3), drawn as the simulator draws them.

    One (n, 3) uniform draw (rho, v, w) per point, placed at radius
    R sqrt(rho), angle 2 pi v and height H w: the Cartesian reference that
    the simulator's polar distance kernel is checked against.
    """
    u = rng.random((n, 3))
    r = geom.R * np.sqrt(u[:, 0])
    phi = 2.0 * math.pi * u[:, 1]
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), geom.H * u[:, 2]))


def one_shot_coverage_block(rng, group, size, unit):
    """Covered counts of one coverage block, with every array the size of the block.

    The oracle that the simulator's row-chunked block must match count for count.
    """
    N = group[0].N
    u = rng.random((size * N, 3)).reshape(size, N, 3)
    d2 = _link_distances_squared(u[:, 0], u[:, 1:], group[0].geom, unit)
    serving = np.argmin(d2, axis=1)
    after_positions = rng.bit_generator.state
    alphas = {sc.channel.alpha for sc in group}
    in_place = len(alphas) == 1  # then nothing else reads d2 or the gains
    path = {a: np.power(d2, -0.5 * a, out=d2 if in_place else None) for a in alphas}
    sir = {}
    for m in {sc.channel.m for sc in group}:
        rng.bit_generator.state = after_positions
        gains = rng.gamma(m, 1.0 / m, (size, N - 1))
        for alpha in {sc.channel.alpha for sc in group if sc.channel.m == m}:
            powers = np.multiply(gains, path[alpha], out=gains if in_place else None)
            signal = powers[np.arange(size), serving]
            sir[m, alpha] = signal, powers.sum(axis=1) - signal
    counts = []
    for sc in group:
        signal, interference = sir[sc.channel.m, sc.channel.alpha]
        counts.append(int(np.count_nonzero((interference == 0.0) | (signal > sc.beta * interference))))
    return counts


def sample_pair_distances(geom: CylinderGeometry, pairs: int, seed: int) -> np.ndarray:
    """Distances of i.i.d. uniform point pairs, for empirical CDF work."""
    _check_count("pairs", pairs)
    out = np.empty(pairs)
    for index, d in enumerate(_pair_distance_blocks(geom, pairs, seed)):
        out[index * BLOCK_TRIALS : index * BLOCK_TRIALS + d.size] = d
    return out


def simulate_ppp_coverage(scenario: NetworkScenario, trials: int, seed: int) -> SimulationEstimate:
    """Monte Carlo coverage in the scenario's homogeneous Poisson field, truncated at d_max.

    Points fall as a Poisson process of the matched intensity
    lam = N / (pi R^2 H) inside a cylinder of radius M and half-height M
    centered on the receiver, where M = d_max of the scenario's cylinder,
    so the region holds the ball of radius M about the receiver.  How far
    that truncation moves coverage depends on the path-loss exponent (the
    far-field error decays like M^(3 - alpha)); ``tests/test_ppp.py``
    bounds it by quadrature over that ball: 1.3e-5 at alpha = 8, while at
    alpha <= 3 coverage keeps falling as M grows.  Distances are in the
    caller's unit, so d^-alpha leaves the float range in a cylinder far
    from unit size; no test builds one.

    Trials with an empty field count as not covered; a single point in
    the field has no interferer and counts as covered.  Blocks are those
    of ``simulate_coverage``, each on its own substream.
    """
    _check_count("trials", trials)
    M = scenario.geom.d_max
    lam_v = scenario.N / scenario.geom.volume * (math.pi * M * M * (2.0 * M))  # lam * volume
    m = scenario.channel.m
    successes = 0
    for index, size in _blocks(trials):
        rng = substream(seed, index)
        counts = rng.poisson(lam_v, size)
        total = int(counts.sum())
        if total == 0:
            continue
        u = rng.random((total, 3))
        r = M * np.sqrt(u[:, 0])
        z = M * (2.0 * u[:, 2] - 1.0)
        d = np.sqrt(r * r + z * z)
        gains = rng.gamma(m, 1.0 / m, total)
        powers = gains * d ** (-scenario.channel.alpha)
        # Segmented nearest point: sort by (owner, distance); the head of each
        # nonempty trial's segment sits where its points start.
        starts = (np.cumsum(counts) - counts)[counts > 0]
        order = np.lexsort((d, np.repeat(np.arange(size), counts)))
        signal = powers[order[starts]]
        interference = np.add.reduceat(powers, starts) - signal
        covered = (interference == 0.0) | (signal > scenario.beta * interference)
        successes += int(np.count_nonzero(covered))
    p, ci = _binomial_estimate(successes, trials)
    return SimulationEstimate(p, float(ci), trials, seed, scenario)


def inverse_cdf(dist, u, l=0.0):
    """Distances of law dist conditioned on being at least l, from uniforms u.

    Linear in the knot table: its bias is far below Monte Carlo noise at oracle sizes.
    """
    fl = dist.cdf(l)
    return np.interp(fl + u * (1.0 - fl), dist.cdf_values, dist.grid)


def serving_distance_pdf(l, scenario, dist):
    """Density of the serving distance, (N-1) (1 - F(l))^(N-2) f(l), at scalar or array l.

    The nearest of N - 1 i.i.d. pair distances; for N = 2 the pair density itself.
    """
    _check_geometry(scenario.geom, dist)
    n = scenario.N
    return (n - 1) * np.power(dist.sf(l), n - 2) * dist.pdf(l)


def serving_distance_cdf(l, scenario, dist):
    """CDF of the serving distance, 1 - (1 - F(l))^(N-1)."""
    _check_geometry(scenario.geom, dist)
    return 1.0 - np.power(dist.sf(l), scenario.N - 1)


def conditional_interferer_pdf(u, l, dist):
    """Density of one interferer distance given serving distance l: f(u) / (1 - F(l)) for u >= l.

    Zero below l.  Conditioning where 1 - F(l) is below the survival floor
    raises DegenerateConditionError, and l outside [0, d_max) DomainError.
    """
    l = float(l)
    survival = _conditioning_survival(l, dist)
    u_arr = np.asarray(u, dtype=float)
    out = np.where(u_arr < l, 0.0, dist.pdf(u_arr) / survival)
    return float(out) if np.ndim(u) == 0 else out


@dataclass(frozen=True)
class Ball:
    """A ball as the analytic path may see a geometry: d_max, twice its radius, and equality."""

    d_max: float


def ball_pair_law(ball: Ball, l):
    """CDF and density of the distance of two uniform points in a ball (Hammersley, 1950).

    F = 8 x^3 - 9 x^4 + 2 x^6 with x = l / 2R clipped to [0, 1]; the
    density, dF/dl, is clipped at 0 for rounding at 2R.
    """
    x = np.clip(np.asarray(l, dtype=float) / ball.d_max, 0.0, 1.0)
    cdf = x**3 * (8.0 - 9.0 * x + 2.0 * x**3)
    return cdf, np.maximum(x * x * (24.0 - 36.0 * x + 12.0 * x**3) / ball.d_max, 0.0)


class BallPairTable(TabulatedDistribution):
    """The ball's pair law as a stack of one: its closed form at 2,048 knots, and as serving law."""

    def __init__(self, ball: Ball, knots: int = 2048):
        grid = np.linspace(0.0, ball.d_max, knots)
        super().__init__(ball, grid, *ball_pair_law(ball, grid))

    def serving_law(self, which, l):
        return ball_pair_law(self.geometry, l)


def ball_receiver_law(ball: Ball, s, d):
    """CDF and density of the distance from a receiver at radius s in a ball to a uniform point.

    With R the ball's radius, F = d^3 / R^3 up to R - s; from there to
    R + s, where the sphere of radius d cuts the ball's surface,
    F = (R + d - s)^2 (s^2 + 2 s d - 3 d^2 + 2 s R + 6 d R - 3 R^2) / (16 s R^3)
    and f = 3 d (R^2 - (d - s)^2) / (4 s R^3) (the volume of two
    intersecting balls over the ball's); past R + s, F = 1 and f = 0.
    s and d broadcast.
    """
    R = 0.5 * ball.d_max
    s, d = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(d, dtype=float))
    inner, beyond = d <= R - s, d >= R + s
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 has no cut range
        cut = (R + d - s) ** 2 * (s * s + 2 * s * d - 3 * d * d + 2 * s * R + 6 * d * R - 3 * R * R)
        cdf = np.where(inner, (d / R) ** 3, np.where(beyond, 1.0, cut / (16.0 * s * R**3)))
        pdf = np.where(inner, 3.0 * d * d / R**3,
                       np.where(beyond, 0.0, 3.0 * d * (R * R - (d - s) ** 2) / (4.0 * s * R**3)))
    return np.clip(cdf, 0.0, 1.0), np.maximum(pdf, 0.0)


class BallMixture(ReceiverMixture):
    """Ball receiver tables at the nodes of a Gauss rule in the receiver's radius s.

    Built through the public constructor.  The receivers' radii s are the
    Gauss-Legendre nodes on [0, R], stored as nodes (s, 0) and weighted by
    the radius density 3 s^2 / R^3; each table is the closed-form law at
    knots uniform on [0, R + s] plus R - s, ending where it reaches 1.
    Each receiver's kinks are 0, R - s and R + s.  A rule in u = (s / R)^3,
    uniform for a volume-uniform receiver, converges slowly: coverage is
    even in s, so not smooth in u at 0.
    """

    def __init__(self, ball: Ball, receivers: int, knots: int = 256, check=None):
        R = 0.5 * ball.d_max
        x, w = np.polynomial.legendre.leggauss(receivers)
        s = 0.5 * R * (x + 1.0)
        tables = []
        for si in s:
            grid = np.union1d(np.linspace(0.0, R + si, knots), R - si)
            tables.append((grid, *ball_receiver_law(ball, si, grid)))
        nodes = np.column_stack((s, np.zeros_like(s)))
        super().__init__(ball, nodes, 1.5 * w * s * s / R**2, tables, check)

    @property
    def kinks(self):
        s, R = self.nodes[:, 0], 0.5 * self.geometry.d_max
        return np.column_stack((np.zeros_like(s), R - s, R + s))


class BallLawMixture(BallMixture):
    """A ``BallMixture`` that serves the closed-form law, not its tables, at serving distances."""

    def serving_law(self, which, l):
        return ball_receiver_law(self.geometry, self.nodes[which, 0], l)


def _ball_points(rng, R: float, shape):
    """Uniform points in the ball of radius R about the origin, of shape (*shape, 3)."""
    normal = rng.standard_normal((*shape, 3))
    radius = R * rng.random((*shape, 1)) ** (1.0 / 3.0)
    return radius * normal / np.linalg.norm(normal, axis=-1, keepdims=True)


def simulate_ball_coverage(scenario: NetworkScenario, trials: int, seed: int, iid: bool = False):
    """Covered share and its standard error over deployments of N uniform points in a ball.

    The first point is the receiver, the other N - 1 transmit with
    Nakagami power gains Gamma(m, 1 / m).  With iid, the paper's model:
    each trial draws its N - 1 receiver distances from independent pairs of
    uniform points in the ball instead.
    """
    R, n, rng = 0.5 * scenario.geom.d_max, scenario.N - 1, np.random.default_rng(seed)
    alpha, m = scenario.channel.alpha, scenario.channel.m
    covered = 0
    for start in range(0, trials, 4096):
        size = min(4096, trials - start)
        if iid:
            points = _ball_points(rng, R, (2, size, n))
            d = np.linalg.norm(points[0] - points[1], axis=-1)
        else:
            points = _ball_points(rng, R, (size, n + 1))
            d = np.linalg.norm(points[:, 1:] - points[:, :1], axis=-1)
        powers = rng.gamma(m, 1.0 / m, (size, n)) * d**-alpha
        signal = powers[np.arange(size), np.argmin(d, axis=1)]
        covered += int(np.count_nonzero(signal > scenario.beta * (powers.sum(axis=1) - signal)))
    p = covered / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


@pytest.fixture(scope="session")
def dist_for():
    return get_dist


@pytest.fixture(scope="session")
def squat_dist():
    return get_dist(SQUAT)


@pytest.fixture(scope="session")
def tall_dist():
    return get_dist(TALL)


@pytest.fixture(scope="session")
def squat_mixture():
    return get_mixture(SQUAT)


@pytest.fixture(scope="session")
def tall_mixture():
    return get_mixture(TALL)
