"""Laplace transform of the aggregate interference and its derivatives."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from conftest import REGIME_GEOMETRIES, SQUAT, TALL, get_dist, inverse_cdf
from cylcov import (
    ChannelModel,
    DomainError,
    NetworkScenario,
    UnsupportedParameterError,
    conditional_interferer_pdf,
    laplace_with_derivatives,
)
from cylcov.distance import _build_receiver_cdf
from cylcov.interference import _g_derivatives
from cylcov.simulation import substream


def scenario(N=10, m=2.0, alpha=3.0, geom=TALL, beta=1.0):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


def single_factor(t, l, j, dist, m=2.0):
    """j-th t-derivative of g(t | l): at N = 3 the transform is g itself."""
    return laplace_with_derivatives(t, l, scenario(N=3, m=m), dist).derivatives[j]


class TestInnerIntegral:
    def test_unit_at_zero_argument(self, tall_dist):
        for l in (0.1 * TALL.d_max, 0.4 * TALL.d_max):
            assert single_factor(0.0, l, 0, tall_dist) == pytest.approx(1.0, abs=1e-9)

    def test_first_derivative_at_zero_is_negative_mean_kernel(self, tall_dist):
        l = 0.25 * TALL.d_max
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            mean_kernel, _ = quad(
                lambda u: u ** (-3.0) * conditional_interferer_pdf(u, l, tall_dist),
                l,
                TALL.d_max,
                epsabs=1e-12,
                limit=400,
            )
        assert single_factor(0.0, l, 1, tall_dist) == pytest.approx(
            -mean_kernel, abs=1e-9
        )

    def test_monte_carlo_expectation_oracle(self, tall_dist):
        # single-interferer transform vs direct (U, G) sampling
        sc = scenario(N=10, m=2.0, alpha=3.0)
        l = 0.2 * TALL.d_max
        t = sc.channel.m * sc.beta * l**3
        rng = substream(555, 0)
        n = 1_000_000
        u = inverse_cdf(tall_dist, rng.random(n), l)
        g = rng.gamma(sc.channel.m, 1.0 / sc.channel.m, n)
        samples = np.exp(-t * g * u**-3.0)
        stderr = samples.std() / math.sqrt(n)
        assert single_factor(t, l, 0, tall_dist) == pytest.approx(
            samples.mean(), abs=3.0 * stderr
        )

    def test_value_in_unit_interval(self, tall_dist):
        for t in (0.0, 1.0, 1e3, 1e7):
            g = single_factor(t, 0.3 * TALL.d_max, 0, tall_dist)
            assert 0.0 < g <= 1.0

    def test_upper_limit_extension_changes_nothing(self, tall_dist):
        # density vanishes beyond d_max, so integrating further is a no-op
        l = 0.2 * TALL.d_max
        t = 2.0
        inner = single_factor(t, l, 0, tall_dist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            extended, _ = quad(
                lambda u: (1.0 + t * u**-3.0 / 2.0) ** -2.0
                * conditional_interferer_pdf(u, l, tall_dist),
                l,
                2.0 * TALL.d_max,
                epsabs=1e-11,
                limit=400,
            )
        assert inner == pytest.approx(extended, abs=1e-8)

    def test_order_and_argument_validation(self, tall_dist):
        # orders 0 .. m - 1 and no more
        lap = laplace_with_derivatives(1.0, 10.0, scenario(N=3, m=2.0), tall_dist)
        assert len(lap.derivatives) == 2
        with pytest.raises(IndexError):
            single_factor(1.0, 10.0, 2, tall_dist)
        with pytest.raises(DomainError):
            single_factor(-1.0, 10.0, 0, tall_dist)


class TestLaplaceDerivatives:
    def test_unit_value_at_zero(self, tall_dist):
        lap = laplace_with_derivatives(0.0, 0.3 * TALL.d_max, scenario(), tall_dist)
        assert lap.value == pytest.approx(1.0, abs=1e-12)
        assert lap.derivatives[0] == lap.value

    def test_no_interferers_gives_unit_transform(self, tall_dist):
        sc = scenario(N=2, m=3.0)
        for t in (0.0, 1.0, 50.0):
            lap = laplace_with_derivatives(t, 0.5 * TALL.d_max, sc, tall_dist)
            assert lap.value == 1.0
            assert lap.derivatives == (1.0, 0.0, 0.0)

    def test_strictly_decreasing_in_t(self, tall_dist):
        sc = scenario(N=5, m=1.0)
        l = 0.2 * TALL.d_max
        ts = [0.0, 1.0, 10.0, 100.0, 1000.0]
        vals = [laplace_with_derivatives(t, l, sc, tall_dist).value for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_derivative_matches_spec_point_fd(self, squat_dist):
        # t = 2, l = 0.15 d_max, N = 10, m = 2, alpha = 3, squat geometry
        sc = scenario(N=10, m=2.0, geom=SQUAT)
        l = 0.15 * SQUAT.d_max
        t = 2.0
        h = 1e-4 * t
        analytic = laplace_with_derivatives(t, l, sc, squat_dist).derivatives[1]
        fd = (
            laplace_with_derivatives(t + h, l, sc, squat_dist).value
            - laplace_with_derivatives(t - h, l, sc, squat_dist).value
        ) / (2.0 * h)
        assert analytic == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m", [2.0, 3.0, 5.0])
    def test_derivative_ladder_against_finite_differences(self, tall_dist, m):
        sc = scenario(N=8, m=m)
        l = 0.25 * TALL.d_max
        t = 0.5 * sc.channel.m * l**3  # representative transform argument
        h = 1e-4 * t
        orders = int(m)
        lap = laplace_with_derivatives(t, l, sc, tall_dist)
        lap_p = laplace_with_derivatives(t + h, l, sc, tall_dist)
        lap_m = laplace_with_derivatives(t - h, l, sc, tall_dist)
        for k in range(1, orders):
            fd = (lap_p.derivatives[k - 1] - lap_m.derivatives[k - 1]) / (2.0 * h)
            tol = max(1e-6, 1e-4 * abs(lap.derivatives[k]))
            assert abs(lap.derivatives[k] - fd) <= tol

    def test_complete_monotonicity_on_grid(self, tall_dist):
        sc = scenario(N=10, m=3.0)
        ls = np.linspace(0.05, 0.7, 10) * TALL.d_max
        ts = np.geomspace(0.1, 1e4, 10)
        for l in ls:
            for t in ts:
                lap = laplace_with_derivatives(float(t), float(l), sc, tall_dist)
                for k, d in enumerate(lap.derivatives):
                    assert (-1.0) ** k * d >= 0.0, (t, l, k, d)

    def test_small_n_power_rule(self, tall_dist):
        # N = 3 leaves a single factor: L = g, L' = g', L'' = g''
        sc = scenario(N=3, m=3.0)
        l, t = 0.3 * TALL.d_max, 5.0
        lap = laplace_with_derivatives(t, l, sc, tall_dist)
        g = _g_derivatives(t, l, sc, tall_dist, 3)
        for k in range(3):
            assert lap.derivatives[k] == pytest.approx(g[k], rel=1e-12)

    def test_monte_carlo_transform_equivalence(self, tall_dist):
        # empirical mean of e^{-tI} over conditioned draws, small network
        sc = scenario(N=5, m=2.0)
        l = 0.2 * TALL.d_max
        t = sc.channel.m * sc.beta * l**3
        lap = laplace_with_derivatives(t, l, sc, tall_dist)
        rng = substream(2718, 0)
        n = 1_000_000
        interferers = sc.N - 2
        u = inverse_cdf(tall_dist, rng.random((n, interferers)), l)
        g = rng.gamma(sc.channel.m, 1.0 / sc.channel.m, (n, interferers))
        samples = np.exp(-t * (g * u**-3.0).sum(axis=1))
        stderr = samples.std() / math.sqrt(n)
        assert lap.value == pytest.approx(samples.mean(), abs=3.0 * stderr)

    def test_unsupported_shapes_are_rejected(self, tall_dist):
        with pytest.raises(UnsupportedParameterError):
            laplace_with_derivatives(1.0, 10.0, scenario(m=2.5), tall_dist)
        with pytest.raises(UnsupportedParameterError):
            laplace_with_derivatives(1.0, 10.0, scenario(m=6.0), tall_dist)

    def test_negative_argument_rejected(self, tall_dist):
        with pytest.raises(DomainError):
            laplace_with_derivatives(-0.5, 10.0, scenario(), tall_dist)


def _series_terms_by_cell_rule(dist, t, l, m, alpha, order=16):
    """t^j g^(j)(t | l) / j! for j < m, by an order-`order` Gauss rule on every knot cell.

    These are the terms of the coverage series; with y = t u^-alpha / m each
    is (-1)^j (m)_j / j! times the mean of y^j (1 + y)^(-m-j) over u >= l.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([l], dist.grid[dist.grid > l]))
    halves = 0.5 * np.diff(edges)
    u = (0.5 * (edges[1:] + edges[:-1]))[:, None] + halves[:, None] * x
    weights = halves[:, None] * w * dist.pdf(u)
    y = t / m * u**-alpha
    terms = []
    for j in range(m):
        rising = math.prod(range(m, m + j))
        mean = np.sum(weights * y**j * (1.0 + y) ** (-m - j)) / dist.sf(l)
        terms.append((-1.0) ** j * rising / math.factorial(j) * mean)
    return np.array(terms)


@pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
def test_cell_rule_matches_a_finer_rule(geom):
    # The steepest kernel the analytic path takes (m = 5, beta = 10), at
    # serving distances a fraction of a knot cell to a few cells from 0
    # and at the median, against the pair table and the receiver tables
    # on the axis and at the wall.  Within the first cell the kernel falls
    # from (1 + beta)^-m to near 1 across it, and 4 points per cell leave
    # up to 4e-8 there (order 3: 2e-7); from three cells on they leave
    # 2e-11 (order 3: 6e-10).  The serving density puts a mass of order
    # (cell / d_max)^3 on the first cells, so coverage moves far less.
    m, beta = 5, 10.0
    tables = {
        "pair": get_dist(geom),
        "axis": _build_receiver_cdf(geom, 0.0, 0.25 * geom.H),
        "wall": _build_receiver_cdf(geom, geom.R, 0.25 * geom.H),
    }
    for name, dist in tables.items():
        cell = dist.grid[1]
        median = float(np.interp(0.5, dist.cdf_values, dist.grid))
        for alpha in (3.0, 4.0):
            sc = scenario(N=10, m=float(m), alpha=alpha, geom=geom, beta=beta)
            for l in (0.3 * cell, cell, 3.0 * cell, median):
                t = m * beta * l**alpha
                g = _g_derivatives(t, l, sc, dist, m)
                terms = g * t ** np.arange(m) / [math.factorial(j) for j in range(m)]
                ref = _series_terms_by_cell_rule(dist, t, l, m, alpha)
                gap = np.max(np.abs(terms - ref))
                bound = 1e-10 if l >= 3.0 * cell else 1e-7
                assert gap <= bound, (name, alpha, l / cell, gap)
