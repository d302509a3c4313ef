"""Laplace transform of the aggregate interference and its derivatives."""

import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from conftest import (
    REGIME_GEOMETRIES,
    SQUAT,
    TALL,
    conditional_interferer_pdf,
    get_dist,
    get_mixture,
    inverse_cdf,
    receiver_table,
    tables_of,
)
from cylcov import (
    ChannelModel,
    DomainError,
    NetworkScenario,
    UnsupportedParameterError,
    build_cdf,
    laplace_with_derivatives,
)
import cylcov.distance
from cylcov.distance import RECEIVER_RULE, _gauss_on_panels, _panel_edges, _receiver_mixture
from cylcov.interference import _g_derivatives
from cylcov.simulation import substream


def scenario(N=10, m=2.0, alpha=3.0, geom=TALL, beta=1.0):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


def single_factor(t, l, j, dist, m=2.0):
    """j-th t-derivative of g(t | l): at N = 3 the transform is g itself."""
    return laplace_with_derivatives(t, l, scenario(N=3, m=m), dist)[j]


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
        assert lap.shape == (2,)
        with pytest.raises(IndexError):
            single_factor(1.0, 10.0, 2, tall_dist)
        with pytest.raises(DomainError):
            single_factor(-1.0, 10.0, 0, tall_dist)


class TestLaplaceDerivatives:
    def test_unit_value_at_zero(self, tall_dist):
        lap = laplace_with_derivatives(0.0, 0.3 * TALL.d_max, scenario(), tall_dist)
        assert lap[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_interferers_gives_unit_transform(self, tall_dist):
        sc = scenario(N=2, m=3.0)
        for t in (0.0, 1.0, 50.0):
            lap = laplace_with_derivatives(t, 0.5 * TALL.d_max, sc, tall_dist)
            assert lap.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("N", [2, 5])
    def test_arrays_give_a_row_per_order_of_their_broadcast_shape(self, tall_dist, N):
        sc = scenario(N=N, m=3.0)
        t, l = np.array([[0.0], [2.0], [40.0]]), np.array([0.2, 0.5]) * TALL.d_max
        lap = laplace_with_derivatives(t, l, sc, tall_dist)
        assert lap.shape == (3, 3, 2)
        for i, j in np.ndindex(3, 2):
            alone = laplace_with_derivatives(t[i, 0], l[j], sc, tall_dist)
            assert np.array_equal(lap[:, i, j], alone)

    @pytest.mark.parametrize("N", [2, 3])
    def test_geometry_mismatch_rejected_at_every_N(self, squat_dist, N):
        with pytest.raises(DomainError, match="tabulated distribution built for"):
            laplace_with_derivatives(1.0, 0.1 * TALL.d_max, scenario(N=N), squat_dist)

    def test_strictly_decreasing_in_t(self, tall_dist):
        sc = scenario(N=5, m=1.0)
        l = 0.2 * TALL.d_max
        ts = [0.0, 1.0, 10.0, 100.0, 1000.0]
        vals = [laplace_with_derivatives(t, l, sc, tall_dist)[0] for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_derivative_matches_spec_point_fd(self, squat_dist):
        # t = 2, l = 0.15 d_max, N = 10, m = 2, alpha = 3, squat geometry
        sc = scenario(N=10, m=2.0, geom=SQUAT)
        l = 0.15 * SQUAT.d_max
        t = 2.0
        h = 1e-4 * t
        analytic = laplace_with_derivatives(t, l, sc, squat_dist)[1]
        fd = (
            laplace_with_derivatives(t + h, l, sc, squat_dist)[0]
            - laplace_with_derivatives(t - h, l, sc, squat_dist)[0]
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
            fd = (lap_p[k - 1] - lap_m[k - 1]) / (2.0 * h)
            tol = max(1e-6, 1e-4 * abs(lap[k]))
            assert abs(lap[k] - fd) <= tol

    def test_complete_monotonicity_on_grid(self, tall_dist):
        sc = scenario(N=10, m=3.0)
        ls = np.linspace(0.05, 0.7, 10) * TALL.d_max
        ts = np.geomspace(0.1, 1e4, 10)
        for l in ls:
            for t in ts:
                lap = laplace_with_derivatives(float(t), float(l), sc, tall_dist)
                for k, d in enumerate(lap):
                    assert (-1.0) ** k * d >= 0.0, (t, l, k, d)

    def test_small_n_power_rule(self, tall_dist):
        # N = 3 leaves a single factor: L = g, L' = g', L'' = g''
        sc = scenario(N=3, m=3.0)
        l, t = 0.3 * TALL.d_max, 5.0
        lap = laplace_with_derivatives(t, l, sc, tall_dist)
        g = _g_derivatives(t, l, sc, tall_dist)
        for k in range(3):
            assert lap[k] == pytest.approx(g[k], rel=1e-12)

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
        assert lap[0] == pytest.approx(samples.mean(), abs=3.0 * stderr)

    def test_unsupported_shapes_are_rejected(self, tall_dist):
        with pytest.raises(UnsupportedParameterError):
            laplace_with_derivatives(1.0, 10.0, scenario(m=2.5), tall_dist)
        with pytest.raises(UnsupportedParameterError):
            laplace_with_derivatives(1.0, 10.0, scenario(m=6.0), tall_dist)

    def test_negative_argument_rejected(self, tall_dist):
        with pytest.raises(DomainError):
            laplace_with_derivatives(-0.5, 10.0, scenario(), tall_dist)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, tall_dist, t):
        with pytest.raises(DomainError, match=f"t={t!r}"):
            laplace_with_derivatives(t, 10.0, scenario(), tall_dist)
        with pytest.raises(DomainError, match=f"t={t!r}"):
            laplace_with_derivatives(np.array([1.0, t, -1.0]), 10.0, scenario(m=2.0), tall_dist)


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
        "axis": receiver_table(geom, 0.0, 0.25 * geom.H),
        "wall": receiver_table(geom, geom.R, 0.25 * geom.H),
    }
    for name, dist in tables.items():
        cell = dist.grid[1]
        median = float(np.interp(0.5, dist.cdf_values, dist.grid))
        for alpha in (3.0, 4.0):
            sc = scenario(N=10, m=float(m), alpha=alpha, geom=geom, beta=beta)
            for l in (0.3 * cell, cell, 3.0 * cell, median):
                t = m * beta * l**alpha
                g = _g_derivatives(t, l, sc, dist)
                terms = g * t ** np.arange(m) / [math.factorial(j) for j in range(m)]
                ref = _series_terms_by_cell_rule(dist, t, l, m, alpha)
                gap = np.max(np.abs(terms - ref))
                bound = 1e-10 if l >= 3.0 * cell else 1e-7
                assert gap <= bound, (name, alpha, l / cell, gap)


def gamma_rows(t, m):
    """rows_fn of the interferer integral: x^j (1 + t x / m)^(-m-j) for j < m, t per limit."""

    def rows_fn(x, sel):
        inv = 1.0 / (1.0 + (t[sel, None] / m) * x)
        return np.stack([x**j * inv ** (m + j) for j in range(m)])

    return rows_fn


def cell_rule_oracle(tables, which, lo, rows_fn, rows, alpha):
    """The interferer integral by the cell rule alone, one lower limit at a time.

    4 Gauss points on the rest of the limit's knot cell and on every full
    cell up to d_max, weighted by the tabulated density: the rule whose
    kernel the product panels interpolate, against which they are checked.
    """
    x, w = np.polynomial.legendre.leggauss(4)
    out = np.zeros((rows, lo.size))
    for i, (k, l) in enumerate(zip(which, lo)):
        grid = tables[k].grid
        cell = min(int(np.searchsorted(grid, l, side="right")) - 1, grid.size - 2)
        nodes, weights = _gauss_on_panels(np.concatenate(([l], grid[cell + 1 :])), x, w)
        weights = weights * tables[k].pdf(nodes)
        out[:, i] = np.sum(rows_fn(nodes[None] ** -alpha, [i])[:, 0] * weights, axis=-1)
    return out


@settings(max_examples=40, deadline=None)
@given(
    geom=st.sampled_from(REGIME_GEOMETRIES),
    receivers=st.booleans(),
    picks=st.lists(
        st.tuples(
            st.integers(0, 71),
            st.sampled_from(["edge", "below", "inside", "bottom", "last"]),
            st.integers(0, 10),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
        min_size=1,
        max_size=8,
    ),
    alpha=st.sampled_from([2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0]),
    log_beta=st.floats(-1.0, 3.0),
    m=st.integers(1, 5),
)
def test_panel_rule_matches_the_cell_rule(geom, receivers, picks, alpha, log_beta, m):
    # Lower limits at a panel edge, just below one, anywhere inside a panel
    # below the serving rule's end, below the lowest edge and in the last
    # cell above the survival floor, on receiver tables of one stack (so a
    # panel reading another table's weights shows) or on the pair table.
    # The panels, of ratio 2^(1/k) with k = ceil(alpha / 6), interpolate
    # the kernel only: a term (t / m)^j row_j / (1 - F(l)) of the series
    # moves by at most 1e-13 for alpha <= 4 and 1e-10 above.  Limits inside
    # a panel at m = 5, beta = 0.1 moved it by up to 7.4e-14 at alpha = 4
    # and 6.9e-11 at alpha = 6, where a pole of the kernel can sit beside
    # the panel; over this test's draws, 1.7e-14 and 3.0e-12.
    stack = get_mixture(geom) if receivers else get_dist(geom)
    tables = tables_of(stack)
    which, lo = [], []
    for k, kind, edge, frac in picks:
        k = k % len(tables)
        grid, edges = tables[k].grid, _panel_edges(tables[k], math.ceil(alpha / 6.0))
        p = edge % (edges.size - 1) if edges.size > 1 else 0
        e = edges[p]
        if kind == "edge":
            l = grid[e]
        elif kind == "below":
            l = grid[e] - frac * (grid[e] - grid[e - 1])
        elif kind == "inside":
            top = min(grid[edges[p + 1]], stack.ends[k])
            l = min(grid[e], top) + frac * (top - min(grid[e], top))
        elif kind == "bottom":
            l = frac * grid[edges[0]]
        else:
            last = int(np.searchsorted(grid, stack.ends[k]))
            l = grid[last - 1] + frac * (grid[last] - grid[last - 1])
        which.append(k)
        lo.append(l)
    which, lo = np.array(which), np.array(lo)
    t = m * 10.0**log_beta * lo**alpha
    rows_fn = gamma_rows(t, m)
    got = stack.take(which).integrate_pdf_product(lo, rows_fn, m, alpha)
    ref = cell_rule_oracle(tables, which, lo, rows_fn, m, alpha)
    survival = np.array([tables[k].sf(l) for k, l in zip(which, lo)])
    scale = (t / m) ** np.arange(m)[:, None] / survival
    gap = float(np.max(np.abs(got - ref) * scale))
    bound = 1e-13 if alpha <= 4.0 else 1e-10
    assert gap <= bound, (gap, alpha, m, log_beta)


@pytest.mark.parametrize("alpha", [3.0, 4.0, 12.0])
@pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
def test_partial_panel_starts_a_full_cell_above_the_limit(geom, alpha):
    # Lower limits inside a panel, less than a cell below or above a stored
    # knot (every 4th knot of a panel from its lower edge), on receiver
    # tables of a stack and on the pair table, at m = 5 and beta in
    # [0.1, 0.2].  A limit takes the cell rule up to the first stored knot
    # at least one full cell above its own cell; starting the partial panel
    # at the limit's first knot moved a term (t / m)^j row_j / (1 - F(l))
    # by up to 8e-14 at alpha = 4, against 9e-15 with the full cell.
    m, k = 5, math.ceil(alpha / 6.0)
    for stack in (get_mixture(geom), get_dist(geom)):
        tables, which, lo = tables_of(stack), [], []
        for table in range(0, len(tables), 9):
            grid, edges = tables[table].grid, _panel_edges(tables[table], k)
            for a, b in zip(edges[:-1], edges[1:]):
                last = a + 4 * ((b - a - 1) // 4)
                for q in {a + 4, a + 4 * ((b - a) // 8), last} - {a}:
                    for frac in (0.0, 0.5, 0.999):
                        lo += [grid[q - 1] + frac * (grid[q] - grid[q - 1]),
                               grid[q] + frac * (grid[q + 1] - grid[q])]
                        which += [table, table]
        which, lo = np.array(which), np.array(lo)
        live = lo < stack.ends[which]
        which, lo = which[live], lo[live]
        beta = 0.1 + 0.1 * np.linspace(0.0, 1.0, lo.size)
        t = m * beta * lo**alpha
        rows_fn = gamma_rows(t, m)
        got = stack.take(which).integrate_pdf_product(lo, rows_fn, m, alpha)
        ref = cell_rule_oracle(tables, which, lo, rows_fn, m, alpha)
        survival = np.array([tables[q].sf(l) for q, l in zip(which, lo)])
        gap = float(np.max(np.abs(got - ref) * (t / m) ** np.arange(m)[:, None] / survival))
        assert gap <= (1e-14 if alpha <= 4.0 else 1e-10), (gap, len(tables))


def test_integral_bits_do_not_depend_on_the_batch():
    # Each lower limit's row holds its own terms only, summed pairwise, so
    # its integral takes the same bits alone as among 400 others, on the
    # pair table and on a receiver stack.
    rng = np.random.default_rng(11)
    for stack in (get_dist(TALL), get_mixture(TALL)):
        which = rng.integers(0, stack.ends.size, 400)
        lo = rng.random(400) * stack.ends[which]
        for m, alpha in ((1, 3.0), (5, 4.0), (3, 8.0)):
            t = m * 10.0 * lo**alpha
            batched = stack.take(which).integrate_pdf_product(lo, gamma_rows(t, m), m, alpha)
            for i in range(0, lo.size, 7):
                rows_fn = gamma_rows(t[i : i + 1], m)
                alone = stack.take(which[i : i + 1]).integrate_pdf_product(lo[i : i + 1], rows_fn, m, alpha)
                assert np.array_equal(alone[:, 0], batched[:, i]), (m, alpha, lo[i])


class TestPanelLayouts:
    def test_built_once_per_ratio_and_shared_by_views(self, monkeypatch):
        # A fresh stack builds the layout of k = ceil(alpha / 6) on the first
        # integral that needs it, computing each table's edges once; every
        # view reads the same layouts, and an alpha = 8 call leaves the
        # alpha = 3 values as they were, bit for bit.
        stack = _receiver_mixture(TALL, RECEIVER_RULE)
        calls = []
        edges = cylcov.distance._panel_edges
        monkeypatch.setattr(cylcov.distance, "_panel_edges",
                            lambda table, k: calls.append(k) or edges(table, k))
        rng = np.random.default_rng(4)
        which = rng.integers(0, stack.ends.size, 40)
        lo = rng.uniform(0.0, TALL.d_max, 40)

        def integral(alpha, view):
            return view.integrate_pdf_product(lo, gamma_rows(30.0 * lo**alpha, 3), 3, alpha)

        before = integral(3.0, stack.take(which))
        integral(8.0, stack.take(which))
        integral(4.0, stack.take(which[::-1]))
        assert np.array_equal(integral(3.0, stack.take(which)), before)
        assert calls == [1] * stack.ends.size + [2] * stack.ends.size
        assert sorted(stack._layouts) == [1, 2]
        assert stack.take(0)._layouts is stack._layouts

    def test_racing_threads_build_each_layout_once(self, monkeypatch):
        # Sixteen threads ask one fresh stack for four ratios at once,
        # the last (k = 7 on a 64-knot table) with no panel left, while the
        # interpreter switches threads often: each layout is built once, and
        # every value equals that of a stack no other thread touched.
        stack = build_cdf(TALL, 64)
        calls = []
        edges = cylcov.distance._panel_edges

        def slow_edges(table, k):  # holds a build open while other threads arrive
            calls.append(k)
            time.sleep(0.01)
            return edges(table, k)

        monkeypatch.setattr(cylcov.distance, "_panel_edges", slow_edges)
        lo = np.linspace(0.0, TALL.d_max, 50)
        alphas = [3.0, 8.0, 20.0, 40.0] * 4

        start = threading.Barrier(len(alphas))

        def integral(target, alpha, wait=False):
            if wait:
                start.wait(timeout=60)
            return target.integrate_pdf_product(lo, gamma_rows(30.0 * lo**alpha, 2), 2, alpha)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(alphas)) as pool:
                futures = [pool.submit(integral, stack.take(0), alpha, True) for alpha in alphas]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [1, 2, 4, 7]
        fresh = build_cdf(TALL, 64)
        for alpha, value in zip(alphas, got):
            assert np.array_equal(value, integral(fresh, alpha))

    def test_layouts_past_the_last_panel_are_the_cell_rule(self):
        # On a 64-knot table the panels shrink with the ratio until none is
        # left: from that k on the layout holds no column and no stored
        # knot, and a limit in cell i takes the cell rule up to the top
        # edge, whatever order the sweep runs in.
        stack = get_dist(TALL, 64)
        for alpha in [*range(3, 301, 3), *range(300, 2, -7)]:
            stack._layout(math.ceil(alpha / 6.0))
        assert sorted(stack._layouts) == list(range(1, 51))
        panelled = sorted(k for k, held in stack._layouts.items() if held[0].size)
        assert panelled == list(range(1, len(panelled) + 1))
        assert 1 < len(panelled) < 10
        top = stack.grid.size - 1
        for k in range(len(panelled) + 1, 51):
            nodes, weights, partial, count, column, anchor = stack._layouts[k]
            assert nodes.shape == weights.shape == (1, 0) and partial.shape == (0, 24)
            assert np.array_equal(count[0], top - 1 - np.arange(top))
            assert not column.any() and np.all(anchor == -1)
        lo = np.linspace(0.0, TALL.d_max, 50, endpoint=False)
        rows_fn, alpha = gamma_rows(30.0 * lo**20.0, 2), 6.0 * (len(panelled) + 1)
        got = stack.take(0).integrate_pdf_product(lo, rows_fn, 2, alpha)
        ref = cell_rule_oracle([stack], np.zeros(lo.size, dtype=int), lo, rows_fn, 2, alpha)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
