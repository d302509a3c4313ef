"""Pair-distance densities: building blocks, convolution, closed form, tables."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import kstest

from conftest import (
    CUBIC,
    NEEDLE,
    REGIME_GEOMETRIES,
    SQUAT,
    TALL,
    get_dist,
    get_mixture,
    receiver_table,
    sample_pair_distances,
    sample_points,
    tables_of,
)
from cylcov import (
    CylinderGeometry,
    DomainError,
    StaleCacheError,
    TabulatedDistribution,
    build_cdf,
    build_receiver_cdfs,
    cylinder_pair_pdf_closed,
    cylinder_pair_pdf_numeric,
    disk_pair_pdf,
    segment_pair_pdf,
)
from cylcov.distance import (
    RECEIVER_GRID_SIZE,
    RECEIVER_RULE,
    PairTable,
    ReceiverMixture,
    _disk_pair_cdf,
    _receiver_mixture,
    _slab,
    pair_distance_law,
    receiver_breakpoints,
    receiver_distance_law,
)
from cylcov.simulation import substream


def quiet_quad(fn, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, a, b, **kw)
    return val


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_slopes(grid, values, densities):
    """Knot by knot, min(density, 3 x the smaller secant of the knot's cells), as a list."""
    secants = [(values[i + 1] - values[i]) / (grid[i + 1] - grid[i]) for i in range(len(grid) - 1)]
    return [min(d, 3.0 * min(secants[max(i - 1, 0) : i + 1])) for i, d in enumerate(densities)]


def assert_monotone_cubics(stack):
    """Each table's raw cubic density, at 31 points per cell from its left knot, is monotone.

    Monotone up to rounding: at or above -1e-15 times the table's largest slope.
    """
    for t, table in enumerate(tables_of(stack)):
        grid, slopes = table.grid, table.slopes
        x = grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(31) / 31)
        cells = np.broadcast_to(stack._first_cell[t] + np.arange(grid.size - 1)[:, None], x.shape)
        least = np.min(stack._pdf_at(x, cells))
        assert least >= -1e-15 * np.max(slopes), (t, least)


class TestDiskPairPdf:
    def test_zero_at_origin(self):
        assert disk_pair_pdf(0.0, 5.0) == 0.0

    def test_zero_at_diameter(self):
        assert disk_pair_pdf(10.0, 5.0) == 0.0

    def test_mid_value(self):
        expected = 4.0 / math.pi * (math.acos(0.5) - 0.5 * math.sqrt(0.75))
        assert disk_pair_pdf(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert disk_pair_pdf(1.0, 1.0) == pytest.approx(0.7820044379115415, rel=1e-12)

    def test_normalization(self):
        mass = quiet_quad(disk_pair_pdf, 0.0, 6.0, args=(3.0,), limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            disk_pair_pdf(-0.5, 1.0)
        with pytest.raises(DomainError):
            disk_pair_pdf(0.5, -1.0)


class TestSegmentPairPdf:
    def test_at_zero(self):
        assert segment_pair_pdf(0.0, 10.0) == pytest.approx(0.2, rel=1e-15)

    def test_at_end(self):
        assert segment_pair_pdf(10.0, 10.0) == 0.0

    def test_normalization(self):
        mass = quiet_quad(segment_pair_pdf, 0.0, 7.0, args=(7.0,))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            segment_pair_pdf(-1.0, 2.0)
        with pytest.raises(DomainError):
            segment_pair_pdf(1.0, 0.0)


class TestNumericPdf:
    def test_zero_at_origin_and_dmax(self):
        assert cylinder_pair_pdf_numeric(0.0, SQUAT) == 0.0
        assert cylinder_pair_pdf_numeric(SQUAT.d_max, SQUAT) == 0.0
        assert cylinder_pair_pdf_numeric(-1.0, SQUAT) == 0.0
        assert cylinder_pair_pdf_numeric(SQUAT.d_max + 1.0, SQUAT) == 0.0

    def test_nan_distance_raises(self):
        for l in (math.nan, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(DomainError, match="NaN"):
                cylinder_pair_pdf_numeric(l, SQUAT)
            with pytest.raises(DomainError, match="NaN"):
                pair_distance_law(SQUAT, l)

    def test_infinite_distances_lie_outside_the_support(self):
        F, f = pair_distance_law(SQUAT, np.array([-math.inf, math.inf]))
        assert F.tolist() == [0.0, 1.0] and f.tolist() == [0.0, 0.0]
        assert cylinder_pair_pdf_numeric(math.inf, SQUAT) == 0.0

    def test_memory_is_bounded(self):
        # 10^5 distances: a rule applied to all at once peaks near 180 MB.
        l = np.linspace(0.0, TALL.d_max, 100_000)
        assert traced_peak(lambda: cylinder_pair_pdf_numeric(l, TALL)) <= 8e6

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_normalization(self, geom):
        kinks = sorted({min(2.0 * geom.R, geom.d_max), min(geom.H, geom.d_max)})
        mass = quiet_quad(
            cylinder_pair_pdf_numeric,
            0.0,
            geom.d_max,
            args=(geom,),
            points=kinks,
            limit=400,
            epsabs=1e-10,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        for l in np.linspace(0.0, TALL.d_max, 200):
            assert cylinder_pair_pdf_numeric(float(l), TALL) >= 0.0

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_fixed_rule_matches_closed_form(self, geom):
        # The 32-node rule agrees with the closed form within about 1e-12
        # in every regime, including 1e-7 d_max from the regime edges.
        for regime, pts in _regime_points(geom).items():
            worst = max(
                abs(cylinder_pair_pdf_closed(float(l), geom) - cylinder_pair_pdf_numeric(float(l), geom))
                for l in pts
            )
            assert worst <= 1e-11, f"regime {regime} deviates by {worst}"


class TestArrayForms:
    """The three densities on arrays equal their per-element calls bit for bit."""

    @staticmethod
    def _distances(geom):
        marks = [0.0, 2.0 * geom.R, geom.H, geom.d_max, np.nextafter(geom.d_max, 0.0),
                 1.1 * geom.d_max, geom.d_max + 1.0]
        return np.concatenate([marks, *_regime_points(geom, per_regime=16).values()])

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_numeric_density(self, geom):
        l = np.concatenate([[-1.0], self._distances(geom)])
        batched = cylinder_pair_pdf_numeric(l, geom)
        single = [cylinder_pair_pdf_numeric(float(x), geom) for x in l]
        assert all(type(v) is float for v in single)
        assert batched.shape == l.shape and np.array_equal(batched, single)
        assert np.array_equal(pair_distance_law(geom, l)[1], batched)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_component_densities(self, geom):
        x = self._distances(geom)
        for density, size in ((disk_pair_pdf, geom.R), (segment_pair_pdf, geom.H)):
            batched = density(x, size)
            single = [density(float(v), size) for v in x]
            assert all(type(v) is float for v in single)
            assert batched.shape == x.shape and np.array_equal(batched, single), density

    def test_negative_entry_raises(self):
        for density in (disk_pair_pdf, segment_pair_pdf):
            with pytest.raises(DomainError, match="-0.5"):
                density(np.array([0.0, 1.0, -0.5, 2.0]), 3.0)

    def test_nan_distance_raises(self):
        # the laws that check for negative distances let NaN through
        for l in (math.nan, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(DomainError, match="v=nan"):
                disk_pair_pdf(l, 20.0)
            with pytest.raises(DomainError, match="z=nan"):
                segment_pair_pdf(l, 120.0)
            with pytest.raises(DomainError, match="NaN"):
                receiver_distance_law(TALL, 5.0, 60.0, l)


def _regime_points(geom, per_regime=128):
    """Sample points inside each of the four dispatch regimes."""
    bounds = sorted({0.0, min(2.0 * geom.R, geom.d_max), min(geom.H, geom.d_max), geom.d_max})
    out = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 1e-9:
            continue
        mid = 0.5 * (lo + hi)
        regime = (mid > 2.0 * geom.R, mid > geom.H)
        pts = np.linspace(lo + 1e-7 * geom.d_max, hi - 1e-7 * geom.d_max, per_regime)
        out[regime] = pts
    return out


class TestClosedForm:
    def test_outside_support_returns_zero(self):
        assert cylinder_pair_pdf_closed(-0.1, SQUAT) == 0.0
        assert cylinder_pair_pdf_closed(SQUAT.d_max + 1e-6, SQUAT) == 0.0
        # regime corner beyond d_max: R=20, H=20, l=45 lies past sqrt(2000)
        tiny = CylinderGeometry(R=20.0, H=20.0)
        assert cylinder_pair_pdf_closed(45.0, tiny) == 0.0
        assert cylinder_pair_pdf_numeric(45.0, tiny) == 0.0

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_matches_numeric_in_every_regime(self, geom):
        for regime, pts in _regime_points(geom).items():
            worst = max(
                abs(cylinder_pair_pdf_closed(float(l), geom) - cylinder_pair_pdf_numeric(float(l), geom))
                for l in pts
            )
            assert worst <= 1e-6, f"regime {regime} deviates by {worst}"

    def test_spec_regime_examples(self):
        # one point per quoted regime example, against the convolution oracle
        cases = [
            (min(2 * SQUAT.R, SQUAT.H) / 2.0, SQUAT),   # l <= 2R, l <= H
            (60.0, TALL),                                # 2R < l <= H
            (150.0, SQUAT),                              # H < l <= 2R
            (124.0, TALL),                               # l > 2R, l > H
        ]
        for l, geom in cases:
            assert cylinder_pair_pdf_closed(l, geom) == pytest.approx(
                cylinder_pair_pdf_numeric(l, geom), abs=1e-6
            )

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_continuity_across_regime_boundaries(self, geom):
        eps = 1e-6
        for boundary in (2.0 * geom.R, geom.H):
            if not (eps < boundary < geom.d_max - eps):
                continue
            left = cylinder_pair_pdf_closed(boundary - eps, geom)
            right = cylinder_pair_pdf_closed(boundary + eps, geom)
            assert abs(left - right) <= 1e-5

    def test_boundary_points_evaluate_finite(self):
        # exact boundaries dispatch to the "<=" branch and must not blow up
        for geom in REGIME_GEOMETRIES:
            for boundary in (2.0 * geom.R, geom.H):
                if 0.0 < boundary < geom.d_max:
                    value = cylinder_pair_pdf_closed(boundary, geom)
                    assert math.isfinite(value) and value >= 0.0


class TestKnotDensities:
    GEOM = CylinderGeometry(R=3.0, H=4.0)  # d_max = 7.2111
    GRID = np.linspace(0.0, GEOM.d_max, 5)
    VALUES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "densities, match",
        [(np.full(4, 0.1), "shape"), (np.array([0.1, 0.1, -1e-300, 0.1, 0.1]), "nonnegative"),
         (np.array([0.1, 0.1, np.nan, 0.1, 0.1]), "finite"),
         (np.array([0.1, 0.1, np.inf, 0.1, 0.1]), "finite")],
    )
    def test_invalid_densities_raise(self, densities, match):
        with pytest.raises(DomainError, match=match):
            TabulatedDistribution(self.GEOM, self.GRID, self.VALUES, densities)

    def test_limit_clamps_a_slope_above_three_secants(self):
        # secant 0.139 on every cell; a slope of 1 at the middle knot would
        # make both neighbouring cubics overshoot, so their densities would
        # dip below 0 between the knots: the limit holds it to 3 secants
        secants = np.diff(self.VALUES) / np.diff(self.GRID)
        densities = np.array([secants[0], secants[0], 1.0, secants[0], secants[0]])
        table = TabulatedDistribution(self.GEOM, self.GRID, self.VALUES, densities)
        assert table.slopes[2] == 3.0 * min(secants[1], secants[2])
        assert np.array_equal(table.slopes[[0, 1, 3, 4]], densities[[0, 1, 3, 4]])
        probe = np.linspace(0.0, self.GEOM.d_max, 2001)
        assert np.min(table._pdf_at(probe, table._cells(0, probe))) >= 0.0
        assert np.all(np.diff(table.cdf(probe)) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.floats(1e-6, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                      st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
            min_size=1, max_size=12),
        last=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    )
    def test_slopes_are_the_densities_held_in_the_monotone_box(self, cells, last):
        # cells of any widths, flat runs and rises, under knot densities
        # from 0 to far above 3 secants
        widths, rises, densities = (np.array(v) for v in zip(*cells))
        assume(rises.sum() > 0.0)
        grid = np.append(0.0, np.cumsum(widths) / widths.sum() * self.GEOM.d_max)
        values = np.minimum(np.append(0.0, np.cumsum(rises) / rises.sum()), 1.0)
        grid[-1], values[-1] = self.GEOM.d_max, 1.0
        densities = np.append(densities, last)
        table = TabulatedDistribution(self.GEOM, grid, values, densities)
        assert table.slopes.tolist() == held_slopes(grid, values, densities)
        assert_monotone_cubics(table)

    def test_arrays_read_are_copies(self):
        # writing into what grid, cdf_values and slopes return leaves the table as it was
        table = TabulatedDistribution(self.GEOM, self.GRID.copy(), self.VALUES.copy(),
                                      np.full(5, 0.1))
        probe, slopes = np.linspace(0.0, self.GEOM.d_max, 9), table.slopes
        before = table.cdf(probe)
        table.grid[1] = table.cdf_values[1] = table.slopes[1] = 0.0
        assert np.array_equal(table.grid, self.GRID)
        assert np.array_equal(table.cdf_values, self.VALUES)
        assert np.array_equal(table.slopes, slopes) and np.array_equal(table.cdf(probe), before)

    def test_last_knot_past_d_max_raises(self):
        grid = self.GRID.copy()
        grid[-1] = self.GEOM.d_max * (1.0 + 2e-9)
        with pytest.raises(DomainError, match="at most d_max"):
            TabulatedDistribution(self.GEOM, grid, self.VALUES, np.full(5, 0.1))
        grid[-1] = self.GEOM.d_max * (1.0 + 5e-10)  # rounding of d_max is accepted
        assert TabulatedDistribution(self.GEOM, grid, self.VALUES, np.full(5, 0.1)).cdf(grid[-1]) == 1.0

    def test_table_ending_early_reads_its_end_past_it(self):
        # a law that reaches 1 at 5, short of d_max = 7.2111: past its last
        # knot the table reads F = 1, f = 0, survival 0 and no interferer mass
        grid = np.linspace(0.0, 5.0, 5)
        table = TabulatedDistribution(self.GEOM, grid, self.VALUES, np.full(5, 0.2))
        past = np.array([5.0, np.nextafter(5.0, 6.0), 6.0, self.GEOM.d_max])
        cdf, pdf = table.cdf_and_pdf(past)
        assert np.all(cdf == 1.0) and np.all(pdf[1:] == 0.0) and np.all(table.sf(past) == 0.0)
        ones = lambda x, sel: np.ones((1, len(sel), x.shape[-1]))
        total = table.integrate_pdf_product(np.array([0.0, 5.0, 6.0]), ones, 1, 4.0)[0]
        assert total[0] == pytest.approx(1.0, abs=1e-12) and np.all(total[1:] == 0.0)

    def test_slopes_are_the_densities(self):
        densities = np.array([0.0, 0.2, 0.1, 0.15, 0.0])
        table = TabulatedDistribution(self.GEOM, self.GRID, self.VALUES, densities)
        assert np.array_equal(table.pdf(self.GRID[:-1]), densities[:-1])
        assert table.pdf(self.GRID[-1]) == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(table.cdf(self.GRID), self.VALUES)

    def test_stack_law_is_cdf_and_pdf(self, tall_mixture):
        # the exact model's serving law: one cell search over all tables
        # finds each query's own table, inside, at the ends of and outside
        # each table's support
        stack = tall_mixture
        rng = np.random.default_rng(3)
        which = rng.integers(0, tall_mixture.ends.size, 500)
        edges = [0.0, -0.0, -1e-300, TALL.d_max, 1e300, 5.0]
        l = np.concatenate((rng.uniform(-1.0, 1.05 * TALL.d_max, 494), edges))
        cdf, pdf = stack.take(which).cdf_and_pdf(l)
        sf = stack.take(which).sf(l)
        for k, table in enumerate(tables_of(tall_mixture)):
            own = which == k
            assert np.array_equal(cdf[own], table.cdf(l[own]))
            assert np.array_equal(pdf[own], table.pdf(l[own]))
            assert np.array_equal(sf[own], table.sf(l[own]))

    def test_untaken_stack_asks_for_take(self, tall_mixture):
        # per-query reads need a table per query; the stack-wide reads do not
        reads = [
            lambda: tall_mixture.cdf(1.0),
            lambda: tall_mixture.sf(np.array([1.0, 2.0])),
            lambda: tall_mixture.cdf_and_pdf(1.0),
            lambda: tall_mixture.grid,
            lambda: tall_mixture.integrate_pdf_product(np.array([1.0]), None, 1, 3.0),
        ]
        for read in reads:
            with pytest.raises(DomainError, match=r"read through take\(which\)"):
                read()
        levels = np.array([0.25, 0.5])
        assert tall_mixture.quantiles(levels).shape == (tall_mixture.ends.size, 2)
        assert np.all(tall_mixture.end_sf > 0.0)
        assert 0.0 < tall_mixture.take(3).cdf(1.0) < 1.0

    def test_take_rejects_what_names_no_table(self, tall_dist, tall_mixture):
        # take(-1) read the last cell of the table before: a CDF of -8.1e-4 on
        # the pair table, a survival of -3.5e-3 on the mixture
        tables = tall_mixture.ends.size
        bad = [(tall_dist, -1), (tall_dist, 1), (tall_mixture, -1), (tall_mixture, tables),
               (tall_mixture, 1.5), (tall_mixture, True), (tall_mixture, np.array([0, tables]))]
        for stack, which in bad:
            with pytest.raises(DomainError, match=r"integer table indices in \[0, "):
                stack.take(which)
        assert tall_dist.take(0).cdf(5.0) == tall_dist.cdf(5.0)
        assert tall_mixture.take(np.array([], dtype=int)).sf(np.array([])).size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        r=st.floats(0.0, 1.0),
        z=st.floats(0.0, 1.0),
    )
    # a squat receiver near the axis at mid-height, whose last cell's cubic
    # dipped under its knot densities, and one 1e-8 R from the axis, where
    # the law's CDF is off by about 1e-12 at the breakpoints R - r and R + r
    @example(geom=SQUAT, r=0.0031623, z=0.5)
    @example(geom=SQUAT, r=1.7782794100389228e-08, z=1e-05)
    @example(geom=SQUAT, r=3.1622776601683795e-09, z=9.999999999999999e-06)
    def test_receiver_tables_carry_the_law_at_their_knots(self, geom, r, z):
        r, z = r * geom.R, z * geom.H
        table = receiver_table(geom, r, z)
        grid = table.grid
        F, f = receiver_distance_law(geom, r, z, grid)
        assert table.slopes.tolist() == held_slopes(grid, table.cdf_values, f)
        assert np.array_equal(table.pdf(grid[:-1]), table.slopes[:-1])
        assert np.array_equal(table.cdf(grid), table.cdf_values)
        assert np.max(np.abs(table.cdf_values - F)) <= 1e-12


class TestBuildCdf:
    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            build_cdf(SQUAT, 32)

    @pytest.mark.parametrize("grid_size", [100.5, math.nan, math.inf, -math.inf])
    def test_rejects_grid_size_that_is_no_integer(self, grid_size):
        with pytest.raises(DomainError, match="grid_size"):
            build_cdf(SQUAT, grid_size)

    @pytest.mark.parametrize("grid_size", [64, 64.0, np.int64(100), np.float64(128.0)])
    def test_integral_grid_sizes_build(self, grid_size):
        assert build_cdf(SQUAT, grid_size).grid.size == grid_size

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_memory_is_bounded(self, geom):
        # The law runs in blocks of _BLOCK_ELEMENTS integrand elements: a
        # rule applied to all 2,048 knots at once peaks above 6 MB.
        assert traced_peak(lambda: build_cdf(geom, 2048)) <= 3e6

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_knots_match_a_finer_rule(self, geom):
        # F = S(z0) + int F_disk(l cos t) f_seg(l sin t) l cos t dt over the
        # split angle t, here on a 256-node smoothstep Gauss rule.
        x, w = np.polynomial.legendre.leggauss(256)
        s = 0.5 * (x + 1.0)
        phi, dphi_w = s * s * (3.0 - 2.0 * s), 3.0 * s * (1.0 - s) * w
        l = get_dist(geom).grid[1:-1, None]
        lo = np.arccos(np.minimum(1.0, 2.0 * geom.R / l))
        span = np.maximum(np.arcsin(np.minimum(1.0, geom.H / l)) - lo, 0.0)
        t = lo + span * phi
        integrand = (_disk_pair_cdf(l * np.cos(t), geom.R) * segment_pair_pdf(l * np.sin(t), geom.H)
                     * l * np.cos(t))
        z0 = np.sqrt(np.maximum(l[:, 0] ** 2 - 4.0 * geom.R**2, 0.0))
        F = (2.0 * z0 * geom.H - z0 * z0) / geom.H**2 + span[:, 0] * np.sum(integrand * dphi_w, axis=1)
        assert np.max(np.abs(get_dist(geom).cdf_values[1:-1] - F)) <= 1e-12

    def test_endpoint_values(self, squat_dist):
        assert squat_dist.cdf(0.0) == 0.0
        assert squat_dist.cdf(SQUAT.d_max) == 1.0
        assert squat_dist.cdf(-5.0) == 0.0
        assert squat_dist.cdf(SQUAT.d_max + 5.0) == 1.0

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_slopes_are_the_law_density_held_in_the_monotone_box(self, geom):
        table = get_dist(geom)
        f = pair_distance_law(geom, table.grid)[1]
        assert table.slopes.tolist() == held_slopes(table.grid, table.cdf_values, f)
        assert_monotone_cubics(table)

    def test_monotone_between_knots(self, squat_dist):
        dense = np.linspace(0.0, SQUAT.d_max, 50_001)
        vals = squat_dist.cdf(dense)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(squat_dist.pdf(dense) >= 0.0)

    def test_cdf_interpolation_error(self, squat_dist):
        rng = np.random.default_rng(42)
        for l in rng.uniform(0.0, SQUAT.d_max, 12):
            direct = quiet_quad(
                cylinder_pair_pdf_numeric, 0.0, float(l), args=(SQUAT,),
                limit=300, epsabs=1e-11,
                points=[p for p in (2 * SQUAT.R, SQUAT.H) if p < l],
            )
            assert squat_dist.cdf(float(l)) == pytest.approx(direct, abs=1e-7)

    def test_pdf_interpolation_error(self, tall_dist):
        probe = np.concatenate(
            [
                np.linspace(0.05, 1.0, 7) * TALL.d_max * 0.95,
                [2 * TALL.R - 0.01, 2 * TALL.R + 0.01, TALL.H - 0.01, TALL.H + 0.01],
            ]
        )
        for l in probe:
            assert tall_dist.pdf(float(l)) == pytest.approx(
                cylinder_pair_pdf_numeric(float(l), TALL), abs=1e-7
            )

    def test_median_against_sampled_pairs(self, squat_dist):
        n = 1_000_000
        d = sample_pair_distances(SQUAT, n, seed=20240)
        empirical_median = float(np.median(d))
        # binomial noise on the CDF level at the median
        stderr = math.sqrt(0.25 / n)
        assert abs(squat_dist.cdf(empirical_median) - 0.5) <= 3.0 * stderr

    def test_pair_distance_ks(self, tall_dist):
        d = sample_pair_distances(TALL, 400_000, seed=11)
        ks = kstest(d, tall_dist.cdf).statistic
        assert ks <= 0.003  # full 1e6-pair bound of 0.002 runs in acceptance

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES)
    def test_matches_nested_quadrature_table(self, geom):
        # Oracle: each knot cell of the numeric convolution density
        # integrated adaptively to 1e-10, accumulated and normalized.
        grid = np.linspace(0.0, geom.d_max, 256)
        kinks = sorted({min(2.0 * geom.R, geom.d_max), min(geom.H, geom.d_max)})
        masses = [0.0]
        for a, b in zip(grid[:-1], grid[1:]):
            masses.append(
                quad(
                    cylinder_pair_pdf_numeric, a, b, args=(geom,),
                    epsabs=1e-10, epsrel=1e-10, limit=100,
                    points=[p for p in kinks if a < p < b] or None,
                )[0]
            )
        oracle = np.cumsum(masses)
        table = build_cdf(geom, 256)
        assert np.array_equal(table.grid, grid)
        assert np.max(np.abs(table.cdf_values - oracle / oracle[-1])) <= 1e-9
        assert np.all(np.diff(table.cdf_values) >= 0.0)
        assert table.cdf_values[0] == 0.0 and table.cdf_values[-1] == 1.0

    def test_integral_of_tabulated_pdf_hits_one(self, squat_dist):
        dense = np.linspace(0.0, SQUAT.d_max, 100_001)
        mass = np.trapezoid(squat_dist.pdf(dense), dense)
        assert mass == pytest.approx(1.0, abs=1e-7)


def _clear_of(l, points, margin):
    """The distances of l farther than margin from each of points."""
    return l[np.min(np.abs(l[:, None] - np.asarray(points)[None, :]), axis=1) > margin]


class TestPairDistanceLaw:
    @settings(max_examples=100, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    def test_density_is_the_numeric_density(self, geom, fracs):
        # Within 1e-12 of the closed form at least 1e-7 d_max from the
        # regime edges (measured at most 2e-13 there), and the same rule as
        # cylinder_pair_pdf_numeric, up to rounding in the array calls.
        l = np.array(fracs) * geom.d_max
        l = _clear_of(l, [0.0, 2.0 * geom.R, geom.H, geom.d_max], 1e-7 * geom.d_max)
        f = pair_distance_law(geom, l)[1]
        closed = np.array([cylinder_pair_pdf_closed(float(x), geom) for x in l])
        assert np.all(np.abs(f - closed) <= 1e-12)
        numeric = [cylinder_pair_pdf_numeric(float(x), geom) for x in l]
        np.testing.assert_allclose(f, numeric, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_cdf_is_the_tabulated_cdf(self, geom):
        table = get_dist(geom)
        F = pair_distance_law(geom, table.grid)[0]
        assert np.max(np.abs(F - table.cdf_values)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    def test_density_is_derivative_of_cdf(self, geom, fracs):
        # Central differences at h = 1e-6 d_max, clear of the kinks of f
        # (measured at most 3e-10 of the largest density).
        l = _clear_of(np.array(fracs) * geom.d_max, [0.0, 2.0 * geom.R, geom.H, geom.d_max],
                      1e-4 * geom.d_max)
        h = 1e-6 * geom.d_max
        slope = (pair_distance_law(geom, l + h)[0] - pair_distance_law(geom, l - h)[0]) / (2.0 * h)
        f = pair_distance_law(geom, l)[1]
        peak = np.max(pair_distance_law(geom, np.linspace(0.0, geom.d_max, 513))[1])
        assert np.all(np.abs(slope - f) <= 1e-8 * peak)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path, squat_dist):
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        loaded = TabulatedDistribution.load(path)
        assert np.array_equal(loaded.grid, squat_dist.grid)
        assert np.array_equal(loaded.cdf_values, squat_dist.cdf_values)
        assert np.array_equal(loaded.slopes, squat_dist.slopes)
        probe = np.linspace(0.0, SQUAT.d_max, 997)
        assert np.array_equal(loaded.cdf(probe), squat_dist.cdf(probe))
        assert np.array_equal(loaded.pdf(probe), squat_dist.pdf(probe))

    def test_corrupt_file_is_stale(self, tmp_path, squat_dist):
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:100]) + "\n")
        with pytest.raises(StaleCacheError):
            TabulatedDistribution.load(path)

    @pytest.mark.parametrize("row", ["{l}", "{l}\t{F}", "{l}\t{F}\tx", "{l}\t{F}\t{f}\n{l}"])
    def test_malformed_row_is_stale(self, tmp_path, squat_dist, row):
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        lines = path.read_text().splitlines()
        l, F, f = lines[10].split("\t")
        lines[10] = row.format(l=l, F=F, f=f)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StaleCacheError, match="corrupt"):
            TabulatedDistribution.load(path)

    def test_receiver_table_is_not_saved(self, tmp_path, tall_mixture):
        # load returns a pair table, with the pair law's kinks: a receiver
        # table, or a plain table even on the pair table's own knots, is not one
        path = tmp_path / "cache.tsv"
        table = get_dist(SQUAT, 64)
        plain = TabulatedDistribution(SQUAT, table.grid, table.cdf_values, table.slopes)
        for other in (tall_mixture.take(0), plain):
            with pytest.raises(DomainError, match="only a pair table"):
                other.save(path)
            assert not path.exists()

    def test_pair_cache_keeps_three_columns(self, tmp_path, squat_dist):
        # knot, CDF value and slope, each of which reads back bit for bit
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        rows = np.array([row.split("\t") for row in path.read_text().splitlines()[4:]], dtype=float)
        assert rows.shape == (squat_dist.grid.size, 3)
        assert np.array_equal(rows[:, 2], squat_dist.slopes)
        assert np.array_equal(TabulatedDistribution.load(path).slopes, squat_dist.slopes)

    def test_two_column_v1_cache_is_stale(self, tmp_path, squat_dist):
        # the v1 format held knots and CDF values only
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        header, *rows = path.read_text().splitlines()
        assert header == "# cylcov-cdf v2"
        two = [row.rpartition("\t")[0] if not row.startswith("#") else row for row in rows]
        path.write_text("\n".join(["# cylcov-cdf v1", *two, ""]))
        with pytest.raises(StaleCacheError, match="magic"):
            TabulatedDistribution.load(path)
        path.write_text("\n".join([header, *two, ""]))
        with pytest.raises(StaleCacheError, match="3 columns"):
            TabulatedDistribution.load(path)

    # "\t0.0" is a fourth column, which load cannot take
    @pytest.mark.parametrize("extra", ["\tnote", "\t0.0", "\t0.0\t0.0"])
    def test_unreadable_or_extra_columns_are_corrupt(self, tmp_path, squat_dist, extra):
        path = tmp_path / "cache.tsv"
        squat_dist.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + [line + extra for line in lines[4:]]) + "\n")
        with pytest.raises(StaleCacheError, match="corrupt"):
            TabulatedDistribution.load(path)

    def test_wrong_magic_is_stale(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("# some other file\n1,2\n")
        with pytest.raises(StaleCacheError):
            TabulatedDistribution.load(path)

    def test_missing_file_is_stale(self, tmp_path):
        with pytest.raises(StaleCacheError):
            TabulatedDistribution.load(tmp_path / "absent.tsv")

    def test_nan_table_is_rejected(self, tmp_path):
        geom = CylinderGeometry(R=3.0, H=4.0)
        grid = np.linspace(0.0, geom.d_max, 5)
        densities = np.full(5, 0.1)
        with pytest.raises(DomainError, match="finite"):
            TabulatedDistribution(geom, grid, np.array([0.0, 0.2, np.nan, 0.9, 1.0]), densities)
        path = tmp_path / "cache.tsv"
        PairTable(geom, grid, np.array([0.0, 0.2, 0.5, 0.9, 1.0]), densities).save(path)
        path.write_text(path.read_text().replace("\t0.5\t", "\tnan\t"))
        with pytest.raises(StaleCacheError, match="corrupt"):
            TabulatedDistribution.load(path)


def test_coarse_grid_stays_close(dist_for):
    coarse = get_dist(CUBIC, 64)
    fine = get_dist(CUBIC, 2048)
    probe = np.linspace(0.0, CUBIC.d_max, 2000)
    assert np.max(np.abs(coarse.cdf(probe) - fine.cdf(probe))) < 5e-4


def test_needle_geometry_mass(dist_for):
    dist = get_dist(NEEDLE)
    assert dist.cdf(NEEDLE.d_max) == 1.0
    dense = np.linspace(0.0, NEEDLE.d_max, 60_001)
    assert np.all(np.diff(dist.cdf(dense)) >= -1e-15)


# receiver positions (r, z) as fractions of (R, H): on the axis, at the
# wall, at the floor, and on the bottom rim
RECEIVER_SPOTS = {
    "axis": (0.0, 0.3),
    "wall": (0.995, 0.5),
    "floor": (0.5, 0.005),
    "rim": (1.0, 0.0),
}


def receiver_distances(geom, r, z, n, seed):
    """Distances from the receiver at (r, 0, z) to n volume-uniform points."""
    pts = sample_points(substream(seed, 0), geom, n)
    return np.linalg.norm(pts - np.array([r, 0.0, z]), axis=1)


class TestReceiverLaw:
    @pytest.mark.parametrize("spot", sorted(RECEIVER_SPOTS))
    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_table_matches_draws_from_fixed_receiver(self, geom, spot):
        r, z = RECEIVER_SPOTS[spot][0] * geom.R, RECEIVER_SPOTS[spot][1] * geom.H
        n = 200_000
        d = receiver_distances(geom, r, z, n, seed=77)
        ks = kstest(d, receiver_table(geom, r, z).cdf).statistic
        # 99.9% Kolmogorov quantile plus the 256-knot table's interpolation
        # error (below 1.5e-4 against the exact law on all four regimes)
        assert ks <= 1.95 / math.sqrt(n) + 2e-4

    def test_ball_and_caps_closed_form(self):
        # Receiver on the axis of CUBIC, ball radius d <= R: the ball only
        # crosses the floor and the ceiling, so F is the ball minus two caps
        # and f the sphere minus two cap surfaces.
        z = 0.3 * CUBIC.H
        d = np.linspace(1e-3, CUBIC.R, 400)
        cap = lambda h: np.where(h > 0.0, math.pi * h * h * (3.0 * d - h) / 3.0, 0.0)
        cap_area = lambda h: np.where(h > 0.0, 2.0 * math.pi * d * h, 0.0)
        lo, hi = d - z, d - (CUBIC.H - z)
        F_ref = (4.0 / 3.0 * math.pi * d**3 - cap(lo) - cap(hi)) / CUBIC.volume
        f_ref = (4.0 * math.pi * d * d - cap_area(lo) - cap_area(hi)) / CUBIC.volume
        F, f = receiver_distance_law(CUBIC, 0.0, z, d)
        assert np.max(np.abs(F - F_ref)) <= 1e-13
        assert np.max(np.abs(f - f_ref)) <= 1e-13

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_density_is_derivative_of_cdf(self, geom):
        for frac_r, frac_z in RECEIVER_SPOTS.values():
            r, z = frac_r * geom.R, frac_z * geom.H
            breaks = receiver_breakpoints(geom, r, z)
            h = 1e-6 * breaks[-1]
            d = np.linspace(0.0, breaks[-1], 301)[1:-1]
            # keep clear of the breakpoints, where f can have square-root kinks
            d = d[np.min(np.abs(d[:, None] - breaks[None, :]), axis=1) > 1e-3 * breaks[-1]]
            F_hi = receiver_distance_law(geom, r, z, d + h)[0]
            F_lo = receiver_distance_law(geom, r, z, d - h)[0]
            f = receiver_distance_law(geom, r, z, d)[1]
            assert np.max(np.abs((F_hi - F_lo) / (2.0 * h) - f)) <= 1e-6 * np.max(f)

    def test_support_ends_at_farthest_point(self):
        r, z = 0.4 * TALL.R, 0.2 * TALL.H
        d_end = receiver_breakpoints(TALL, r, z)[-1]
        assert d_end == pytest.approx(math.hypot(TALL.R + r, TALL.H - z), rel=1e-15)
        F, f = receiver_distance_law(TALL, r, z, [0.0, d_end, d_end + 1.0])
        assert F[0] == 0.0 and F[1] == pytest.approx(1.0, abs=1e-15)
        assert F[2] == pytest.approx(1.0, abs=1e-15) and f[2] == 0.0
        table = receiver_table(TALL, r, z)
        assert table.cdf(d_end) == 1.0 and table.pdf(0.5 * (d_end + TALL.d_max)) == 0.0

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_tables_end_at_their_reach(self, geom):
        # each receiver table ends where its law reaches 1, at d_max(x); it
        # used to carry a last cell of F = 1 on to the cylinder's d_max
        mix = get_mixture(geom)
        for rule in (mix, mix.check):
            reach = receiver_breakpoints(geom, *rule.nodes.T)[:, -1]
            assert [v.grid[-1] for v in tables_of(rule)] == reach.tolist()

    def test_breakpoints_broadcast(self):
        # mixed shapes raised "all input arrays must have the same shape"
        rows = receiver_breakpoints(TALL, np.array([5.0, 7.0]), 60.0)
        assert rows.tolist() == [receiver_breakpoints(TALL, r, 60.0).tolist() for r in (5.0, 7.0)]
        grid = receiver_breakpoints(TALL, np.array([[5.0], [7.0]]), np.array([10.0, 60.0, 100.0]))
        assert grid.shape == (2, 3, 9)
        assert grid[1, 2].tolist() == receiver_breakpoints(TALL, 7.0, 100.0).tolist()

    def test_rejects_receiver_outside(self):
        with pytest.raises(DomainError):
            receiver_distance_law(TALL, TALL.R + 1.0, 1.0, 5.0)
        with pytest.raises(DomainError):
            receiver_distance_law(TALL, 1.0, -1.0, 5.0)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_array_form_matches_scalar_calls(self, geom):
        # Receivers on the axis, at the wall, on the floor, at the ceiling's
        # rim and inside, below and at mid-height, each at distances over its
        # whole support and past it; 2,800 distances in all, in one array call.
        R, H = geom.R, geom.H
        spots = [(0.0, 0.3 * H), (R, 0.5 * H), (0.5 * R, 0.0), (R, H), (0.7 * R, 0.2 * H), (0.0, 0.0),
                 (0.3 * R, 0.5 * H)]
        d = np.linspace(0.0, 1.05 * geom.d_max, 400)
        r = np.repeat([s[0] for s in spots], d.size)
        z = np.repeat([s[1] for s in spots], d.size)
        cdf, pdf = receiver_distance_law(geom, r, z, np.tile(d, len(spots)))
        for k, (rk, zk) in enumerate(spots):
            one_cdf, one_pdf = receiver_distance_law(geom, rk, zk, d)
            assert np.array_equal(cdf[k * d.size : (k + 1) * d.size], one_cdf), (rk, zk)
            assert np.array_equal(pdf[k * d.size : (k + 1) * d.size], one_pdf), (rk, zk)
        # one receiver against many distances broadcasts as a scalar does
        assert np.array_equal(receiver_distance_law(geom, np.array([R]), 0.5 * H, d)[0], cdf[400:800])

    @pytest.mark.parametrize(
        "r, z",
        [(-1e-9, 1.0), (TALL.R * (1.0 + 1e-12), 1.0), (1.0, -1e-9), (1.0, TALL.H + 1e-9),
         (math.nan, 1.0), (1.0, math.nan)],
    )
    def test_each_receiver_outside_raises_in_an_array(self, r, z):
        with pytest.raises(DomainError, match="outside the cylinder"):
            receiver_distance_law(TALL, r, z, 5.0)
        rs, zs = np.array([0.0, TALL.R, r, 1.0]), np.array([0.0, TALL.H, z, 1.0])
        with pytest.raises(DomainError, match="outside the cylinder"):
            receiver_distance_law(TALL, rs, zs, np.full(4, 5.0))

    def test_law_is_smooth_across_the_far_wall_next_to_the_axis(self):
        # At r = 3.8e-7 in the squat cylinder the lens arccos arguments
        # cancel unless formed as ((p - R)(p + R) + c^2) / 2cp and
        # ((R - p)(R + p) + c^2) / 2cR: stepping d across R + r by 1e-10
        # gave a step of 4.4e-12 and then one of -1.2e-12 among steps of
        # 1.7e-12; factored, every step lies in 1.6656e-12 to 1.6662e-12.
        r = 3.8e-7
        d = SQUAT.R + r + 1e-10 * np.arange(-6, 7)
        steps = np.diff(receiver_distance_law(SQUAT, r, 2e-4, d)[0])
        assert np.all(steps > 0.0)
        assert np.max(steps) - np.min(steps) <= 1e-15, steps

    def test_slab_term_does_not_cancel_near_a_face(self):
        # At R = 0.01, H = 1000 the slab's closed-form part, formed as
        # d^2 (a - hi) - (a^3 - hi^3) / 3, cancelled next to d = z: F_x
        # stepped by -4.4e-10 to 6.4e-9 between distances 1e-10 to 1e-7
        # apart, up to 2,200 times f_x dd.  Formed from the slab's middle
        # and width, each step is the trapezoid f_x dd within 0.1 %.
        geom, r, z = CylinderGeometry(R=0.01, H=1000.0), 0.00976, 168.937
        off = np.logspace(-10, -7, 13)
        d = z + np.concatenate((-off[::-1], off))
        F, f = receiver_distance_law(geom, r, z, d)
        steps, trapezoid = np.diff(F), 0.5 * (f[1:] + f[:-1]) * np.diff(d)
        assert np.all(steps > 0.0)
        assert np.max(np.abs(steps / trapezoid - 1.0)) <= 1e-3

    @pytest.mark.parametrize("R", [0.1, 0.01, 1e-3])
    def test_law_is_non_decreasing_around_the_faces(self, R):
        # steps of 1e-10 to 1e-7 about a receiver's distance to the floor
        # and to the ceiling, for receivers at the wall, inside and on the axis
        geom = CylinderGeometry(R=R, H=1000.0)
        off = np.logspace(-10, -7, 31)
        for r, z in [(0.976 * R, 168.937), (0.3 * R, 12.5), (0.0, 300.0), (R, 1.0), (0.5 * R, 499.0)]:
            for face in (z, geom.H - z):
                d = face + np.concatenate((-off[::-1], off))
                assert np.all(np.diff(receiver_distance_law(geom, r, z, d)[0]) >= 0.0), (r, z, face)

    def test_needle_mixture_builds(self):
        # At H/R = 1e6 the law's density at d_max(x) was rounding noise
        # large enough to make the last cell of 9 of the 117 receivers dip
        # below 0; from d_max(x) on it is 0.
        geom = CylinderGeometry(R=0.001, H=1000.0)
        mix = build_receiver_cdfs(geom)
        for nodes in (mix.nodes, mix.check.nodes):
            r, z = nodes.T
            d_end = receiver_breakpoints(geom, r, z)[:, -1]
            assert np.all(receiver_distance_law(geom, r, z, d_end)[1] == 0.0)

    @pytest.mark.parametrize("R", [0.1, 0.01])
    def test_needle_mixtures_build_monotone(self, R):
        # At H/R = 1e4 and 1e5 a dip check under the exact knot densities
        # refused 18 and 41 of the 117 receivers, in cells between nearly
        # coincident breakpoints; the monotone box holds their slopes
        mix = build_receiver_cdfs(CylinderGeometry(R=R, H=1000.0))
        for rule in (mix, mix.check):
            assert_monotone_cubics(rule)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_mixture_is_the_stack_of_its_tables(self, geom):
        # A mixture rebuilt from the grid, CDF values and slopes of its views
        # holds the same arrays and layouts, and each table, rebuilt as a
        # stack of one, holds the mixture's cubics, tails, end and survival.
        mix = get_mixture(geom)
        for rule in (mix, mix.check):
            views = tables_of(rule)
            arrays = [(v.grid, v.cdf_values, v.slopes) for v in views]
            again = ReceiverMixture(geom, rule.nodes, rule.weights, arrays)
            assert rule.geometry == again.geometry == geom
            for name in ("_knots", "_values", "_cubic", "_tails", "ends", "end_sf"):
                assert np.array_equal(getattr(rule, name), getattr(again, name)), name
            for k in (1, 2):
                for ours, theirs in zip(rule._layout(k), again._layout(k)):
                    assert np.array_equal(ours, theirs)
            for t, (grid, values, slopes) in enumerate(arrays):
                one = TabulatedDistribution(geom, grid, values, slopes)
                cells = slice(rule._first_cell[t], rule._last_cell[t] + 1)
                assert np.array_equal(one._cubic, rule._cubic[:, cells])
                assert np.array_equal(one._tails, rule._tails[cells.start + t : cells.stop + t + 1])
                assert (one.ends[0], one.end_sf[0]) == (rule.ends[t], rule.end_sf[t])

    @pytest.mark.parametrize("case", [
        "five nodes and weights", "five tables", "nodes of shape (q, 3)", "weights summing to 2",
        "a negative weight", "a NaN weight", "a pair table as check", "a check on another geometry",
    ])
    def test_mixture_checks_its_rule(self, tall_mixture, squat_mixture, tall_dist, case):
        # Nodes and weights of another count than the tables built and
        # failed at the first evaluation in numpy's concatenate ValueError;
        # weights summing to 2 surfaced only as an error estimate of 0.718
        # past the contract.
        rule = tall_mixture.check
        arrays = [(v.grid, v.cdf_values, v.slopes) for v in tables_of(rule)]
        nodes, weights = rule.nodes, rule.weights
        negative, nan = weights.copy(), weights.copy()
        negative[:2] = -weights[0], weights[1] + 2.0 * weights[0]  # still summing to 1
        nan[0] = np.nan
        bad = {
            "five nodes and weights": (nodes[:5], np.full(5, 0.2), arrays, None),
            "five tables": (nodes, weights, arrays[:5], None),
            "nodes of shape (q, 3)": (np.hstack((nodes, nodes[:, :1])), weights, arrays, None),
            "weights summing to 2": (nodes, 2.0 * weights, arrays, None),
            "a negative weight": (nodes, negative, arrays, None),
            "a NaN weight": (nodes, nan, arrays, None),
            "a pair table as check": (nodes, weights, arrays, tall_dist),
            "a check on another geometry": (nodes, weights, arrays, squat_mixture),
        }
        with pytest.raises(DomainError):
            ReceiverMixture(TALL, *bad[case])
        assert ReceiverMixture(TALL, nodes, weights, arrays, tall_mixture).check is tall_mixture

    def test_mixture_holds_no_per_table_arrays(self, tall_mixture):
        # Layouts aside, the tall mixture and its check rule hold 2,437,744 B
        # of arrays: keys, cubics, tails and per-table scalars.  Per-table
        # copies of grid, CDF values and slopes took it to 3,179,176 B.
        def held(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if isinstance(obj, (tuple, list)):
                return sum(held(v) for v in obj)
            if type(obj).__module__ == "cylcov.distance":  # a table, a mixture or a view
                return sum(held(v) for name, v in vars(obj).items() if name != "_layouts")
            return 0

        assert held(tall_mixture) <= 2_450_000, held(tall_mixture)

    def test_rule_is_a_probability_rule(self, tall_mixture):
        for mix in (tall_mixture, tall_mixture.check):
            assert mix.weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(mix.weights > 0.0)
            r, z = mix.nodes.T
            assert np.all((r > 0.0) & (r < TALL.R) & (z > 0.0) & (z < 0.5 * TALL.H))
            assert mix.geometry == TALL
        assert tall_mixture.check.nodes.shape[0] < tall_mixture.nodes.shape[0]

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_mixture_reproduces_pair_law(self, geom):
        # The rule's gap in sum_q w_q F_q shrinks 4-7x per doubling of its
        # node counts (measured 6x3 -> 12x6 -> 24x12 -> 48x24 on the four
        # regimes, a rate of n^-2 or faster).  So the full rule must be at
        # least 2^1.6 ~ 3x closer to the pair law than the rule with half
        # the nodes, and by that rate within 1e-3 (measured 5e-5 to 6e-4).
        probe = np.linspace(0.0, geom.d_max, 4001)
        exact = get_dist(geom).cdf(probe)

        def gap(mix):
            mixed = sum(w * t.cdf(probe) for w, t in zip(mix.weights, tables_of(mix)))
            return np.max(np.abs(mixed - exact))

        full = gap(get_mixture(geom))
        half_rule = tuple(n // 2 for n in RECEIVER_RULE)
        half = gap(_receiver_mixture(geom, half_rule))
        assert full <= half / 3.0
        assert full <= 1e-3


def receiver_table_alone(geom, r, z):
    """The receiver's table as one receiver's own pass builds it: knots, CDF values and slopes.

    The knots are the uniform knots over [0, d_max(x)] kept clear of the
    interior breakpoints, and the breakpoints, sorted with repeats
    dropped; F is clipped to [0, 1] and its running maximum taken.
    """
    breaks = receiver_breakpoints(geom, r, z)
    uniform = np.linspace(0.0, breaks[-1], RECEIVER_GRID_SIZE)
    spacing = breaks[-1] / (RECEIVER_GRID_SIZE - 1)
    keep = np.all(np.abs(uniform[:, None] - breaks[1:-1]) > 0.25 * spacing, axis=1)
    keep[[0, -1]] = True
    grid = np.unique(np.concatenate((uniform[keep], breaks)))
    F, f = receiver_distance_law(geom, r, z, grid)
    F = np.maximum.accumulate(np.clip(F, 0.0, 1.0))
    F[0], F[-1] = 0.0, 1.0
    return grid, F, held_slopes(grid, F, f)


# the four regimes, a needle of H/R = 1e5 and a flat disk of H/R = 1e-6
BLOCKED_GEOMETRIES = (*REGIME_GEOMETRIES, CylinderGeometry(R=0.01, H=1000.0),
                      CylinderGeometry(R=1000.0, H=1e-3))


class TestBlockedReceiverTables:
    """A rule's receiver tables come from one blocked pass over all of its knots."""

    @pytest.mark.parametrize("geom", BLOCKED_GEOMETRIES, ids=str)
    def test_each_table_is_its_receiver_built_alone(self, geom):
        # The pass reads the law in blocks that cut across receivers, on live
        # lens ranges only, the upper slab sharing the lower's sums; every
        # table of the rule and of its check is the one its receiver's own
        # pass gives, bit for bit.
        mix = get_mixture(geom) if geom in REGIME_GEOMETRIES else build_receiver_cdfs(geom)
        for rule in (mix, mix.check):
            for (r, z), table in zip(rule.nodes, tables_of(rule)):
                grid, values, slopes = receiver_table_alone(geom, r, z)
                assert np.array_equal(table.grid, grid), (r, z)
                assert np.array_equal(table.cdf_values, values), (r, z)
                assert table.slopes.tolist() == slopes, (r, z)

    def test_a_distance_alone_reads_as_in_an_array(self):
        # The slice sums run node by node: numpy's sum over the nodes runs
        # pairwise for a lone distance, in order for several, and so would
        # differ in the last bits
        for r, z in [(0.7 * TALL.R, 0.2 * TALL.H), (TALL.R, 0.5 * TALL.H)]:
            d = np.linspace(0.0, receiver_breakpoints(TALL, r, z)[-1], 41)
            F, f = receiver_distance_law(TALL, r, z, d)
            alone = np.array([receiver_distance_law(TALL, r, z, x) for x in d])
            assert np.array_equal(alone[:, 0, 0], F) and np.array_equal(alone[:, 1, 0], f), (r, z)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_a_shared_slab_equals_its_own_quadrature(self, geom):
        # Swapping the two slabs swaps which one takes the other's sums; each
        # slab's integrals do not change, and ranges are shared at some
        # distances where the slabs' reaches differ
        R, H = geom.R, geom.H
        shared = 0
        for r, z in [(0.4 * R, 0.1 * H), (0.9 * R, 0.3 * H), (R, 0.02 * H)]:
            d = receiver_table_alone(geom, r, z)[0]
            rs, reach = np.full(d.size, r), np.stack((np.minimum(z, d), np.minimum(H - z, d)))
            lens, angle = _slab(d, reach, rs, R)
            swapped = _slab(d, reach[::-1], rs, R)
            assert np.array_equal(lens, swapped[0][::-1]) and np.array_equal(angle, swapped[1][::-1])
            w_full, w_in = (np.sqrt(np.maximum(d * d - (R + s * r) ** 2, 0.0)) for s in (1.0, -1.0))
            lo, hi = np.minimum(reach, w_full), np.minimum(reach, w_in)
            same = (lo[0] == lo[1]) & (hi[0] == hi[1]) & (hi[0] > lo[0]) & (reach[0] != reach[1])
            shared += np.count_nonzero(same)
        assert shared > 0

    def test_held_arrays_are_in_c_order(self, tall_mixture, tall_dist):
        # A fancy index over the cubics' columns returns them in F order,
        # whose strided reads slow the exact model by about 11 %
        for stack in (tall_mixture, tall_mixture.check, tall_dist):
            strided = [name for name, v in vars(stack).items()
                       if isinstance(v, np.ndarray) and not v.flags.c_contiguous]
            assert not strided, strided

    def test_build_stays_in_bounded_memory(self):
        # The pass reads 341 distances at a time: one pass over all 117
        # receivers' 30,000 knots at once would need tens of MB.  One build
        # of the tall rule and its check peaks at 3.95 MB (3.69 MB with a
        # pass per receiver).
        assert traced_peak(lambda: build_receiver_cdfs(TALL)) <= 4.5e6
