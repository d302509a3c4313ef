"""Coverage probability: edge cases, trends, and oracle agreement."""

import copy
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from conftest import (
    CUBIC,
    Ball,
    BallLawMixture,
    BallMixture,
    BallPairTable,
    NEEDLE,
    REGIME_GEOMETRIES,
    SQUAT,
    TALL,
    _ball_points,
    ball_receiver_law,
    get_dist,
    get_mixture,
    inverse_cdf,
    simulate_ball_coverage,
    receiver_table,
    tables_of,
)
from cylcov import (
    ChannelModel,
    CoverageResult,
    CylinderGeometry,
    DomainError,
    NetworkScenario,
    UnsupportedParameterError,
    build_receiver_cdfs,
    conditional_coverage,
    coverage_probability,
    exact_coverage_probability,
    laplace_with_derivatives,
    ppp_coverage,
    simulate_coverage,
)
from cylcov.coverage import (
    COVERAGE_CONTRACT,
    EXACT_ORDER,
    _GAUSS_RULES,
    _SPLITS,
    _serving_integral,
    _within_contract,
)
from cylcov.distance import (
    ReceiverMixture,
    TabulatedDistribution,
    _gauss_on_panels,
    pair_distance_law,
    receiver_breakpoints,
    receiver_distance_law,
)
from cylcov.simulation import substream


def scenario(N=10, m=1.0, alpha=3.0, geom=TALL, beta=1.0):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


def finer_paper_rule(sc, dist, order=24, halvings=3):
    """The paper model's serving-distance integral on its panels halved, at a higher Gauss order.

    The panels are those of the rule: from 0 to the last knot whose
    survival is above the floor, cut at 2R, H and the survival splits.
    """
    geom, n = sc.geom, sc.N
    end = dist.ends[0]
    splits = np.interp(1.0 - _SPLITS ** (1.0 / (n - 1)), dist.cdf_values, dist.grid)
    edges = np.union1d([0.0, end], np.clip([2.0 * geom.R, geom.H, *splits], 0.0, end))
    for _ in range(halvings):
        edges = np.union1d(edges, 0.5 * (edges[1:] + edges[:-1]))
    nodes, weights = _gauss_on_panels(edges, *np.polynomial.legendre.leggauss(order))
    cdf, pdf = pair_distance_law(geom, nodes)
    density = weights * (n - 1) * (1.0 - cdf) ** (n - 2) * pdf
    live = density > 0.0
    return float(np.sum(density[live] * conditional_coverage(nodes[live], sc, dist)))


def per_receiver_oracle(sc, mixture, index, order=EXACT_ORDER):
    """The exact model's serving-distance rule over the receivers index, one receiver at a time.

    Per receiver: panels from 0 to its table's last knot above the
    survival floor, cut at its breakpoints and where the serving survival
    passes _SPLITS, a Gauss rule of the given order, and the series on its
    table alone.  Returns the weighted sums of the integrals and of the
    dropped serving-distance masses.
    """
    geom, n = sc.geom, sc.N
    x, w = np.polynomial.legendre.leggauss(order)
    value = tail = 0.0
    for q in index:
        (r, z), weight, table = mixture.nodes[q], mixture.weights[q], mixture.take(q)
        last = int(np.searchsorted(table.grid, table.ends[q]))
        end = table.grid[last]
        splits = np.interp(1.0 - _SPLITS ** (1.0 / (n - 1)), table.cdf_values, table.grid)
        cuts = np.concatenate((receiver_breakpoints(geom, r, z), splits))
        nodes, weights = _gauss_on_panels(np.union1d([0.0, end], np.clip(cuts, 0.0, end)), x, w)
        cdf, pdf = receiver_distance_law(geom, r, z, nodes)
        density = (n - 1) * np.maximum(1.0 - cdf, 0.0) ** (n - 2) * pdf
        live = density > 0.0
        covered = conditional_coverage(nodes[live], sc, table)
        value += weight * float(np.sum(weights[live] * density[live] * covered))
        tail += weight * (1.0 - table.cdf_values[last]) ** (n - 1)
    return value, tail


class TestCoverageResult:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(DomainError):
            CoverageResult(pc=1.2, method="analytic", error_estimate=0.0, scenario=None)
        with pytest.raises(DomainError):
            CoverageResult(pc=0.5, method="analytic", error_estimate=-1.0, scenario=None)

    def test_contract_raises_past_its_bound_and_clips(self):
        with pytest.raises(RuntimeError) as failure:
            _within_contract(0.5, np.float64(2e-4), "analytic-exact", None)
        assert "analytic-exact" in str(failure.value)
        assert "0.0002" in str(failure.value)
        assert "np.float64" not in str(failure.value)
        res = _within_contract(1.0 + 1e-15, 0.0, "analytic", None)
        assert res.pc == 1.0 and type(res.pc) is float

    def test_every_method_returns_plain_floats(self, tall_dist, tall_mixture):
        sc = scenario(N=10, m=2.0, alpha=4.0, beta=10.0)
        for res in (
            coverage_probability(sc, tall_dist),
            exact_coverage_probability(sc, tall_mixture),
            ppp_coverage(sc),
        ):
            assert type(res.pc) is float, res.method
            assert type(res.error_estimate) is float, res.method


class TestConditionalCoverage:
    def test_rayleigh_case_is_single_transform_value(self, tall_dist):
        sc = scenario(m=1.0)
        l = 0.3 * TALL.d_max
        t = sc.beta * l**3
        expected = laplace_with_derivatives(t, l, sc, tall_dist)[0]
        assert conditional_coverage(l, sc, tall_dist) == pytest.approx(expected, rel=1e-12)

    def test_no_interference_means_certain_coverage(self, tall_dist):
        sc = scenario(N=2, m=2.0, beta=100.0)
        for l in (1.0, 0.5 * TALL.d_max):
            assert conditional_coverage(l, sc, tall_dist) == 1.0

    def test_tiny_argument_is_certain(self, tall_dist):
        sc = scenario(N=10, m=2.0)
        l = (1e-12 / (sc.channel.m * sc.beta)) ** (1.0 / 3.0)
        assert conditional_coverage(l, sc, tall_dist) == pytest.approx(1.0, abs=1e-9)

    def test_bounded(self, tall_dist):
        sc = scenario(N=20, m=3.0, beta=10.0)
        for l in np.linspace(0.01, 0.8, 20) * TALL.d_max:
            value = conditional_coverage(float(l), sc, tall_dist)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("total", [1.0 + 1e-6, -1e-6, float("nan")])
    def test_series_outside_unit_interval_raises(self, tall_dist, monkeypatch, total):
        # A transform whose series sums past [0, 1] by more than rounding.
        sc = scenario(N=10, m=2.0)
        stub = lambda t, l, *_: np.stack((total + 0.0 * t, 0.0 * t))
        monkeypatch.setattr("cylcov.coverage.laplace_with_derivatives", stub)
        ls = np.array([0.1, 0.2]) * TALL.d_max
        with pytest.raises(RuntimeError, match=f"l={float(ls[0])!r}"):
            conditional_coverage(ls, sc, tall_dist)

    def test_overflowing_argument_raises(self):
        # At alpha = 200, m beta l^alpha passes the largest float for every
        # l above 34.8.  The suite turns numpy's overflow warning into an
        # error, so this also checks that none is raised.
        dist = get_dist(TALL, 256)
        sc = scenario(N=5, alpha=200.0)
        assert 0.0 <= conditional_coverage(34.0, sc, dist) <= 1.0
        with pytest.raises(DomainError, match=r"alpha=200\.0, l=40\.0"):
            conditional_coverage(np.array([30.0, 34.0, 40.0, 50.0]), sc, dist)
        with pytest.raises(DomainError, match=r"alpha=200\.0, l="):
            coverage_probability(sc, dist)

    @pytest.mark.parametrize("total, clipped", [(1.0 + 1e-10, 1.0), (-1e-10, 0.0)])
    def test_rounding_past_the_unit_interval_is_clipped(
        self, tall_dist, monkeypatch, total, clipped
    ):
        sc = scenario(N=10, m=2.0)
        stub = lambda t, l, *_: np.stack((total + 0.0 * t, 0.0 * t))
        monkeypatch.setattr("cylcov.coverage.laplace_with_derivatives", stub)
        assert conditional_coverage(0.1 * TALL.d_max, sc, tall_dist) == clipped

    def test_near_the_support_end_lies_between_its_bounds(self):
        # One interferer at u in [l, d_max]: coverage grows with u, so it
        # lies between P(h0 > c h1) at c = beta (u = l) and at
        # c = beta (l / d_max)^alpha (u = d_max).  For Gamma(m, 1/m) gains
        # P(h0 > c h1) = P(Bin(2m - 1, c / (1 + c)) <= m - 1).  At this l,
        # 1 - F(l) is about 2e-12: the conditional law divides by it, so
        # the survival must keep its relative accuracy there.
        l, m, beta, alpha = 111.64807844726562, 3, 0.01171875, 3.0
        sc = scenario(N=3, m=float(m), alpha=alpha, geom=CUBIC, beta=beta)

        def covered(c):
            x = c / (1.0 + c)
            n = 2 * m - 1
            return sum(math.comb(n, k) * x**k * (1.0 - x) ** (n - k) for k in range(m))

        low, high = covered(beta), covered(beta * (l / CUBIC.d_max) ** alpha)
        assert low <= conditional_coverage(l, sc, get_dist(CUBIC)) <= high

    @settings(max_examples=40, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        m=st.integers(1, 5),
        N=st.integers(2, 40),
        beta=st.floats(0.01, 100.0),
        alpha=st.floats(2.5, 5.0),
        knots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        cell=st.floats(0.0, 1.0),
        offsets=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=5),
        tail=st.lists(st.floats(0.0, 1.0), max_size=3),
        spread=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_array_call_matches_scalar_calls(
        self, geom, m, N, beta, alpha, knots, cell, offsets, tail, spread
    ):
        # The serving distances mix knots, several nodes in one knot cell,
        # nodes in the last cells before the survival cutoff and nodes
        # spread over the live range, in no particular order.
        dist = get_dist(geom)
        sc = scenario(N=N, m=float(m), alpha=alpha, geom=geom, beta=beta)
        grid = dist.grid
        last = int(np.searchsorted(grid, dist.ends[0]))
        on_knots = grid[np.floor(np.array(knots) * last).astype(int)]
        k = int(cell * (last - 1))
        in_cell = grid[k] + np.array(offsets) * (grid[k + 1] - grid[k])
        near_cutoff = grid[last - 2] + np.array(tail) * (grid[last + 1] - grid[last - 2])
        ls = np.concatenate([on_knots, in_cell, near_cutoff, np.array(spread) * grid[last]])
        ls = ls[dist.sf(ls) >= 1e-12]
        batched = conditional_coverage(ls, sc, dist)
        assert batched.shape == ls.shape
        for l, value in zip(ls, batched):
            single = conditional_coverage(float(l), sc, dist)
            assert abs(value - single) <= 1e-13 * abs(single), (l, value, single)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_batching_moves_only_the_last_digits(self, geom):
        # integrate_pdf_product gives a lower limit the same bits alone and
        # among others (test_integral_bits_do_not_depend_on_the_batch); the
        # series around it can still move the last bit: alone and among 400
        # limits the values differed by up to 3.3e-16 (1.1e-14 when the
        # integral's blocks shared columns).
        rng = np.random.default_rng(11)
        cases = []
        for stack in (get_dist(geom), get_mixture(geom)):
            which = rng.integers(0, stack.ends.size, 400)
            cases.append((stack, which, rng.random(400) * stack.ends[which]))
        for m, beta, N in product((1, 3, 5), (0.1, 10.0), (3, 40)):
            sc = scenario(N=N, m=float(m), geom=geom, beta=beta)
            for stack, which, ls in cases:
                batched = conditional_coverage(ls, sc, stack.take(which))
                for i in range(0, ls.size, 20):
                    single = conditional_coverage(float(ls[i]), sc, stack.take(which[i : i + 1]))
                    assert abs(batched[i] - single) <= 1e-13, (m, beta, N, ls[i])


class TestCoverageProbability:
    def test_two_nodes_always_covered(self, tall_dist):
        res = coverage_probability(scenario(N=2, beta=1e6), tall_dist)
        assert res.pc == 1.0
        assert res.error_estimate == 0.0
        assert res.method == "analytic"

    @pytest.mark.parametrize("N", [2, 3])
    def test_geometry_mismatch_rejected_at_every_N(self, squat_dist, N):
        with pytest.raises(DomainError, match="tabulated distribution built for"):
            coverage_probability(scenario(N=N), squat_dist)

    @pytest.mark.parametrize("N", [2, 3])
    def test_stack_of_several_tables_rejected(self, tall_mixture, N):
        # the mixture and its take views ended in numpy's concatenate ValueError
        for dist in (tall_mixture, tall_mixture.take(0)):
            with pytest.raises(DomainError, match="one pair table, not a stack of"):
                coverage_probability(scenario(N=N), dist)

    def test_vanishing_threshold(self, tall_dist):
        res = coverage_probability(scenario(beta=1e-9), tall_dist)
        assert res.pc >= 0.999
        assert res.pc == pytest.approx(1.0, abs=1e-3)

    def test_error_estimate_within_contract(self, tall_dist):
        res = coverage_probability(scenario(), tall_dist)
        assert 0.0 <= res.error_estimate <= 1e-4
        assert 0.0 <= res.pc <= 1.0

    def test_deterministic(self, tall_dist):
        first = coverage_probability(scenario(N=7, m=2.0), tall_dist)
        second = coverage_probability(scenario(N=7, m=2.0), tall_dist)
        assert first.pc == second.pc

    def test_monotone_in_beta(self, tall_dist):
        pcs = [
            coverage_probability(scenario(beta=b), tall_dist).pc
            for b in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a > b for a, b in zip(pcs, pcs[1:]))

    def test_monotone_in_fading_shape(self, squat_dist):
        pcs = [
            coverage_probability(scenario(m=m, geom=SQUAT), squat_dist).pc
            for m in (1.0, 2.0, 3.0)
        ]
        assert pcs[0] < pcs[1] < pcs[2]

    def test_degrades_with_height(self):
        # On the squat side of the aspect-ratio curve (H <= R here), raising
        # the ceiling strictly hurts coverage; MC confirms the same ordering.
        pcs = []
        for H in (20.0, 60.0, 120.0):
            geom = CylinderGeometry(R=120.0, H=H)
            sc = scenario(geom=geom)
            pcs.append(coverage_probability(sc, get_dist(geom)).pc)
        assert pcs[0] > pcs[1] > pcs[2]

    def test_scale_invariance_of_sir_coverage(self):
        # Uniformly rescaling the cylinder rescales every distance, and the
        # SIR is a ratio of powers of distances, so pc depends only on shape.
        pc_small = coverage_probability(
            scenario(geom=CylinderGeometry(R=10.0, H=20.0)),
            get_dist(CylinderGeometry(R=10.0, H=20.0)),
        ).pc
        pc_large = coverage_probability(
            scenario(geom=CylinderGeometry(R=30.0, H=60.0)),
            get_dist(CylinderGeometry(R=30.0, H=60.0)),
        ).pc
        assert pc_small == pytest.approx(pc_large, abs=1e-5)

    def test_coverage_is_not_monotone_in_aspect_ratio(self):
        # Both the pancake and the needle limit squeeze the deployment
        # toward a lower-dimensional set where the nearest node dominates
        # interference more, so coverage dips in between (H around 2R).
        # Keeps the height-trend test above honest about its chosen regime.
        def pc_at(R, H):
            geom = CylinderGeometry(R=R, H=H)
            return coverage_probability(scenario(geom=geom), get_dist(geom)).pc

        compact = pc_at(10.0, 20.0)
        pancake = pc_at(120.0, 20.0)
        needle = pc_at(10.0, 120.0)
        assert compact < pancake
        assert compact < needle

    def test_matches_monte_carlo_oracle_reference_point(self, tall_dist):
        # N=10, R=20, H=120, alpha=3, m=1, beta=1
        sc = scenario()
        res = coverage_probability(sc, tall_dist)
        est = simulate_coverage(sc, 100_000, seed=17)
        stderr = est.ci_half_width / 1.96
        assert abs(res.pc - est.mean) <= max(0.01, 3.0 * stderr)

    def test_exact_for_the_independence_model(self, squat_dist):
        # Drawing the N-1 distances i.i.d. from the pair law realizes the
        # model the analytic chain assumes; agreement is then pure Monte
        # Carlo noise even where true deployments deviate (small N).
        sc = scenario(N=3, m=2.0, geom=SQUAT, beta=10.0)
        res = coverage_probability(sc, squat_dist)
        rng = substream(456, 0)
        trials = 400_000
        d = inverse_cdf(squat_dist, rng.random((trials, sc.N - 1)))
        g = rng.gamma(2.0, 0.5, (trials, sc.N - 1))
        w = g * d**-3.0
        idx = np.argmin(d, axis=1)
        rows = np.arange(trials)
        sig = w[rows, idx]
        interference = w.sum(axis=1) - sig
        covered = (interference == 0.0) | (sig > sc.beta * interference)
        p = covered.mean()
        stderr = math.sqrt(p * (1.0 - p) / trials)
        assert abs(res.pc - p) <= 3.0 * stderr

    def test_unsupported_shape_propagates(self, tall_dist):
        with pytest.raises(UnsupportedParameterError):
            coverage_probability(scenario(m=1.5), tall_dist)
        with pytest.raises(UnsupportedParameterError):
            coverage_probability(scenario(m=6.0), tall_dist)

    def test_values_pinned_at_parent(self, tall_dist):
        # The paper-figures sweep (tall, alpha = 4), measured with one BLAS
        # thread when the outer integral was adaptive (QUADPACK, 1e-6).
        pinned = [
            (5, 0, 1, 0.7269419140548884),
            (5, 0, 2, 0.782870769816606),
            (5, 10, 1, 0.3035523613376471),
            (5, 10, 2, 0.2899171503723197),
            (20, 0, 1, 0.5125530319034143),
            (20, 0, 2, 0.5463602893943758),
            (20, 10, 1, 0.1296507721012026),
            (20, 10, 2, 0.1249992876739304),
        ]
        for N, beta_db, m, pc in pinned:
            sc = scenario(N=N, m=float(m), alpha=4.0, beta=10.0 ** (beta_db / 10.0))
            res = coverage_probability(sc, tall_dist)
            assert abs(res.pc - pc) <= 1e-6, (N, beta_db, m, res.pc)
            assert res.error_estimate <= 1e-4

    def test_paper_figures_digits_pinned(self, tall_dist):
        # The analytic rows of the paper-figures sweep (tall, alpha = 4) at
        # every digit the CSV prints: value and error estimate.  Re-taken
        # when the interferer integral took product panels above the first
        # panel edge, when survival came to be read from the table's tail,
        # and when a serving distance's own panel took partial-panel weights
        # (moves of at most 3.4e-16); none moved a value by more than 1.5e-14.
        # Re-taken when the pair law's CDF came to share the density's
        # split-angle rule: values moved by at most 6.8e-15 and error
        # estimates by at most 1.0e-15.  Re-taken when the pair table's
        # slopes became the law's density held to 3 secants and the model
        # came to read the table as its serving law: values moved by at most
        # 6.1e-10 and error estimates by at most 9.9e-10.
        pinned = [
            (5, 0, 1, 0.7269415868265969, 6.637854532698384e-08),
            (5, 0, 2, 0.7828704281353334, 7.233246890336886e-08),
            (5, 10, 1, 0.30355206968289844, 8.45209419120252e-09),
            (5, 10, 2, 0.2899168583075332, 4.331006664415327e-09),
            (20, 0, 1, 0.5125526437902821, 2.325251102774928e-09),
            (20, 0, 2, 0.546359864732506, 1.0337627420753392e-09),
            (20, 10, 1, 0.12965059404184237, 7.034833826580211e-11),
            (20, 10, 2, 0.12499913052834583, 2.567507040307504e-10),
        ]
        for N, beta_db, m, pc, err in pinned:
            sc = scenario(N=N, m=float(m), alpha=4.0, beta=10.0 ** (beta_db / 10.0))
            res = coverage_probability(sc, tall_dist)
            assert (res.pc, res.error_estimate) == (pc, err), (N, beta_db, m, res)

    @pytest.mark.parametrize("r, z", [(7.0, 60.0), (0.0, 60.0)])
    def test_plain_table_serves_its_own_law(self, r, z):
        # A table of the constructor serves itself, with no kink past 0, so
        # on a receiver table the paper model is that receiver's exact model.
        table = receiver_table(TALL, r, z)
        sc = scenario(N=20, m=3.0, alpha=4.0, beta=10.0)
        res = coverage_probability(sc, table)
        one = ReceiverMixture(TALL, [[r, z]], [1.0], [(table.grid, table.cdf_values, table.slopes)])
        one.check = one
        ref = exact_coverage_probability(sc, one)
        assert abs(res.pc - ref.pc) <= res.error_estimate + ref.error_estimate, (res, ref)

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES)
    def test_matches_cell_aligned_reference(self, geom):
        # Reference: 4 Gauss points in every knot cell up to the last knot
        # above the survival floor, where the rule stops, with the
        # conditional coverage evaluated at each of them.
        dist = get_dist(geom)
        cells = dist.grid[dist.grid <= dist.ends[0]]
        x, w = np.polynomial.legendre.leggauss(4)
        halves = 0.5 * np.diff(cells)
        l = (0.5 * (cells[1:] + cells[:-1]))[:, None] + halves[:, None] * x
        weights = halves[:, None] * w
        live = dist.sf(l) >= 1e-12
        l, weights = l[live], weights[live]
        for N in (3, 20, 80):
            density = weights * (N - 1) * dist.sf(l) ** (N - 2) * dist.pdf(l)
            for m in (1, 3, 5):
                sc = scenario(N=N, m=float(m), alpha=4.0, geom=geom, beta=10.0)
                ref = float(np.sum(density * conditional_coverage(l, sc, dist)))
                res = coverage_probability(sc, dist)
                gap = abs(res.pc - ref)
                assert gap <= min(res.error_estimate + 1e-8, 1e-6), (N, m, res, ref)
                assert res.error_estimate <= 1e-4

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_error_estimate_bounds_a_finer_rule(self, geom):
        dist = get_dist(geom)
        for N, m, alpha in product((3, 5, 80), (1, 5), (3.0, 4.0)):
            sc = scenario(N=N, m=float(m), alpha=alpha, geom=geom, beta=1.0)
            res = coverage_probability(sc, dist)
            ref = finer_paper_rule(sc, dist)
            assert abs(res.pc - ref) <= res.error_estimate + 2e-8, (N, m, alpha, res, ref)

    def test_coarse_grid_changes_little(self):
        geom = CylinderGeometry(R=40.0, H=40.0)
        sc = scenario(geom=geom)
        coarse = coverage_probability(sc, get_dist(geom, 64)).pc
        fine = coverage_probability(sc, get_dist(geom, 2048)).pc
        assert abs(coarse - fine) <= 1e-3


class TestSmallThresholds:
    @pytest.mark.parametrize("geom", [SQUAT, NEEDLE, CUBIC], ids=str)
    def test_both_models_return_within_the_contract(self, geom):
        # At small beta the series sums to nearly 1 at every serving
        # distance, and the conditional interferer law divides by 1 - F(l),
        # down to 1e-12 at the end of the rule's range: a relative error
        # past 1e-9 in that survival can leave the series outside [0, 1 + 1e-9].
        dist, mix = get_dist(geom), get_mixture(geom)
        for N, m, beta, alpha in product((3, 5), (3, 5), (1e-3, 1e-2), (3.0, 4.0)):
            sc = scenario(N=N, m=float(m), alpha=alpha, geom=geom, beta=beta)
            for res in (coverage_probability(sc, dist), exact_coverage_probability(sc, mix)):
                assert 0.0 <= res.pc <= 1.0, (N, m, beta, alpha, res)
                assert res.error_estimate <= 1e-4, (N, m, beta, alpha, res)


class TestGeometrySeam:
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("N", [3, 10, 40])
    def test_paper_model_in_a_ball(self, N, m):
        # The stack carries the ball's law, kinks and weight, and the
        # geometry nothing but d_max and equality: the analytic path reads
        # no cylinder.  Against the i.i.d. Monte Carlo, |z| stayed within
        # 1.35 at 2e5 trials on all six points.
        ball = Ball(d_max=20.0)
        sc = NetworkScenario(N=N, geom=ball, channel=ChannelModel(alpha=4.0, m=float(m)), beta=1.0)
        res = coverage_probability(sc, BallPairTable(ball))
        p, stderr = simulate_ball_coverage(sc, 100_000, seed=31 + N + m, iid=True)
        assert abs(res.pc - p) <= 4.0 * stderr + res.error_estimate, (res.pc, p, stderr)


@pytest.fixture(scope="module")
def ball_rules():
    """The ball's receiver rule (12 radii, checked by 9) and its closed-form reference rule.

    The reference serves the closed-form law on 48 radii and 4,096-knot
    tables; at Gauss order 24 it agreed with 96 radii, 8,192 knots and
    order 32 within 5e-14 at six points.
    """
    ball = Ball(d_max=20.0)
    return BallMixture(ball, 12, check=BallMixture(ball, 9)), BallLawMixture(ball, 48, knots=4096)


class TestBall:
    """The exact model in a ball, whose receiver law has a closed form (Hammersley, 1950)."""

    @pytest.mark.parametrize("s", [0.0, 2.5, 9.0, 10.0])
    def test_receiver_law_matches_draws(self, s):
        # distances from a receiver at radius s to 2e5 uniform points: a KS
        # test of F, and the density's integral over 25 bins, cut at the
        # kink R - s, against F and against the binned counts
        ball, n = Ball(d_max=20.0), 200_000
        d = np.linalg.norm(_ball_points(np.random.default_rng(17), 10.0, (n,)) - [s, 0.0, 0.0], axis=1)
        assert kstest(d, lambda x: ball_receiver_law(ball, s, x)[0]).statistic <= 1.95 / math.sqrt(n)
        edges = np.union1d(np.linspace(0.0, 10.0 + s, 26), 10.0 - s)
        nodes, weights = _gauss_on_panels(edges, *np.polynomial.legendre.leggauss(8))
        mass = np.sum((weights * ball_receiver_law(ball, s, nodes)[1]).reshape(-1, 8), axis=1)
        assert np.max(np.abs(mass - np.diff(ball_receiver_law(ball, s, edges)[0]))) <= 1e-13
        counts = np.histogram(d, edges)[0]
        assert np.all(np.abs(counts - n * mass) <= 4.5 * np.sqrt(n * mass * (1.0 - mass)) + 1.0)

    def test_tables_end_where_their_law_does(self, ball_rules):
        rule, _ = ball_rules
        s = rule.nodes[:, 0]
        assert [v.grid[-1] for v in tables_of(rule)] == (10.0 + s).tolist()
        assert rule.kinks.tolist() == np.column_stack((0.0 * s, 10.0 - s, 10.0 + s)).tolist()
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("N", [3, 10, 40])
    def test_exact_model_matches_deployments(self, ball_rules, N, m):
        # N uniform points in the ball, the first the receiver; in a probe
        # at 2e5 trials the six points fell within 1.84 sigma
        ball = Ball(d_max=20.0)
        sc = NetworkScenario(N=N, geom=ball, channel=ChannelModel(alpha=4.0, m=float(m)), beta=1.0)
        res = exact_coverage_probability(sc, ball_rules[0])
        p, stderr = simulate_ball_coverage(sc, 200_000, seed=41 + N + m)
        assert abs(res.pc - p) <= max(3.0 * stderr, res.error_estimate), (res.pc, p, stderr)

    def test_exact_model_within_the_contract_of_the_closed_form_law(self, ball_rules, monkeypatch):
        # Every value returned lies within the 1e-4 contract of the
        # reference; at 3 of the 70 that return, the error exceeds the
        # estimate (by at most 1.8 times, to at most 2.2e-5), and two
        # points at N = 80 raise past the contract.
        rule, reference = ball_rules
        monkeypatch.setitem(_GAUSS_RULES, 24, np.polynomial.legendre.leggauss(24))
        for N, alpha, m, beta in product((3, 10, 40, 80), (3.0, 4.0), (1, 3, 5), (0.1, 1.0, 10.0)):
            sc = NetworkScenario(N=N, geom=rule.geometry,
                                 channel=ChannelModel(alpha=alpha, m=float(m)), beta=beta)
            try:
                res = exact_coverage_probability(sc, rule)
            except RuntimeError:
                assert N == 80, (N, alpha, m, beta)
                continue
            ref = _serving_integral(sc, reference, 24)[0]
            assert abs(res.pc - ref) <= COVERAGE_CONTRACT, (N, alpha, m, beta, res, ref)


class TestExactCoverage:
    def test_two_nodes_always_covered(self, tall_mixture):
        res = exact_coverage_probability(scenario(N=2, beta=1e6), tall_mixture)
        assert (res.pc, res.error_estimate, res.method) == (1.0, 0.0, "analytic-exact")

    def test_geometry_mismatch_rejected(self, squat_mixture):
        with pytest.raises(DomainError):
            exact_coverage_probability(scenario(geom=TALL), squat_mixture)

    def test_check_rule_required(self, tall_mixture):
        with pytest.raises(DomainError):
            exact_coverage_probability(scenario(), tall_mixture.check)

    @pytest.mark.parametrize("N", [2, 3])
    def test_pair_table_has_no_check_rule(self, tall_dist, N):
        # it raised AttributeError: no attribute 'check'
        with pytest.raises(DomainError, match="check rule"):
            exact_coverage_probability(scenario(N=N), tall_dist)

    @pytest.mark.parametrize("which", [3, np.array([3])], ids=["scalar", "array"])
    def test_take_view_rejected(self, tall_mixture, which):
        # it returned the whole mixture's 0.7184106916473489, not receiver 3's
        sc = scenario(N=5, alpha=4.0, beta=1.0)
        with pytest.raises(DomainError, match=r"take\(which\)"):
            exact_coverage_probability(sc, tall_mixture.take(which))

    def test_two_nodes_still_checks_inputs(self, squat_mixture, tall_mixture):
        with pytest.raises(DomainError):
            exact_coverage_probability(scenario(N=2, geom=TALL), squat_mixture)
        with pytest.raises(DomainError, match="check rule"):
            exact_coverage_probability(scenario(N=2), tall_mixture.check)

    def test_unsupported_shape_propagates(self, tall_mixture):
        with pytest.raises(UnsupportedParameterError):
            exact_coverage_probability(scenario(m=1.5), tall_mixture)

    def test_deterministic_with_error_within_contract(self, tall_mixture):
        first = exact_coverage_probability(scenario(N=7, m=2.0), tall_mixture)
        second = exact_coverage_probability(scenario(N=7, m=2.0), tall_mixture)
        assert first.pc == second.pc
        assert first.method == "analytic-exact"
        assert 0.0 < first.error_estimate <= 1e-4

    def test_matches_deployments_where_the_paper_model_does_not(self, tall_mixture, tall_dist):
        # N = 3 is the corner where the i.i.d. model is biased high by ~0.02;
        # conditioning on the receiver removes the bias down to MC noise.
        sc = scenario(N=3, m=2.0, beta=10.0)
        est = simulate_coverage(sc, 200_000, seed=29)
        stderr = est.ci_half_width / 1.96
        exact = exact_coverage_probability(sc, tall_mixture).pc
        paper = coverage_probability(sc, tall_dist).pc
        assert abs(exact - est.mean) <= 3.0 * stderr
        assert paper - est.mean > 10.0 * stderr

    @pytest.mark.parametrize("N, alpha, m, beta", [(10, 4.0, 1, 1.0), (10, 4.0, 3, 10.0)])
    def test_thin_needle_matches_deployments(self, N, alpha, m, beta):
        # At R = 0.01, H = 1000 the receiver law lost F_x to cancellation
        # next to a face, and both points raised "coverage series ... sums
        # to"; now they return 0.819626 and 0.529859, within 1.3 sigma
        geom = CylinderGeometry(R=0.01, H=1000.0)
        sc = scenario(N=N, m=float(m), alpha=alpha, geom=geom, beta=beta)
        res = exact_coverage_probability(sc, build_receiver_cdfs(geom))
        est = simulate_coverage(sc, 200_000, seed=1)
        stderr = est.ci_half_width / 1.96
        assert abs(res.pc - est.mean) <= max(3.0 * stderr, res.error_estimate), (res, est)

    def test_values_pinned_at_parent(self, squat_mixture, tall_mixture):
        # Measured with one BLAS thread once the exact rule split its panels
        # at the serving survival 0.9.  Each value is within its error
        # estimate of the same splits at Gauss order 16; the last two points
        # raised past the contract without that split.  All were re-taken
        # when the receiver tables took the exact density as their knot
        # slopes and became the serving law: they moved by at most 4.6e-7
        # (tall, N = 10), each within its estimate.
        pinned = [
            (squat_mixture, SQUAT, 3, 1, 0.1, 0.9688525895162465),
            (squat_mixture, SQUAT, 10, 2, 1.0, 0.5734282831492025),
            (squat_mixture, SQUAT, 20, 4, 3.0, 0.23569325309615155),
            (squat_mixture, SQUAT, 40, 5, 10.0, 0.06242781548484699),
            (tall_mixture, TALL, 3, 5, 10.0, 0.35834208731677086),
            (tall_mixture, TALL, 10, 1, 0.3, 0.7534358122121569),
            (tall_mixture, TALL, 20, 3, 10.0, 0.049967265723531024),
            (tall_mixture, TALL, 40, 2, 1.0, 0.3078824989648322),
            (tall_mixture, TALL, 80, 3, 10.0, 0.029253641353172884),
            (tall_mixture, TALL, 40, 5, 10.0, 0.03616954117033068),
        ]
        for mixture, geom, N, m, beta, pc in pinned:
            res = exact_coverage_probability(
                scenario(N=N, m=float(m), geom=geom, beta=beta), mixture
            )
            assert abs(res.pc - pc) <= 1e-12, (geom, N, m, beta, res.pc)
            assert res.error_estimate <= 1e-4

    @settings(max_examples=12, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        picks=st.lists(st.integers(0, 71), max_size=6, unique=True),
        N=st.sampled_from([3, 10, 40, 80]),
        m=st.sampled_from([1, 3, 5]),
        beta=st.sampled_from([0.3, 10.0]),
    )
    def test_stacked_pass_matches_per_receiver_oracle(self, geom, picks, N, m, beta):
        # The receivers with the fewest and the most knots make the stack
        # ragged (257 to 263 knots), so some rows carry padding nodes.
        mix = get_mixture(geom)
        sizes = [t.grid.size for t in tables_of(mix)]
        index = sorted({*picks, int(np.argmin(sizes)), int(np.argmax(sizes))})
        sc = scenario(N=N, m=float(m), geom=geom, beta=beta)
        r, z = mix.nodes[index].T
        weights = mix.weights[index]
        stack = ReceiverMixture(geom, mix.nodes[index], weights / weights.sum(),
                                [(t.grid, t.cdf_values, t.slopes) for t in map(mix.take, index)])
        # the rule's own weights, as the oracle's, and the exact law
        stack.weights = weights
        stack.serving_law = lambda which, l: receiver_distance_law(geom, r[which], z[which], l)
        value, tail = _serving_integral(sc, stack, EXACT_ORDER)
        ref_value, ref_tail = per_receiver_oracle(sc, mix, index)
        assert abs(value - ref_value) <= 1e-15, (value, ref_value)
        assert abs(tail - ref_tail) <= 1e-15, (tail, ref_tail)

    @pytest.mark.parametrize("beta", [1.0, 10.0])
    @pytest.mark.parametrize("N", [3, 10, 40])
    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_tabulation_gap_within_the_estimate(self, geom, N, beta):
        # The tables stand in for the exact law as the serving law; the
        # same rule under the exact law moves the value by far less than
        # the returned estimate (at most 0.63 of it, on the needle at N = 3).
        mix = get_mixture(geom)
        sc = scenario(N=N, m=3.0, geom=geom, beta=beta)
        res = exact_coverage_probability(sc, mix)
        r, z = mix.nodes.T
        exact = copy.copy(mix)
        exact.serving_law = lambda which, l: receiver_distance_law(geom, r[which], z[which], l)
        value = {
            name: _serving_integral(sc, stack, EXACT_ORDER)[0]
            for name, stack in (("exact", exact), ("table", mix))
        }
        assert value["table"] == res.pc
        assert abs(value["exact"] - value["table"]) <= res.error_estimate

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=str)
    def test_padding_nodes_weigh_exactly_zero(self, geom):
        # Row t of the stacked panel rule of ratio 2^(1/k) ends with the
        # panels of table t, those of a one-table stack of it, and its
        # stored knots' weights, cell counts and columns are that stack's
        # too.  The columns to the left of its panels pad the row at d_max,
        # where the kernel is finite, so with weight 0 they add exactly 0.
        # At k = 40 no receiver table has a panel: the rule is the cell rule
        # to each table's top edge.
        mix = get_mixture(geom)
        for k in (1, 2, 4, 40):
            nodes, weights, partial, count, column, anchor = mix._layout(k)
            pad, first_row = np.zeros(nodes.shape, dtype=bool), 0
            for t, table in enumerate(tables_of(mix)):
                own = TabulatedDistribution(geom, table.grid, table.cdf_values, table.slopes)
                own_nodes, own_weights, own_partial, own_count, own_column, own_anchor = (
                    own._layout(k)
                )
                panels = slice(nodes.shape[1] - own_nodes.shape[1], nodes.shape[1])
                assert np.array_equal(nodes[t, panels], own_nodes[0])
                assert np.array_equal(weights[t, panels], own_weights[0])
                pad[t, : panels.start] = True
                rows = slice(first_row, first_row + own_partial.shape[0])
                assert np.array_equal(partial[rows], own_partial)
                first_row = rows.stop
                n = table.grid.size - 1
                assert np.array_equal(count[t, :n], own_count[0])
                assert np.array_equal(column[t, :n] - panels.start, own_column[0])
                assert np.array_equal(anchor[t, :n] - np.where(anchor[t, :n] < 0, 0, rows.start),
                                      own_anchor[0])
            assert first_row == partial.shape[0]
            if k < 40:  # at k = 4 the tables of every regime differ in panels
                assert not pad.all(axis=1).any() and (pad.any() or k != 4)
            else:
                top = [int(np.searchsorted(t.cdf_values, t.cdf_values[-1])) for t in tables_of(mix)]
                cells = np.arange(count.shape[1])
                assert nodes.shape[1] == 0 and not partial.size and np.all(anchor == -1)
                for t, n in enumerate(top):
                    assert np.array_equal(count[t, :n], n - 1 - cells[:n])
            assert np.all(nodes[pad] == geom.d_max)
            assert np.all(weights[pad] == 0.0)

    def test_work_and_memory_of_the_interferer_integral(self, tall_mixture, monkeypatch):
        # At tall, N = 40, m = 2, beta = 1, alpha = 3 the interferer integral
        # evaluated 3,156,336 integrand elements (rows x limits x nodes) when
        # a limit's own panel took the cell rule up to its edge; partial-panel
        # weights must keep it to 60 % of that.  The layouts of ratio 2 of
        # the tall mixture and its check rule held 2.96 MB (1.82 + 1.14).
        elements = []
        integrate = TabulatedDistribution.integrate_pdf_product

        def counting(stack, lo, rows_fn, rows, alpha):
            def counted(x, sel):
                out = rows_fn(x, sel)
                elements.append(out.size)
                return out

            return integrate(stack, lo, counted, rows, alpha)

        monkeypatch.setattr(TabulatedDistribution, "integrate_pdf_product", counting)
        exact_coverage_probability(scenario(N=40, m=2.0, alpha=3.0, beta=1.0), tall_mixture)
        assert 0 < sum(elements) <= 0.6 * 3_156_336, sum(elements)
        held = sum(a.nbytes for rule in (tall_mixture, tall_mixture.check) for a in rule._layouts[1])
        assert held <= 2_962_464, held

    def test_scale_invariance(self):
        # SIR coverage depends on the cylinder's shape only
        small = CylinderGeometry(R=25.0, H=25.0)
        sc_small = scenario(N=4, geom=small)
        sc_large = scenario(N=4, geom=CUBIC)
        pc_small = exact_coverage_probability(sc_small, build_receiver_cdfs(small)).pc
        pc_large = exact_coverage_probability(sc_large, get_mixture(CUBIC)).pc
        assert pc_small == pytest.approx(pc_large, abs=1e-9)
