"""Coverage probability: edge cases, trends, and oracle agreement."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CUBIC, REGIME_GEOMETRIES, SQUAT, TALL, get_dist, get_mixture, inverse_cdf
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
    ppp_model_from_scenario,
    simulate_coverage,
)
from cylcov.coverage import _SPLITS, _within_contract
from cylcov.distance import _gauss_on_panels, pair_distance_law
from cylcov.simulation import substream


def scenario(N=10, m=1.0, alpha=3.0, geom=TALL, beta=1.0):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


def finer_paper_rule(sc, dist, order=24, halvings=3):
    """The paper model's serving-distance integral on its panels halved, at a higher Gauss order.

    The panels are those of the rule: from 0 to the last knot whose
    survival is above the floor, cut at 2R, H and the survival splits.
    """
    geom, n = sc.geom, sc.N
    end = dist.grid[np.searchsorted(dist.grid, dist.survival_cutoff()) - 1]
    splits = np.interp(1.0 - _SPLITS ** (1.0 / (n - 1)), dist.cdf_values, dist.grid)
    edges = np.union1d([0.0, end], np.clip([2.0 * geom.R, geom.H, *splits], 0.0, end))
    for _ in range(halvings):
        edges = np.union1d(edges, 0.5 * (edges[1:] + edges[:-1]))
    nodes, weights = _gauss_on_panels(edges, *np.polynomial.legendre.leggauss(order))
    cdf, pdf = pair_distance_law(geom, nodes)
    density = weights * (n - 1) * (1.0 - cdf) ** (n - 2) * pdf
    live = density > 0.0
    return float(np.sum(density[live] * conditional_coverage(nodes[live], sc, dist)))


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
            ppp_coverage(ppp_model_from_scenario(sc)),
        ):
            assert type(res.pc) is float, res.method
            assert type(res.error_estimate) is float, res.method


class TestConditionalCoverage:
    def test_rayleigh_case_is_single_transform_value(self, tall_dist):
        sc = scenario(m=1.0)
        l = 0.3 * TALL.d_max
        t = sc.beta * l**3
        expected = laplace_with_derivatives(t, l, sc, tall_dist).value
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
        last = int(np.searchsorted(grid, dist.survival_cutoff())) - 1
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


class TestCoverageProbability:
    def test_two_nodes_always_covered(self, tall_dist):
        res = coverage_probability(scenario(N=2, beta=1e6), tall_dist)
        assert res.pc == 1.0
        assert res.error_estimate == 0.0
        assert res.method == "analytic"

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

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES)
    def test_matches_cell_aligned_reference(self, geom):
        # Reference: 4 Gauss points in every knot cell up to the survival
        # cutoff, with the conditional coverage evaluated at each of them.
        dist = get_dist(geom)
        cells = dist.grid[dist.grid <= dist.survival_cutoff()]
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

    def test_values_pinned_at_parent(self, squat_mixture, tall_mixture):
        # Measured with one BLAS thread once the exact rule split its panels
        # at the serving survival 0.9.  Each value is within its error
        # estimate of the same splits at Gauss order 16; the last two points
        # raised past the contract without that split.  The first was
        # re-taken when the rule stopped at the table's last knot above the
        # survival floor (it moved 3.9e-9, within its 1.2e-5 estimate).  All
        # were re-taken when the interferer integral went from 10 to 4 Gauss
        # points per knot cell; none moved by more than 2.8e-12.
        pinned = [
            (squat_mixture, SQUAT, 3, 1, 0.1, 0.968852704144937),
            (squat_mixture, SQUAT, 10, 2, 1.0, 0.5734282653086094),
            (squat_mixture, SQUAT, 20, 4, 3.0, 0.2356933194792271),
            (squat_mixture, SQUAT, 40, 5, 10.0, 0.06242783428633797),
            (tall_mixture, TALL, 3, 5, 10.0, 0.35834178643807585),
            (tall_mixture, TALL, 10, 1, 0.3, 0.7534353560698226),
            (tall_mixture, TALL, 20, 3, 10.0, 0.049967255574251385),
            (tall_mixture, TALL, 40, 2, 1.0, 0.30788260572976467),
            (tall_mixture, TALL, 80, 3, 10.0, 0.02925360889304234),
            (tall_mixture, TALL, 40, 5, 10.0, 0.036169540147179595),
        ]
        for mixture, geom, N, m, beta, pc in pinned:
            res = exact_coverage_probability(
                scenario(N=N, m=float(m), geom=geom, beta=beta), mixture
            )
            assert abs(res.pc - pc) <= 1e-12, (geom, N, m, beta, res.pc)
            assert res.error_estimate <= 1e-4

    def test_scale_invariance(self):
        # SIR coverage depends on the cylinder's shape only
        small = CylinderGeometry(R=25.0, H=25.0)
        sc_small = scenario(N=4, geom=small)
        sc_large = scenario(N=4, geom=CUBIC)
        pc_small = exact_coverage_probability(sc_small, build_receiver_cdfs(small)).pc
        pc_large = exact_coverage_probability(sc_large, get_mixture(CUBIC)).pc
        assert pc_small == pytest.approx(pc_large, abs=1e-9)
