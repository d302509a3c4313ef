"""Monte Carlo oracle: sampling laws, determinism, convergence."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from conftest import NEEDLE, REGIME_GEOMETRIES, SQUAT, TALL, sample_points
from cylcov import (
    ChannelModel,
    CylinderGeometry,
    DomainError,
    NetworkScenario,
    empirical_distance_histogram,
    ppp_model_from_scenario,
    simulate_coverage,
    simulate_ppp_coverage,
)
from cylcov.simulation import _link_distances_squared, sample_pair_distances, substream

GEOM = CylinderGeometry(R=12.0, H=30.0)


def scenario(N=10, m=1.0, beta=1.0, geom=GEOM, alpha=3.0):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


class TestSamplePoint:
    def test_single_point_inside(self):
        for x, y, z in sample_points(substream(1, 0), GEOM, 50):
            assert x * x + y * y <= GEOM.R**2 * (1 + 1e-12)
            assert 0.0 <= z <= GEOM.H

    def test_height_uniform(self):
        n = 1_000_000
        pts = sample_points(substream(2, 0), GEOM, n)
        z = pts[:, 2]
        stderr = GEOM.H / math.sqrt(12.0 * n)
        assert abs(z.mean() - GEOM.H / 2.0) <= 3.0 * stderr

    def test_radius_area_uniform(self):
        n = 1_000_000
        pts = sample_points(substream(3, 0), GEOM, n)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        # r^2 is uniform on [0, R^2] for an area-uniform disk
        stderr = GEOM.R**2 / math.sqrt(12.0 * n)
        assert abs(r2.mean() - GEOM.R**2 / 2.0) <= 3.0 * stderr

    def test_angle_symmetry(self):
        n = 500_000
        pts = sample_points(substream(4, 0), GEOM, n)
        stderr = GEOM.R / math.sqrt(n)
        assert abs(pts[:, 0].mean()) <= 3.0 * stderr
        assert abs(pts[:, 1].mean()) <= 3.0 * stderr


class TestSampleFadingGain:
    def test_rejects_invalid_shape(self):
        # the simulator draws Gamma(m, 1/m) gains; shapes below 0.5 are not Nakagami
        with pytest.raises(DomainError):
            scenario(m=0.3)
        est = simulate_coverage(scenario(N=4, m=0.5), 2_000, seed=5)
        assert 0.0 < est.mean < 1.0

    @pytest.mark.parametrize("m,var", [(1.0, 1.0), (3.0, 1.0 / 3.0)])
    def test_moments(self, m, var):
        rng = substream(6, 0)
        draws = rng.gamma(m, 1.0 / m, 1_000_000)
        n = draws.size
        assert abs(draws.mean() - 1.0) <= 3.0 * draws.std() / math.sqrt(n)
        sample_var = draws.var()
        # stderr of the variance estimate from the empirical fourth moment
        fourth = np.mean((draws - draws.mean()) ** 4)
        var_stderr = math.sqrt(max(fourth - sample_var**2, 0.0) / n)
        assert abs(sample_var - var) <= 3.0 * var_stderr

    def test_tail_matches_series(self):
        m, x, n = 2.0, 1.0, 1_000_000
        rng = substream(8, 0)
        draws = rng.gamma(m, 1.0 / m, n)
        freq = float(np.mean(draws > x))
        stderr = math.sqrt(freq * (1.0 - freq) / n)
        assert abs(freq - gammaincc(m, m * x)) <= 3.0 * stderr


class TestHistogram:
    def test_bin_masses_sum_to_one(self):
        est = empirical_distance_histogram(GEOM, 50_000, 64, seed=9)
        widths = GEOM.d_max / 64
        assert float(np.sum(est.mean * widths)) == pytest.approx(1.0, abs=1e-12)
        assert est.trials == 50_000
        assert np.all(est.ci_half_width >= 0.0)

    def test_rejects_thin_sampling(self):
        with pytest.raises(DomainError):
            empirical_distance_histogram(GEOM, 5_000, 64, seed=9)

    def test_deterministic(self):
        a = empirical_distance_histogram(GEOM, 20_000, 32, seed=10)
        b = empirical_distance_histogram(GEOM, 20_000, 32, seed=10)
        assert np.array_equal(a.mean, b.mean)


class TestSimulateCoverage:
    def test_two_nodes_always_covered(self):
        est = simulate_coverage(scenario(N=2, beta=1e9), 2_000, seed=11)
        assert est.mean == 1.0

    def test_tiny_threshold_always_covered(self):
        est = simulate_coverage(scenario(beta=1e-9), 5_000, seed=12)
        assert est.mean == 1.0

    def test_bit_reproducible(self):
        # includes a partial trailing block (trials not a BLOCK multiple)
        a = simulate_coverage(scenario(), 5_000, seed=13)
        b = simulate_coverage(scenario(), 5_000, seed=13)
        assert a.mean == b.mean
        assert a.ci_half_width == b.ci_half_width

    def test_seed_changes_stream(self):
        a = simulate_coverage(scenario(), 20_000, seed=14)
        b = simulate_coverage(scenario(), 20_000, seed=15)
        assert a.mean != b.mean

    def test_ci_formula(self):
        est = simulate_coverage(scenario(), 30_000, seed=16)
        p = est.mean
        assert est.ci_half_width == pytest.approx(
            1.96 * math.sqrt(p * (1.0 - p) / est.trials), rel=1e-12
        )

    def test_convergence_rate(self):
        base = simulate_coverage(scenario(), 25_000, seed=17)
        quad_trials = simulate_coverage(scenario(), 100_000, seed=17)
        ratio = base.ci_half_width / quad_trials.ci_half_width
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_receiver_choice_immaterial(self):
        fixed = simulate_coverage(scenario(), 100_000, seed=18, receiver="first")
        randomized = simulate_coverage(scenario(), 100_000, seed=19, receiver="random")
        joint = math.hypot(fixed.ci_half_width, randomized.ci_half_width) / 1.96
        assert abs(fixed.mean - randomized.mean) <= 3.0 * joint

    def test_receiver_mode_validated(self):
        with pytest.raises(DomainError):
            simulate_coverage(scenario(), 100, seed=20, receiver="last")

    def test_fractional_shape_supported(self):
        # the simulator handles shapes the analytic path rejects
        est = simulate_coverage(scenario(m=1.5), 20_000, seed=21)
        assert 0.0 < est.mean < 1.0

    @pytest.mark.parametrize(
        "N, m, beta, receiver, covered",
        [
            (3, 1.0, 0.1, "first", 9628),
            (3, 1.0, 0.1, "random", 9657),
            (20, 2.5, 1.0, "first", 3439),
            (20, 2.5, 1.0, "random", 3442),
        ],
    )
    def test_counts_keep_their_streams(self, N, m, beta, receiver, covered):
        # covered-trial counts of the (n, 3)-array implementation, over two
        # full blocks and a partial one; the draw order must not change
        est = simulate_coverage(scenario(N=N, m=m, beta=beta), 10_000, seed=31, receiver=receiver)
        assert round(est.mean * est.trials) == covered

    @pytest.mark.parametrize(
        "geom, N, m, alpha, beta, receiver, covered",
        [
            (SQUAT, 2, 1.0, 3.0, 1e3, "random", 10_000),
            (NEEDLE, 2, 0.5, 4.0, 1e3, "first", 10_000),
            (SQUAT, 12, 0.5, 3.0, 0.2, "first", 7163),
            (SQUAT, 12, 0.5, 4.0, 0.2, "random", 7782),
            (NEEDLE, 6, 1.5, 4.0, 2.0, "first", 7032),
            (NEEDLE, 6, 2.5, 3.0, 2.0, "random", 6256),
        ],
    )
    def test_more_counts_keep_their_streams(self, geom, N, m, alpha, beta, receiver, covered):
        # counts of the Cartesian kernel: one link and no interference (N = 2),
        # the Gamma branch below shape 1, alpha = 4, flat and thin regimes
        sc = scenario(N=N, m=m, beta=beta, geom=geom, alpha=alpha)
        est = simulate_coverage(sc, 10_000, seed=31, receiver=receiver)
        assert round(est.mean * est.trials) == covered


class TestSeeds:
    # A Philox key word holds an integer in [0, 2^64); anything else used to
    # go through int(), which truncates a fraction and casts a negative
    # number to whatever the platform gives.
    BAD = [-1, -(2**63), np.int64(-1), 2**64, 1.5, 2.0, float("nan"), True, "3", None]

    @pytest.mark.parametrize("seed", BAD, ids=repr)
    def test_every_estimator_rejects_the_seed(self, seed):
        sc = scenario()
        calls = [
            lambda: simulate_coverage(sc, 100, seed),
            lambda: simulate_ppp_coverage(ppp_model_from_scenario(sc), GEOM, 100, seed),
            lambda: empirical_distance_histogram(GEOM, 10_000, 8, seed),
            lambda: sample_pair_distances(GEOM, 10, seed),
            lambda: substream(seed, 0),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=re.escape(f"seed={seed!r}")):
                call()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)], ids=repr)
    def test_range_ends_and_numpy_integers_accepted(self, seed):
        a = simulate_coverage(scenario(), 5_000, seed)
        b = simulate_coverage(scenario(), 5_000, int(seed))
        assert a.mean == b.mean

    def test_high_seeds_keep_their_low_bits(self):
        # keyed through float64 these two seeds gave one stream
        a = substream(2**64 - 1025, 0).random(4)
        b = substream(2**64 - 2048, 0).random(4)
        assert not np.array_equal(a, b)


class _FixedDraws:
    """Stands in for a Generator whose next uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def _cartesian_d2(u, geom):
    """Squared distances from node 0 to nodes 1.. of each row of draws u, via x, y, z."""
    trials, N, _ = u.shape
    pts = sample_points(_FixedDraws(u.reshape(-1, 3)), geom, trials * N).reshape(u.shape)
    return np.sum((pts[:, 1:] - pts[:, :1]) ** 2, axis=-1)


# bound on |polar - Cartesian| squared distance, relative to d_max^2; the largest
# measured over 1.9e6 links per regime is 6.3e-16
LINK_D2_TOL = 4e-15


class TestLinkDistances:
    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=lambda g: f"R{g.R:g}-H{g.H:g}")
    def test_matches_sampled_points(self, geom):
        trials, N = 5_000, 20
        u = substream(41, 0).random((trials * N, 3)).reshape(trials, N, 3)
        cartesian = _cartesian_d2(u, geom)
        d2 = _link_distances_squared(u[:, 0], u[:, 1:], geom)
        assert d2.shape == (trials, N - 1)
        assert np.all(d2 >= 0.0)
        assert np.max(np.abs(d2 - cartesian)) <= LINK_D2_TOL * geom.d_max**2

    @settings(max_examples=300, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        rho=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1.0))] * 2),
        angles=st.one_of(
            st.floats(0.0, 1.0).map(lambda v: (v, v)),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            # gaps near +1 and -1: nearly the same direction across the branch cut
            st.tuples(st.floats(0.0, 1e-6), st.floats(0.0, 1e-6)).flatmap(
                lambda ab: st.sampled_from(((ab[0], 1.0 - ab[1]), (1.0 - ab[1], ab[0])))
            ),
        ),
        w=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_polar_form_property(self, geom, rho, angles, w):
        u = np.array([[[rho[0], angles[0], w[0]], [rho[1], angles[1], w[1]]]])
        d2 = _link_distances_squared(u[:, 0], u[:, 1:], geom)
        assert d2[0, 0] >= 0.0
        assert abs(d2[0, 0] - _cartesian_d2(u, geom)[0, 0]) <= LINK_D2_TOL * geom.d_max**2


def test_pair_distances_keep_their_bits():
    from cylcov import sample_pair_distances
    from cylcov.simulation import BLOCK_TRIALS

    d = sample_pair_distances(GEOM, 10_000, seed=31)
    # the same draws through the (n, 3) point array and np.linalg.norm
    parts = []
    for index, size in enumerate((BLOCK_TRIALS, BLOCK_TRIALS, 10_000 - 2 * BLOCK_TRIALS)):
        pts = sample_points(substream(31, index), GEOM, 2 * size)
        parts.append(np.linalg.norm(pts[:size] - pts[size:], axis=1))
    assert np.array_equal(d, np.concatenate(parts))
    # checksum of the stream as first drawn
    assert float(d.sum()) == pytest.approx(160620.7893477158, rel=1e-13)
    assert float(np.sum(d * d)) == pytest.approx(2959842.873975744, rel=1e-13)


def test_pair_sampling_matches_tabulated_cdf(tall_dist):
    from scipy.stats import kstest

    from cylcov import sample_pair_distances

    d = sample_pair_distances(TALL, 200_000, seed=22)
    assert kstest(d, tall_dist.cdf).statistic <= 0.004
