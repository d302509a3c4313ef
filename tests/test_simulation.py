"""Monte Carlo oracle: sampling laws, determinism, convergence."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from conftest import (
    CUBIC,
    NEEDLE,
    REGIME_GEOMETRIES,
    SQUAT,
    TALL,
    one_shot_coverage_block,
    sample_pair_distances,
    sample_points,
    simulate_ppp_coverage,
)
from cylcov import (
    ChannelModel,
    CylinderGeometry,
    DomainError,
    NetworkScenario,
    empirical_distance_histogram,
    simulate_coverage,
)
from cylcov.simulation import (
    BLOCK_TRIALS,
    CHUNK_LINKS,
    _blocks,
    _link_distances_squared,
    _sir_unit,
    substream,
)

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

    def test_empty_bins_keep_a_half_width(self):
        # the last two of 64 bins of the tall shape hold no pair of 10,000:
        # their half-width is the Wilson interval's reach z^2 / (n + z^2),
        # and every other bin keeps the normal-approximation width
        n, bins = 10_000, 64
        widths = np.diff(np.linspace(0.0, TALL.d_max, bins + 1))
        est = empirical_distance_histogram(TALL, n, bins, seed=5)
        p = np.rint(est.mean * widths * n) / n
        assert (p == 0.0).tolist()[-3:] == [False, True, True]
        half = np.where(p == 0.0, 1.96**2 / (n + 1.96**2), 1.96 * np.sqrt(p * (1.0 - p) / n))
        assert np.array_equal(est.ci_half_width, half / widths)

    def test_deterministic(self):
        a = empirical_distance_histogram(GEOM, 20_000, 32, seed=10)
        b = empirical_distance_histogram(GEOM, 20_000, 32, seed=10)
        assert np.array_equal(a.mean, b.mean)

    @pytest.mark.parametrize(
        "geom, seed, counts",
        [
            (TALL, 5, [102, 626, 1238, 1583, 1363, 1020, 859, 725, 602, 567, 434, 355, 273, 164, 83, 6]),
            (SQUAT, 6, [86, 427, 608, 797, 953, 974, 1003, 1043, 938, 873, 744, 623, 440, 303, 148, 40]),
        ],
    )
    def test_counts_keep_their_streams(self, geom, seed, counts):
        # per-bin pair counts over two full blocks and a partial one, as the
        # Cartesian kernel first counted them; the draw order must not change
        est = empirical_distance_histogram(geom, 10_000, 16, seed)
        found = est.mean * (geom.d_max / 16) * est.trials
        assert np.rint(found).astype(int).tolist() == counts


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

    def test_interval_keeps_its_width_when_every_trial_is_covered(self):
        # the exact coverage here is 0.9999966: about 1.4 uncovered trials
        # are expected in 400,000, and this seed draws none.  The normal
        # interval collapsed to 1.0 +- 0.0, which excludes the exact value.
        sc = scenario(N=3, m=3.0, beta=0.0117, geom=CUBIC, alpha=3.0)
        est = simulate_coverage(sc, 400_000, seed=5)
        assert est.mean == 1.0
        assert est.ci_half_width == 1.96**2 / (400_000 + 1.96**2)
        assert est.mean - est.ci_half_width <= 0.9999966

    def test_interval_keeps_its_width_when_no_trial_is_covered(self):
        for est in (
            simulate_coverage(scenario(beta=1e9), 5_000, seed=12),
            simulate_ppp_coverage(scenario(beta=1e9, alpha=4.0), 5_000, seed=12),
        ):
            assert est.mean == 0.0
            assert est.ci_half_width == 1.96**2 / (5_000 + 1.96**2)

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

    def test_fractional_shape_supported(self):
        # the simulator handles shapes the analytic path rejects
        est = simulate_coverage(scenario(m=1.5), 20_000, seed=21)
        assert 0.0 < est.mean < 1.0

    @pytest.mark.parametrize(
        "N, m, beta, covered",
        [
            (3, 1.0, 0.1, 9628),
            (20, 2.5, 1.0, 3439),
        ],
    )
    def test_counts_keep_their_streams(self, N, m, beta, covered):
        # covered-trial counts of the (n, 3)-array implementation, over two
        # full blocks and a partial one; the draw order must not change
        est = simulate_coverage(scenario(N=N, m=m, beta=beta), 10_000, seed=31)
        assert round(est.mean * est.trials) == covered

    @pytest.mark.parametrize(
        "geom, N, m, alpha, beta, covered",
        [
            (NEEDLE, 2, 0.5, 4.0, 1e3, 10_000),
            (SQUAT, 12, 0.5, 3.0, 0.2, 7163),
            (NEEDLE, 6, 1.5, 4.0, 2.0, 7032),
        ],
    )
    def test_more_counts_keep_their_streams(self, geom, N, m, alpha, beta, covered):
        # counts of the Cartesian kernel: one link and no interference (N = 2),
        # the Gamma branch below shape 1, alpha = 4, flat and thin regimes
        sc = scenario(N=N, m=m, beta=beta, geom=geom, alpha=alpha)
        est = simulate_coverage(sc, 10_000, seed=31)
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
            lambda: simulate_ppp_coverage(sc, 100, seed),
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


class TestCounts:
    # Trials, pairs and bins are integers.  A bool used to run as one trial
    # and come back as trials=True, and a float ended in numpy's TypeError.
    BAD = [True, False, 1000.0, 1.5, float("nan"), "3", None, 0, -1]

    @pytest.mark.parametrize("count", BAD, ids=repr)
    def test_every_estimator_rejects_the_count(self, count):
        sc = scenario()
        calls = [
            ("trials", lambda: simulate_coverage(sc, count, 1)),
            ("trials", lambda: simulate_coverage([sc, scenario(m=2.0)], count, 1)),
            ("trials", lambda: simulate_ppp_coverage(sc, count, 1)),
            ("pairs", lambda: sample_pair_distances(GEOM, count, 1)),
            ("pairs", lambda: empirical_distance_histogram(GEOM, count, 8, 1)),
            ("bins", lambda: empirical_distance_histogram(GEOM, 10_000, count, 1)),
        ]
        for name, call in calls:
            with pytest.raises(DomainError, match=re.escape(f"{name}={count!r}")):
                call()

    def test_numpy_integers_accepted(self):
        a = simulate_coverage(scenario(), np.int64(5_000), 1)
        b = simulate_coverage(scenario(), 5_000, 1)
        assert a.mean == b.mean
        assert sample_pair_distances(GEOM, np.uint16(10), 1).shape == (10,)
        est = empirical_distance_histogram(GEOM, np.int32(10_000), np.int8(8), 1)
        assert est.mean.shape == (8,)


class TestGroups:
    """A sequence of scenarios sharing geometry and N counts from one set of draws."""

    @settings(max_examples=25, deadline=None)
    @given(
        geom=st.sampled_from(REGIME_GEOMETRIES),
        N=st.sampled_from([2, 3, 7]),
        ms=st.lists(st.sampled_from([1.0, 2.0, 3.0]), max_size=1).map(lambda x: [0.5, 1.5] + x),
        alphas=st.lists(st.sampled_from([4.0, 6.0]), max_size=1).map(lambda x: [3.0, 8.0] + x),
        betas=st.lists(st.floats(1e-3, 1e3), max_size=1).map(lambda x: [1e-3, 1e3] + x),
        trials=st.sampled_from([4095, 4096, 4097]),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_grouped_counts_equal_one_scenario_counts(
        self, geom, N, ms, alphas, betas, trials, seed, data
    ):
        group = [
            scenario(N=N, m=m, beta=beta, geom=geom, alpha=alpha)
            for m in ms for alpha in alphas for beta in betas
        ]
        group = data.draw(st.permutations(group))
        grouped = simulate_coverage(group, trials, seed)
        assert len(grouped) == len(group)
        for sc, est in zip(group, grouped):
            alone = simulate_coverage(sc, trials, seed)
            assert est.scenario == sc and est.trials == trials and est.seed == seed
            assert round(est.mean * trials) == round(alone.mean * trials)
            assert (est.mean, est.ci_half_width) == (alone.mean, alone.ci_half_width)

    def test_one_alpha_groups_repeats_and_tuples(self):
        # with one alpha, the path gain and each m's products go in place
        group = [scenario(N=5, m=m, beta=beta) for m in (0.5, 1.0, 1.5) for beta in (0.5, 2.0)]
        group += group[:2]
        alone = [simulate_coverage(sc, 5_000, 4) for sc in group]
        assert simulate_coverage(tuple(group), 5_000, 4) == alone
        assert simulate_coverage(group[:1], 5_000, 4) == alone[:1]

    @pytest.mark.parametrize(
        "group",
        [
            [],
            [scenario(geom=SQUAT), scenario(geom=TALL)],
            [scenario(N=3), scenario(N=3, m=2.0), scenario(N=4)],
        ],
        ids=["empty", "mixed-geometry", "mixed-N"],
    )
    def test_rejects_groups_that_cannot_share_draws(self, group):
        with pytest.raises(DomainError, match="one geometry and N"):
            simulate_coverage(group, 1_000, 1)


class TestChunks:
    """A block drawn and computed in row chunks counts as the one-shot block."""

    @staticmethod
    def _one_shot(group, trials, seed):
        unit = _sir_unit(group[0].geom)
        counts = np.zeros(len(group), dtype=np.int64)
        for index, size in _blocks(trials):
            counts += one_shot_coverage_block(substream(seed, index), group, size, unit)
        return counts.tolist()

    @staticmethod
    def _chunked(group, trials, seed):
        return [round(est.mean * trials) for est in simulate_coverage(group, trials, seed)]

    @pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=lambda g: f"R{g.R:g}-H{g.H:g}")
    @pytest.mark.parametrize("N", [2, 3, 41])
    def test_group_counts_equal_one_shot_counts(self, geom, N):
        # N = 41 allows 819 rows in a chunk: a full block takes six chunks,
        # five of 683 rows and a shorter last one of 681, and the partial last
        # block of 1,000 trials two chunks of 500
        group = [
            scenario(N=N, m=m, beta=beta, geom=geom, alpha=alpha)
            for m in (0.5, 2.0) for alpha in (3.0, 4.0) for beta in (0.3, 3.0)
        ]
        trials = BLOCK_TRIALS + 1_000
        assert self._chunked(group, trials, 17) == self._one_shot(group, trials, 17)

    def test_trial_longer_than_a_chunk(self):
        # a trial of CHUNK_LINKS + 1 links makes each row its own chunk
        group = [
            scenario(N=CHUNK_LINKS + 2, m=m, beta=1e-3, alpha=alpha)
            for m in (0.5, 1.0) for alpha in (3.0, 4.0)
        ]
        assert self._chunked(group, 3, 18) == self._one_shot(group, 3, 18)

    def test_histogram_counts_equal_counts_of_all_distances(self):
        # 70,001 pairs: 17 full blocks, then a partial one
        pairs, bins = 70_001, 64
        d = sample_pair_distances(TALL, pairs, seed=19)
        parts = []
        for index, size in _blocks(pairs):
            u = substream(19, index).random((2 * size, 3))
            parts.append(np.sqrt(_link_distances_squared(u[:size], u[size:, None], TALL)[:, 0]))
        assert np.array_equal(d, np.concatenate(parts))
        counts = np.histogram(d, bins=bins, range=(0.0, TALL.d_max))[0]
        est = empirical_distance_histogram(TALL, pairs, bins, seed=19)
        found = np.rint(est.mean * (TALL.d_max / bins) * pairs).astype(int)
        assert found.tolist() == counts.tolist()


class TestWorkingMemory:
    """Traced peaks: no sampler holds more than a chunk of temporaries."""

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_coverage_block_per_link(self):
        # one N = 50 block: 8 B per link for the block's path gain, plus one
        # chunk of temporaries; a block drawn whole takes 57 B per link
        links = BLOCK_TRIALS * 49
        peak = self._peak(lambda: simulate_coverage(scenario(N=50, m=1.5), BLOCK_TRIALS, 1))
        assert peak <= 24 * links

    def test_histogram_of_a_million_pairs(self):
        # holding every distance at once takes 9.8 MB traced
        peak = self._peak(lambda: empirical_distance_histogram(GEOM, 10**6, 64, 1))
        assert peak <= 4 * 10**6


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
    d = sample_pair_distances(GEOM, 10_000, seed=31)
    # the same draws through the coverage trials' link kernel: 2 size rows of
    # (rho, v, w) per block, the first half paired with the second
    parts = []
    for index, size in enumerate((BLOCK_TRIALS, BLOCK_TRIALS, 10_000 - 2 * BLOCK_TRIALS)):
        u = substream(31, index).random((2 * size, 3))
        parts.append(np.sqrt(_link_distances_squared(u[:size], u[size:, None], GEOM)[:, 0]))
    assert np.array_equal(d, np.concatenate(parts))
    # checksum of the stream as first drawn
    assert float(d.sum()) == pytest.approx(160620.7893477158, rel=1e-13)
    assert float(np.sum(d * d)) == pytest.approx(2959842.873975744, rel=1e-13)


@pytest.mark.parametrize("geom", REGIME_GEOMETRIES, ids=lambda g: f"R{g.R:g}-H{g.H:g}")
def test_pair_distances_match_the_cartesian_reference(geom):
    pairs = 3 * BLOCK_TRIALS + 100
    d = sample_pair_distances(geom, pairs, seed=32)
    parts = []
    for index, size in enumerate((BLOCK_TRIALS,) * 3 + (100,)):
        pts = sample_points(substream(32, index), geom, 2 * size)
        parts.append(np.linalg.norm(pts[:size] - pts[size:], axis=1))
    # the largest measured over 1e6 pairs per regime is 4.7e-16 d_max
    assert np.max(np.abs(d - np.concatenate(parts))) <= 1e-15 * geom.d_max


def test_pair_sampling_matches_tabulated_cdf(tall_dist):
    from scipy.stats import kstest

    d = sample_pair_distances(TALL, 200_000, seed=22)
    assert kstest(d, tall_dist.cdf).statistic <= 0.004


class TestUnitOfLength:
    """SIR does not depend on the unit of length, and neither do the simulator's counts."""

    @staticmethod
    def _means(scale):
        geom = CylinderGeometry(R=20.0 * scale, H=120.0 * scale)
        group = [scenario(N=5, geom=geom, alpha=alpha) for alpha in (4.0, 8.0)]
        return [est.mean for est in simulate_coverage(group, 1_000, 1)]

    def test_power_of_two_scales_keep_every_count(self):
        # a scale of 2^j moves no bit of the lengths in the simulator's unit,
        # while in the caller's unit d^-8 leaves the float range far from 1
        reference = self._means(1.0)
        for j in range(-300, 301):
            assert self._means(math.ldexp(1.0, j)) == reference, j

    def test_needle_past_the_volume_of_its_unit_shape(self):
        # in the unit 2^e near d_max = 1e100 the radius's square underflows,
        # so no second CylinderGeometry of the scaled shape could be built
        needle = scenario(N=5, geom=CylinderGeometry(R=1e-100, H=1e100), alpha=8.0)
        line = scenario(N=5, geom=CylinderGeometry(R=1e-20, H=1.0), alpha=8.0)
        est = simulate_coverage(needle, 4_096, 1)
        assert est.mean == simulate_coverage(line, 4_096, 1).mean
        assert est.mean < 0.95
