"""Serving-distance and conditional interferer-distance distributions.

The oracle tests come in two flavors.  Framework-internal oracles draw
the N - 1 receiver-to-node distances i.i.d. from the pair-distance law,
which is exactly the independence assumption behind the order-statistics
formulas; those agree to Monte Carlo noise.  Physical-deployment oracles
place actual nodes and reuse one receiver position for all N - 1
distances, which makes the distances exchangeable but dependent, so the
pair-law formulas deviate from them (pinned below).  Given the receiver
at x the distances are i.i.d. with the receiver law F_x, so the
deployment laws are mixtures over receiver positions; those tests build
them from the components of ``build_receiver_cdfs``.  README "Known
limitations" gives the size of the deviation in coverage terms.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import kstest

from conftest import (
    SQUAT,
    TALL,
    conditional_interferer_pdf,
    inverse_cdf,
    sample_points,
    serving_distance_cdf,
    serving_distance_pdf,
    tables_of,
)
from cylcov import (
    ChannelModel,
    CylinderGeometry,
    DegenerateConditionError,
    DomainError,
    NetworkScenario,
    simulate_coverage,
)
from cylcov.simulation import substream

CHANNEL = ChannelModel(alpha=3.0, m=1.0)


def scenario(N, geom=TALL, beta=1.0, channel=CHANNEL):
    return NetworkScenario(N=N, geom=geom, channel=channel, beta=beta)


def deployment_serving_distances(geom, N, deployments, seed):
    """Nearest-of-(N-1) distances from true node placements."""
    rng = substream(seed, 0)
    pts = sample_points(rng, geom, deployments * N).reshape(deployments, N, 3)
    d = np.linalg.norm(pts[:, 1:, :] - pts[:, :1, :], axis=2)
    return d.min(axis=1)


class TestScenarioValidation:
    def test_rejects_single_node(self):
        with pytest.raises(DomainError):
            scenario(1)

    def test_integral_float_node_count_is_that_integer(self):
        # N is stored as an int, so the simulator can size its arrays with it
        whole, point = scenario(5), scenario(5.0)
        assert point == whole and type(point.N) is int
        assert simulate_coverage(point, 3000, 4) == simulate_coverage(whole, 3000, 4)
        with pytest.raises(DomainError, match="N=5.5"):
            scenario(5.5)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            scenario(5, beta=0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(DomainError, match="beta"):
            scenario(5, beta=beta)

    @pytest.mark.parametrize(
        "R, H",
        [
            (math.inf, 120.0), (20.0, math.inf), (math.nan, 120.0), (20.0, math.nan),
            (-20.0, 120.0), (20.0, -120.0), (0.0, 120.0), (20.0, 0.0),
            # d_max or the volume overflows, or the volume underflows to 0
            (20e150, 120e150), (1e200, 1.0), (1e-200, 1e-200),
        ],
    )
    def test_rejects_cylinders_without_finite_size(self, R, H):
        with pytest.raises(DomainError, match="radius R"):
            CylinderGeometry(R=R, H=H)

    def test_accepts_large_finite_cylinders(self):
        geom = CylinderGeometry(R=20e60, H=120e60)
        assert math.isfinite(geom.d_max) and math.isfinite(geom.volume)

    def test_rejects_shallow_path_loss(self):
        with pytest.raises(DomainError):
            ChannelModel(alpha=2.0, m=1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_non_finite_path_loss(self, alpha):
        with pytest.raises(DomainError):
            ChannelModel(alpha=alpha, m=1.0)

    def test_rejects_sub_nakagami_shape(self):
        with pytest.raises(DomainError):
            ChannelModel(alpha=3.0, m=0.2)

    def test_geometry_mismatch_rejected(self, squat_dist):
        with pytest.raises(DomainError):
            serving_distance_pdf(10.0, scenario(5, geom=TALL), squat_dist)


class TestServingDistance:
    def test_two_nodes_reduce_to_pair_density(self, tall_dist):
        sc = scenario(2)
        probe = np.linspace(0.0, TALL.d_max, 500)
        assert np.allclose(
            serving_distance_pdf(probe, sc, tall_dist), tall_dist.pdf(probe), atol=1e-14
        )

    def test_normalization(self, tall_dist):
        sc = scenario(10)
        dense = np.linspace(0.0, TALL.d_max, 80_001)
        mass = simpson(serving_distance_pdf(dense, sc, tall_dist), x=dense)
        assert mass == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("l_frac", [0.1, 0.25, 0.5])
    def test_survival_consistency(self, tall_dist, l_frac):
        sc = scenario(10)
        l = l_frac * TALL.d_max
        dense = np.linspace(l, TALL.d_max, 60_001)
        tail = simpson(serving_distance_pdf(dense, sc, tall_dist), x=dense)
        assert tail == pytest.approx(tall_dist.sf(l) ** (sc.N - 1), abs=1e-5)

    def test_stochastically_decreasing_in_n(self, tall_dist):
        probe = np.linspace(1e-3, TALL.d_max * 0.999, 400)
        prev = None
        for N in (3, 5, 10, 20):
            cdf = serving_distance_cdf(probe, scenario(N), tall_dist)
            if prev is not None:
                assert np.all(cdf >= prev - 1e-12)
            prev = cdf

    def test_matches_iid_minimum_oracle(self, tall_dist):
        # min of N-1 i.i.d. pair distances: the exact model behind the formula
        sc = scenario(10)
        rng = substream(31337, 0)
        mins = inverse_cdf(tall_dist, rng.random((100_000, sc.N - 1))).min(axis=1)
        ks = kstest(mins, lambda x: serving_distance_cdf(x, sc, tall_dist)).statistic
        assert ks <= 0.01

    def test_matches_true_deployment_minimum(self, tall_mixture):
        # given receiver q the N-1 distances are i.i.d. with law F_q, so the
        # deployment minimum has CDF 1 - sum_q w_q (1 - F_q)^(N-1)
        sc = scenario(10)
        mins = deployment_serving_distances(TALL, sc.N, 100_000, seed=8)

        def cdf(x):
            return 1.0 - sum(
                w * table.sf(x) ** (sc.N - 1)
                for w, table in zip(tall_mixture.weights, tables_of(tall_mixture))
            )

        ks = kstest(mins, cdf).statistic
        assert ks <= 0.01

    def test_deployment_deviation_is_the_known_one(self, tall_dist):
        # pin the measured size of the dependence effect so regressions in
        # either the formula or the sampler stand out
        sc = scenario(10)
        mins = deployment_serving_distances(TALL, sc.N, 100_000, seed=8)
        ks = kstest(mins, lambda x: serving_distance_cdf(x, sc, tall_dist)).statistic
        assert 0.012 < ks < 0.035


class TestConditionalInterferer:
    def test_no_conditioning_reduces_to_pair_density(self, squat_dist):
        probe = np.linspace(0.0, SQUAT.d_max, 300)
        assert np.allclose(
            conditional_interferer_pdf(probe, 0.0, squat_dist),
            squat_dist.pdf(probe),
            atol=1e-14,
        )

    def test_zero_below_conditioning_point(self, squat_dist):
        l = 0.4 * SQUAT.d_max
        assert conditional_interferer_pdf(l - 1.0, l, squat_dist) == 0.0
        assert conditional_interferer_pdf(
            np.array([l - 2.0, l + 2.0]), l, squat_dist
        )[0] == 0.0

    def test_normalization(self, squat_dist):
        l = 0.3 * SQUAT.d_max
        dense = np.linspace(l, SQUAT.d_max, 60_001)
        mass = simpson(conditional_interferer_pdf(dense, l, squat_dist), x=dense)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_conditioning_rejected(self, squat_dist):
        with pytest.raises(DegenerateConditionError):
            conditional_interferer_pdf(10.0, SQUAT.d_max * (1.0 - 1e-12), squat_dist)
        with pytest.raises(DomainError):
            conditional_interferer_pdf(10.0, SQUAT.d_max + 1.0, squat_dist)

    def test_matches_iid_truncation_oracle(self, squat_dist):
        # i.i.d. pair distances kept above l: the exact model behind the formula
        l = 0.3 * SQUAT.d_max
        rng = substream(999, 0)
        draws = inverse_cdf(squat_dist, rng.random(400_000))
        kept = draws[draws >= l]
        fl = squat_dist.cdf(l)
        cdf = lambda u: np.maximum(0.0, (squat_dist.cdf(u) - fl) / (1.0 - fl))
        assert kstest(kept, cdf).statistic <= 0.006

    def test_matches_binned_deployment_conditioning(self, squat_mixture):
        # Given receiver q and serving distance l0 the other distances are
        # F_q truncated below at l0; receiver q has posterior weight
        # w_q (N-1) (1 - F_q(l0))^(N-2) f_q(l0), normalized.
        N = 10
        samples, l0 = self._binned_deployment_sample(SQUAT, N=N)
        tables = tables_of(squat_mixture)
        posterior = np.array(
            [
                w * (N - 1) * table.sf(l0) ** (N - 2) * table.pdf(l0)
                for w, table in zip(squat_mixture.weights, tables)
            ]
        )
        posterior /= posterior.sum()

        def cdf(u):
            return sum(
                p * np.maximum(0.0, (table.cdf(u) - table.cdf(l0)) / table.sf(l0))
                for p, table in zip(posterior, tables)
            )

        assert kstest(samples, cdf).statistic <= 0.02

    @staticmethod
    def _binned_deployment_sample(geom, deployments=1_000_000, N=10, seed=424242):
        """Non-serving distances of deployments whose serving distance is within 3% of the median."""
        rng = substream(seed, 0)
        collected = []
        l0 = None
        block = 250_000
        for start in range(0, deployments, block):
            size = min(block, deployments - start)
            pts = sample_points(rng, geom, size * N).reshape(size, N, 3)
            d = np.linalg.norm(pts[:, 1:, :] - pts[:, :1, :], axis=2)
            mins = d.min(axis=1)
            if l0 is None:
                l0 = float(np.median(mins))
                lo, hi = 0.97 * l0, 1.03 * l0
            mask = (mins >= lo) & (mins <= hi)
            collected.append(np.sort(d[mask], axis=1)[:, 1:].ravel())
        return np.concatenate(collected), l0
