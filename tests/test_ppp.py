"""Infinite-field Poisson baseline: analytics, Monte Carlo, and its collapse.

Far-field truncation error of the Monte Carlo decays like M^(3 - alpha)
in the truncation range M, so self-consistency against the truncated
simulation is checked at a steep exponent where modest regions already
approximate the infinite field.  At alpha <= 3 the infinite-field
interference is almost surely infinite; the analytic baseline is exactly
zero there and the truncated simulation drifts down without bound as the
region grows, which is asserted below as the signature of the collapse.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import binom, hyp2f1

from conftest import PPP_BLOCK_POINTS, simulate_ppp_coverage
from cylcov import (
    ChannelModel,
    CylinderGeometry,
    DomainError,
    NetworkScenario,
    UnsupportedParameterError,
    ppp_coverage,
    simulate_coverage,
)
from cylcov.ppp import _lentz_tail, _series_tail

SQUAT = CylinderGeometry(R=120.0, H=20.0)
SMALL = CylinderGeometry(R=12.0, H=30.0)


def scenario(alpha=4.0, m=1.0, beta=1.0, geom=SQUAT, N=10):
    return NetworkScenario(N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


def scaled(geom, f):
    return CylinderGeometry(R=geom.R * f, H=geom.H * f)


def oracle_coverage(alpha, m, beta, dps=30):
    """Poisson-baseline coverage by quadrature in mpmath, at dps digits.

    With delta = 3 / alpha and x = v^-alpha, the interference exponent's
    beta-derivatives are
        A^(k)(s) = (1/alpha) int_0^1 d^k/ds^k [1 - (1 + s x)^-m] x^(-delta-1) dx.
    The substitution x = w^(1/(1-delta)) removes the x^-delta endpoint
    singularity, and 1 - (1 + s x)^-m is taken as -expm1(-m log1p(s x))
    to keep its digits at small x; without the first the quadrature is
    off by 0.05 at alpha = 3.05, and without the second by 0.23.  In z = 4 pi lam l^3 the conditional
    coverage is exp(-c_0 z) sum_k (-1)^k b_k(z), with c_k = beta^k A^(k)(beta)
    and b_k the Taylor coefficients of exp(-z sum_j c_j x^j / j!), and the
    serving law is exp(-z/3) dz / 3.
    """
    with mp.workdps(dps):
        alpha, beta = mp.mpf(alpha), mp.mpf(beta)
        delta = 3 / alpha
        p = 1 / (1 - delta)

        def a_derivative(k):
            def integrand(w):
                if w == 0:
                    return mp.mpf(0)
                x = w**p
                if k == 0:
                    g = -mp.expm1(-m * mp.log1p(beta * x))
                else:
                    g = (-1) ** (k + 1) * mp.rf(m, k) * x**k * (1 + beta * x) ** (-m - k)
                return g * x ** (-delta - 1) * p * w ** (p - 1)

            return mp.quad(integrand, [0, 1]) / alpha

        c = [beta**k * a_derivative(k) for k in range(m)]

        def conditional(z):
            a = [-z * c[j] / mp.factorial(j) for j in range(m)]
            b = [mp.mpf(1)]
            for k in range(1, m):
                b.append(sum(j * a[j] * b[k - j] for j in range(1, k + 1)) / k)
            return mp.exp(-c[0] * z) * sum((-1) ** k * b[k] for k in range(m))

        return float(mp.quad(lambda z: conditional(z) * mp.exp(-z / 3) / 3, [0, 1, 10, mp.inf]))


def hyp2f1_coverage(alpha, m, beta):
    """The closed form's sum with the coefficients of D(x) as derivatives of 2F1.

    d_j = beta^j (m)_j (-delta)_j / ((1 - delta)_j j!)
          2F1(m + j, j - delta; j + 1 - delta; -beta),
    one scipy hyp2f1 call for all m of them.
    """
    delta = 3.0 / alpha
    j = np.arange(m)
    d = -delta / (j - delta) * binom(m + j - 1, j) * beta**j * hyp2f1(
        m + j, j - delta, j + 1.0 - delta, -beta
    )
    q = [1.0 / d[0]]
    for k in range(1, m):
        q.append(-sum(d[i] * q[k - i] for i in range(1, k + 1)) / d[0])
    return float(sum(q))


class TestModel:
    def test_results_echo_the_scenario(self):
        sc = scenario(alpha=8.0)
        assert ppp_coverage(sc).scenario is sc
        assert simulate_ppp_coverage(sc, trials=10, seed=1, padding=0.1).scenario is sc

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedParameterError):
            ppp_coverage(scenario(m=2.5))
        with pytest.raises(UnsupportedParameterError):
            ppp_coverage(scenario(m=7.0))


class TestAnalytic:
    def test_vanishing_threshold(self):
        res = ppp_coverage(scenario(alpha=4.0, beta=1e-9))
        assert res.pc >= 0.999
        assert res.method == "ppp-baseline"

    def test_intensity_invariance(self):
        # Rescaling space maps PPP(lam) to PPP(lam'), and the SIR is a
        # ratio of distance powers, so coverage cannot depend on the
        # matched intensity N / (pi R^2 H) at all.  In particular it does
        # NOT approach 1 as the field thins out: the nearest transmitter
        # recedes at the same rate as the interferers.
        pcs = [
            ppp_coverage(scenario(alpha=4.0, geom=geom, N=N)).pc
            for geom, N in ((scaled(SQUAT, 1e2), 2), (SQUAT, 10), (scaled(SQUAT, 1e-2), 10**6))
        ]
        assert pcs[0] == pytest.approx(pcs[1], abs=1e-4)
        assert pcs[2] == pytest.approx(pcs[1], abs=1e-4)

    def test_decreasing_in_beta(self):
        pcs = [ppp_coverage(scenario(alpha=4.0, beta=b)).pc for b in (0.1, 1.0, 10.0)]
        assert pcs[0] > pcs[1] > pcs[2]

    def test_improves_with_fading_shape(self):
        pcs = [ppp_coverage(scenario(alpha=4.0, m=m)).pc for m in (1.0, 2.0, 3.0)]
        assert pcs[0] < pcs[1] < pcs[2]

    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_collapse_below_supercritical_exponent(self, alpha):
        res = ppp_coverage(scenario(alpha=alpha))
        assert res.pc == 0.0
        assert res.error_estimate == 0.0

    @pytest.mark.parametrize("alpha", [3.05, 3.5, 4.0, 6.0])
    def test_matches_mpmath_oracle(self, alpha):
        for m in range(1, 6):
            for beta in (0.1, 10.0):
                res = ppp_coverage(scenario(alpha=alpha, m=float(m), beta=beta))
                gap = abs(res.pc - oracle_coverage(alpha, m, beta))
                assert gap <= res.error_estimate <= 1e-12, (m, beta, gap, res.error_estimate)

    def test_intensity_cancels_exactly(self):
        # N, R and H do not enter the closed form: every bit is the same
        shapes = (SQUAT, SMALL, scaled(SQUAT, 1e-6), scaled(SMALL, 1e6))
        for alpha, m, beta in ((3.05, 5.0, 0.1), (4.0, 1.0, 1.0), (6.0, 3.0, 10.0)):
            pcs = {
                ppp_coverage(scenario(alpha, m, beta, geom=geom, N=N)).pc
                for geom in shapes
                for N in (2, 10, 10**6)
            }
            assert len(pcs) == 1, (alpha, m, beta, pcs)

    @pytest.mark.parametrize("alpha", [3.0 + 1e-13, 3.0 + 1e-12])
    def test_unresolved_near_critical_exponent_raises(self, alpha):
        # no value overflows at either: near the pole at delta = 1 the
        # rounding allowance m eps pc / (1 - delta) passes the 1e-4 contract
        with pytest.raises(RuntimeError):
            ppp_coverage(scenario(alpha=alpha, beta=1e-14))

    def test_matches_hypergeometric_route(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            alpha = float(rng.uniform(3.001, 20.0))
            beta = float(10.0 ** rng.uniform(-6.0, 6.0))
            m = int(rng.integers(1, 6))
            res = ppp_coverage(scenario(alpha=alpha, m=float(m), beta=beta))
            gap = abs(res.pc - hyp2f1_coverage(alpha, m, beta))
            assert gap <= max(res.error_estimate, 1e-14), (alpha, m, beta, gap, res.error_estimate)

    @pytest.mark.parametrize("tail", [_lentz_tail, _series_tail])
    def test_unsettled_incomplete_beta_raises(self, tail):
        # at p = q = 1e8 either route needs about 1e4 terms, past its cap
        with pytest.raises(RuntimeError, match="unsettled"):
            tail(1e8, 1e8, 0.5)
        assert tail(2.0, 3.0, 0.2) == pytest.approx(1.4713541666666667, rel=1e-15)


class TestMonteCarloConsistency:
    def test_matches_truncated_field_at_steep_exponent(self):
        # alpha = 8: truncation error ~ M^-5 is negligible at padding 1
        sc = scenario(alpha=8.0, m=1.0)
        res = ppp_coverage(sc)
        est = simulate_ppp_coverage(sc, trials=20_000, seed=24, padding=1.0)
        stderr = est.ci_half_width / 1.96
        assert abs(res.pc - est.mean) <= max(0.01, 3.0 * stderr)

    def test_padding_insensitive_at_steep_exponent(self):
        # paired construction: the larger region reuses the smaller one's
        # points plus an independent shell, so the padding effect is
        # isolated from Monte Carlo noise
        sc = scenario(alpha=8.0, m=1.0)
        near = simulate_ppp_coverage(sc, trials=8_000, seed=25, padding=1.0)
        far = simulate_ppp_coverage(sc, trials=8_000, seed=25, padding=1.6)
        # same seed reuses the same block substreams; the remaining
        # difference is dominated by the true padding effect plus the
        # resampling noise of the region change
        assert abs(near.mean - far.mean) <= 0.002 + 3.0 * math.hypot(
            near.ci_half_width, far.ci_half_width
        ) / 1.96

    def test_estimate_keeps_falling_when_field_diverges(self):
        sc = scenario(alpha=3.0, m=1.0, geom=SMALL)
        pcs = [
            simulate_ppp_coverage(sc, trials=4_000, seed=26, padding=p).mean
            for p in (1.0, 3.0)
        ]
        assert pcs[1] < pcs[0] - 0.02

    def test_light_field_keeps_its_stream(self):
        # A 4096-trial block of this field holds 3.99 M expected points,
        # just under PPP_BLOCK_POINTS, so it keeps full blocks; the values
        # were measured with fixed 4096-trial blocks.
        est = simulate_ppp_coverage(scenario(alpha=8.0, m=1.0), trials=5000, seed=24, padding=1.0)
        assert est.mean == 0.682
        assert est.ci_half_width == 0.01290853083507182

    def test_block_memory_is_bounded(self):
        # About 7,100 expected points per trial: 1200 trials in one block
        # would hold 8.5 M points, about 0.8 GB.
        sc = scenario(alpha=3.0, m=1.0, geom=SMALL)
        tracemalloc.start()
        try:
            simulate_ppp_coverage(sc, trials=1200, seed=26, padding=3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * PPP_BLOCK_POINTS

    def test_single_point_field_counts_as_covered(self):
        # N = 2 in SMALL at padding 0.27 puts mu = 2 N p^3 d_max^3 / (R^2 H)
        # = 1.03 points in a field.  Covered are the lone points, P1 = mu
        # e^-mu = 0.37, and a share of the fields of two or more points, so
        # the estimate lies in [P1, 1 - P0] = [0.37, 0.64].  Counting empty
        # fields as covered would lift it to at least P0 + P1 = 0.72, and
        # lone points as not covered cap it at 1 - P0 - P1 = 0.28.
        padding = 0.27
        sc = scenario(alpha=4.0, geom=SMALL, N=2)
        mu = 2 * sc.N * padding**3 * SMALL.d_max**3 / (SMALL.R**2 * SMALL.H)
        assert 0.9 < mu < 1.1
        est = simulate_ppp_coverage(sc, trials=4_000, seed=27, padding=padding)
        slack = 3.0 * est.ci_half_width / 1.96
        assert mu * math.exp(-mu) - slack <= est.mean <= 1.0 - math.exp(-mu) + slack

    def test_same_stream_at_every_scale(self):
        # Scaling R and H by a power of two scales every distance exactly
        # and leaves the field's mean point count N / V * volume unchanged,
        # so the draws and the counts are the same.
        sc = scenario(alpha=8.0, m=1.0)
        big = scenario(alpha=8.0, m=1.0, geom=scaled(SQUAT, 2.0**20))
        near, far = (simulate_ppp_coverage(s, trials=3000, seed=29, padding=1.0) for s in (sc, big))
        assert near.mean == far.mean

    def test_undrawable_field_is_a_domain_error(self):
        # At R = 1e-100, H = 1e100 the field of padding 0.5 has
        # lam * volume = N / (pi R^2 H) * 2 pi M^3 with M = 5e99, which
        # overflows to inf; it is rejected before a block is drawn.
        sc = scenario(geom=CylinderGeometry(R=1e-100, H=1e100), N=5)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"padding=0\.5 .*lam \* volume=inf"):
                simulate_ppp_coverage(sc, trials=10**6, seed=1, padding=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    @pytest.mark.parametrize("padding", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_padding_must_be_finite_and_positive(self, padding):
        with pytest.raises(DomainError, match="padding"):
            simulate_ppp_coverage(scenario(), trials=10, seed=1, padding=padding)


class TestFigureFiveOrdering:
    def test_ppp_deviates_more_than_bpp_analytic(self, squat_dist):
        # N=10 in the squat cylinder, alpha=3, m=1, beta=1
        from cylcov import coverage_probability

        sc = NetworkScenario(
            N=10, geom=SQUAT, channel=ChannelModel(alpha=3.0, m=1.0), beta=1.0
        )
        truth = simulate_coverage(sc, 100_000, seed=28).mean
        bpp = coverage_probability(sc, squat_dist).pc
        ppp = ppp_coverage(sc).pc
        assert abs(ppp - truth) > abs(bpp - truth)
