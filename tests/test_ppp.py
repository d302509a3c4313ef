"""Infinite-field Poisson baseline: analytics, a truncated field, and its collapse.

The far-field truncation error of a field of radius M decays like
M^(3 - alpha).  A quadrature of the coverage in the ball of radius M
about the receiver bounds it: at alpha = 8, M = d_max is already within
1.3e-5 of the infinite field, so the truncated Monte Carlo oracle, whose
region holds that ball, checks ``ppp_coverage`` there.  At alpha <= 3 the
infinite-field interference is almost surely infinite; the analytic
baseline is exactly zero there, and the ball's coverage keeps falling as
M grows, which is asserted below as the signature of the collapse.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import binom, hyp2f1

from conftest import simulate_ppp_coverage
from cylcov import (
    ChannelModel,
    CylinderGeometry,
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


def ball_field_coverage(sc, M):
    """Rayleigh-fading coverage of the Poisson field of sc restricted to the ball of radius M.

    With lam = N / (pi R^2 H), the receiver at the center, the serving
    point at distance l and interferers in the shell from l to M,

        P(M) = int_0^M 4 pi lam l^2 exp(-(4/3) pi lam l^3)
               exp(-4 pi lam int_l^M u^2 beta (l/u)^alpha / (1 + beta (l/u)^alpha) du) dl,

    and an empty ball is not covered.  In w = exp(-z), z = (4/3) pi lam l^3,
    the chance that the ball of radius l is empty, the serving law is
    uniform on [exp(-Z), 1] with Z the z of M, and with t = l / u = e^s the
    shell's exponent is 3 z J(l / M), J(a) = int_{log a}^0 beta
    e^((alpha - 3) s) / (1 + beta e^(alpha s)) ds: both integrands are
    bounded, and the mass stays spread however large M is.
    """
    alpha, beta = sc.channel.alpha, sc.beta
    Z = 4.0 / 3.0 * math.pi * sc.N / sc.geom.volume * M**3

    def shell(a):
        def integrand(s):
            return beta * math.exp((alpha - 3.0) * s) / (1.0 + beta * math.exp(alpha * s))

        return quad(integrand, math.log(a), 0.0)[0]

    def conditional(w):
        z = -math.log(w)
        return math.exp(-3.0 * z * shell((z / Z) ** (1.0 / 3.0)))

    return quad(conditional, math.exp(-Z), 1.0)[0]


class TestModel:
    def test_results_echo_the_scenario(self):
        sc = scenario(alpha=8.0)
        assert ppp_coverage(sc).scenario is sc
        assert simulate_ppp_coverage(sc, trials=10, seed=1).scenario is sc

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


class TestTruncatedField:
    # scipy's IntegrationWarning is a UserWarning, which the suite's filter lets through
    @pytest.mark.filterwarnings("error")
    def test_truncation_at_d_max_is_negligible_at_steep_exponent(self):
        # alpha = 8: the error ~ M^-5 is 1.3e-5 at M = d_max, and dropping
        # interferers can only raise coverage
        sc = scenario(alpha=8.0, m=1.0)
        gap = ball_field_coverage(sc, SQUAT.d_max) - ppp_coverage(sc).pc
        assert 0.0 < gap <= 1e-4

    @pytest.mark.filterwarnings("error")
    def test_coverage_keeps_falling_when_field_diverges(self):
        # 0.146, 0.094 and 0.055 at 1, 3 and 30 d_max; the infinite field's is 0
        sc = scenario(alpha=3.0, m=1.0, geom=SMALL)
        pcs = [ball_field_coverage(sc, p * SMALL.d_max) for p in (1.0, 3.0, 30.0)]
        assert pcs[0] - 0.02 > pcs[1] > pcs[2] > ppp_coverage(sc).pc == 0.0


class TestMonteCarloConsistency:
    def test_matches_truncated_field_at_steep_exponent(self):
        # alpha = 8: truncation at d_max moves coverage by 1.3e-5
        sc = scenario(alpha=8.0, m=1.0)
        res = ppp_coverage(sc)
        est = simulate_ppp_coverage(sc, trials=20_000, seed=24)
        stderr = est.ci_half_width / 1.96
        assert abs(res.pc - est.mean) <= max(0.01, 3.0 * stderr)

    def test_light_field_keeps_its_stream(self):
        # the values were measured with fixed 4096-trial blocks
        est = simulate_ppp_coverage(scenario(alpha=8.0, m=1.0), trials=5000, seed=24)
        assert est.mean == 0.682
        assert est.ci_half_width == 0.01290853083507182


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
