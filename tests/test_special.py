"""Elliptic integrals and the Gamma tail, checked against quadrature oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaincc

from conftest import SQUAT, TALL, conditional_interferer_pdf, inverse_cdf
from cylcov import (
    ChannelModel,
    DomainError,
    NetworkScenario,
    UnsupportedParameterError,
    complete_E,
    complete_K,
    conditional_coverage,
    incomplete_E,
    incomplete_F,
    laplace_with_derivatives,
)
from cylcov.simulation import substream


def oracle_first_kind(phi, k):
    """Adaptive quadrature of the defining integral of F(phi, k)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
            0.0,
            phi,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=500,
        )
    return val


def oracle_second_kind(phi, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda th: math.sqrt(1.0 - (k * math.sin(th)) ** 2),
            0.0,
            phi,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=500,
        )
    return val


HALF_PI = math.pi / 2.0

# Frozen expected values, each re-verified below against the quadrature oracle.
K_HALF = 1.6857503548125960
K_099 = 3.3566005233611924
E_HALF = 1.4674622093394272
F_QUARTER_HALF = 0.8043661012320656
E_QUARTER_HALF = 0.7671959857111227


class TestCompleteFirstKind:
    def test_identity_at_zero(self):
        assert complete_K(0.0) == pytest.approx(HALF_PI, rel=1e-15)

    @pytest.mark.parametrize("k,expected", [(0.5, K_HALF), (0.99, K_099)])
    def test_frozen_values_match_oracle(self, k, expected):
        assert oracle_first_kind(HALF_PI, k) == pytest.approx(expected, rel=1e-12)
        assert complete_K(k) == pytest.approx(expected, rel=1e-12)

    def test_diverges_at_one(self):
        with pytest.raises(DomainError):
            complete_K(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_K(-0.1)
        with pytest.raises(DomainError):
            complete_K(1.5)
        # float-noise clamping
        assert complete_K(-1e-13) == pytest.approx(HALF_PI, rel=1e-15)


class TestCompleteSecondKind:
    def test_identity_at_zero(self):
        assert complete_E(0.0) == pytest.approx(HALF_PI, rel=1e-15)

    def test_degenerate_ellipse(self):
        assert complete_E(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value_matches_oracle(self):
        assert oracle_second_kind(HALF_PI, 0.5) == pytest.approx(E_HALF, rel=1e-12)
        assert complete_E(0.5) == pytest.approx(E_HALF, rel=1e-12)

    def test_clamps_noise_above_one(self):
        assert complete_E(1.0 + 1e-13) == pytest.approx(1.0, rel=1e-15)


class TestIncompleteFirstKind:
    @pytest.mark.parametrize("k", [0.0, 0.3, 0.9, 1.0])
    def test_empty_integral(self, k):
        assert incomplete_F(0.0, k) == 0.0

    def test_completeness_identity(self):
        assert incomplete_F(HALF_PI, 0.5) == pytest.approx(complete_K(0.5), abs=1e-12)

    def test_frozen_value_matches_oracle(self):
        assert oracle_first_kind(math.pi / 4, 0.5) == pytest.approx(
            F_QUARTER_HALF, rel=1e-12
        )
        assert incomplete_F(math.pi / 4, 0.5) == pytest.approx(F_QUARTER_HALF, rel=1e-12)

    def test_unit_modulus_allowed_below_right_angle(self):
        # F(phi, 1) = asinh(tan(phi)) stays finite for phi < pi/2
        phi = math.pi / 4
        assert incomplete_F(phi, 1.0) == pytest.approx(math.asinh(math.tan(phi)), rel=1e-12)

    def test_divergent_corner_rejected(self):
        with pytest.raises(DomainError):
            incomplete_F(HALF_PI, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_F(-0.2, 0.5)
        with pytest.raises(DomainError):
            incomplete_F(2.0, 0.5)
        with pytest.raises(DomainError):
            incomplete_F(0.5, 1.01)


class TestIncompleteSecondKind:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_empty_integral(self, k):
        assert incomplete_E(0.0, k) == 0.0

    def test_completeness_identity(self):
        assert incomplete_E(HALF_PI, 0.3) == pytest.approx(complete_E(0.3), abs=1e-12)

    def test_frozen_value_matches_oracle(self):
        assert oracle_second_kind(math.pi / 4, 0.5) == pytest.approx(
            E_QUARTER_HALF, rel=1e-12
        )
        assert incomplete_E(math.pi / 4, 0.5) == pytest.approx(E_QUARTER_HALF, rel=1e-12)

    def test_finite_at_unit_corner(self):
        assert incomplete_E(HALF_PI, 1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", np.arange(0.0, 0.95, 0.1))
def test_completeness_identities_on_grid(k):
    assert incomplete_F(HALF_PI, k) == pytest.approx(complete_K(k), abs=1e-12)
    assert incomplete_E(HALF_PI, k) == pytest.approx(complete_E(k), abs=1e-12)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_legendre_relation(k):
    kp = math.sqrt(1.0 - k * k)
    lhs = (
        complete_E(k) * complete_K(kp)
        + complete_E(kp) * complete_K(k)
        - complete_K(k) * complete_K(kp)
    )
    assert lhs == pytest.approx(math.pi / 2.0, abs=1e-10)


# Moduli and amplitudes for the scipy comparison: a dense grid, the last
# twelve decades below k = 1 and phi = pi/2, and float noise past each end
# that the clamp takes back.
GRID_K = np.concatenate([np.linspace(0.0, 1.0, 401), 1.0 - np.logspace(-12, -1, 34), [-1e-12, 1.0 + 1e-12]])
GRID_PHI = np.concatenate(
    [np.linspace(0.0, HALF_PI, 41), HALF_PI - np.logspace(-12, -1, 12), [-1e-12, HALF_PI + 1e-12]]
)


def test_agrees_with_scipy_on_dense_grid():
    # scipy.special takes the parameter k^2.  At phi = pi/2 the oracle is
    # scipy's complete routine: its ellipkinc is 2.9e-12 off there at
    # k = 1 - 1e-12, where complete_K agrees with mpmath to 3e-16.
    worst = {"K": 0.0, "E": 0.0, "F": 0.0, "E(phi)": 0.0}

    def record(name, got, ref):
        worst[name] = max(worst[name], abs(got - ref) / abs(ref) if ref else abs(got))

    for k in map(float, GRID_K):
        m = min(max(k, 0.0), 1.0) ** 2
        if m < 1.0:
            record("K", complete_K(k), sp.ellipk(m))
        record("E", complete_E(k), sp.ellipe(m))
        for phi in map(float, GRID_PHI):
            quarter = phi >= HALF_PI
            amp = min(max(phi, 0.0), HALF_PI)
            if not (quarter and m == 1.0):
                record("F", incomplete_F(phi, k), sp.ellipk(m) if quarter else sp.ellipkinc(amp, m))
            record("E(phi)", incomplete_E(phi, k), sp.ellipe(m) if quarter else sp.ellipeinc(amp, m))
    assert max(worst.values()) <= 1e-13, worst


@pytest.mark.parametrize(
    "phi,k",
    [(0.3, 0.2), (1.2, 0.9), (HALF_PI - 1e-10, 1.0), (1.5, 1.0 - 1e-9), (HALF_PI - 1e-6, 1.0 - 1e-12)],
)
def test_incomplete_agree_with_mpmath(phi, k):
    # the parameter is k^2 rounded to a float, as scipy.special takes it
    with mp.workdps(30):
        m = mp.mpf(k * k)
        refs = float(mp.ellipf(phi, m)), float(mp.ellipe(phi, m))
    assert incomplete_F(phi, k) == pytest.approx(refs[0], rel=1e-14, abs=0.0)
    assert incomplete_E(phi, k) == pytest.approx(refs[1], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [0.1, 0.7, 0.999, 1.0 - 1e-9, 1.0 - 1e-12])
def test_complete_agree_with_mpmath(k):
    # the float pi/2 stands for the quarter period, whatever its rounding
    with mp.workdps(30):
        m = mp.mpf(k * k)
        refs = float(mp.ellipk(m)), float(mp.ellipe(m))
    for K, E in ((complete_K(k), complete_E(k)), (incomplete_F(HALF_PI, k), incomplete_E(HALF_PI, k))):
        assert K == pytest.approx(refs[0], rel=1e-14, abs=0.0)
        assert E == pytest.approx(refs[1], rel=1e-14, abs=0.0)


def tail_scenario(N=3, m=2.0, beta=1.0, alpha=3.0):
    return NetworkScenario(N=N, geom=TALL, channel=ChannelModel(alpha=alpha, m=m), beta=beta)


class TestGammaTailSeries:
    """The integer-shape Gamma tail as the coverage pipeline evaluates it.

    P(G > x) = e^{-m x} sum_{k<m} (m x)^k / k! for G ~ Gamma(m, 1/m).
    Averaged over the interference I at x = beta l^alpha I, each
    e^{-t I} (t I)^k becomes (-t)^k times the k-th transform derivative,
    which is what conditional_coverage sums.
    """

    L = 0.3 * TALL.d_max

    def test_full_tail_at_zero(self, tall_dist):
        for m in (1.0, 2.0, 3.0, 5.0):
            assert conditional_coverage(0.0, tail_scenario(N=5, m=m), tall_dist) == 1.0

    def test_vanishing_tail(self, tall_dist):
        sc = tail_scenario(N=10, m=2.0, beta=1e9)
        assert conditional_coverage(self.L, sc, tall_dist) == pytest.approx(0.0, abs=1e-12)

    def test_direct_series_value(self, tall_dist):
        # m = 2: L(t) - t L'(t) at t = m beta l^alpha
        sc = tail_scenario(N=5, m=2.0, beta=2.0)
        t = 2.0 * 2.0 * self.L**3.0
        lap = laplace_with_derivatives(t, self.L, sc, tall_dist)
        expected = lap[0] - t * lap[1]
        assert conditional_coverage(self.L, sc, tall_dist) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_regularized_upper_gamma(self, m, tall_dist):
        # one interferer (N = 3) at distance u with gain h:
        # P(covered | l) = E_u E_h Q(m, m beta (l/u)^alpha h), Q the regularized upper gamma
        l, beta = self.L, 1.0
        norm = m**m / math.gamma(m)

        def tail_given_u(u):
            c = beta * (l / u) ** 3.0
            val, _ = quad(
                lambda h: gammaincc(m, m * c * h) * norm * h ** (m - 1) * math.exp(-m * h),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            return val

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            expected, _ = quad(
                lambda u: tail_given_u(u) * conditional_interferer_pdf(u, l, tall_dist),
                l,
                TALL.d_max,
                epsabs=1e-12,
                limit=400,
            )
        sc = tail_scenario(N=3, m=float(m), beta=beta)
        assert conditional_coverage(l, sc, tall_dist) == pytest.approx(expected, abs=1e-7)

    def test_strictly_decreasing_and_bounded(self, tall_dist):
        vals = [
            conditional_coverage(self.L, tail_scenario(N=5, m=3.0, beta=b), tall_dist)
            for b in np.logspace(-2.0, 2.0, 40)
        ]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_non_integer_shape_unsupported(self, tall_dist):
        with pytest.raises(UnsupportedParameterError):
            conditional_coverage(self.L, tail_scenario(m=2.5), tall_dist)

    def test_domain(self, tall_dist, squat_dist):
        with pytest.raises(DomainError):
            conditional_coverage(-1.0, tail_scenario(), tall_dist)
        with pytest.raises(DomainError):
            conditional_coverage(0.3 * SQUAT.d_max, tail_scenario(), squat_dist)

    def test_matches_monte_carlo_tail(self, tall_dist):
        # serving gain against three faded interferers drawn above l
        m, beta, n, interferers = 2.0, 1.0, 400_000, 3
        l = self.L
        rng = substream(2024, 0)
        u = inverse_cdf(tall_dist, rng.random((n, interferers)), l)
        h = rng.gamma(m, 1.0 / m, (n, interferers))
        g = rng.gamma(m, 1.0 / m, n)
        covered = g * l**-3.0 > beta * np.sum(h * u**-3.0, axis=1)
        frac = float(np.mean(covered))
        stderr = math.sqrt(frac * (1.0 - frac) / n)
        sc = tail_scenario(N=interferers + 2, m=m, beta=beta)
        assert abs(conditional_coverage(l, sc, tall_dist) - frac) <= 3.0 * stderr
